"""Content-addressed study store with multi-process write safety.

The disk layer of the study cache (:mod:`repro.harness.cache`) and the
characterization API (:mod:`repro.api`) share this store: one directory
holding one entry per fingerprint, where the fingerprint is the content
hash of the campaign *request* (tests, modules, scale, seed, program,
schema version -- see :func:`repro.harness.cache.study_fingerprint`).

An entry is two files:

* ``study-<fingerprint>.json`` -- the study document
  (:func:`repro.core.serialization.study_to_dict`). It is the entry's
  commit marker: :meth:`StudyStore.contains`, :meth:`~StudyStore.
  fingerprints`, :meth:`~StudyStore.read_bytes` (the API's ``GET``) and
  :meth:`~StudyStore.load_dict` read only it.
* ``study-<fingerprint>.cols`` -- the same study as a column file
  (:func:`repro.core.serialization.study_to_columns`), which
  :meth:`StudyStore.load` decodes without parsing the document. Its
  header holds the document's CRC-32, so ``load`` serves a study only
  while its document is intact.

:meth:`StudyStore.store` publishes the column file first and the
document last, so a published document always has its column file.
:meth:`StudyStore.delete` removes them in the opposite order. An entry
whose column file is missing or malformed (entries written before the
column file existed among them), or whose document no longer matches
its CRC-32, is corrupt: :meth:`StudyStore.load` unlinks both files and
the study is recomputed.

The request determines the study's records bit-for-bit, but not its
bytes: each computed study's provenance block carries its own
``created``, ``wall_seconds`` and ``counters``, so two writers racing
on one fingerprint hold *different* documents, and each column file
carries the CRC-32 of its own document only. The store guarantees that

* **readers never observe a torn entry** -- every publish goes through
  :func:`repro.atomic.write_atomic` (a temp file in the same directory,
  then ``os.replace``), and
* **a document is only ever paired with its own column file** -- a
  per-fingerprint lockfile (``O_CREAT | O_EXCL``) admits a single
  writer, so two writers' files cannot interleave (one's column file
  under the other's document would fail its CRC check, and ``load``
  would discard the entry). A second writer waits briefly and then
  adopts the published entry instead of re-serializing it, so the lock
  is not redundant even though both studies are record-identical.
  Within one process,
  :meth:`StudyStore.computing` goes further: the API's job workers
  hold it around a campaign, so an identical job waits for the study
  instead of computing it too.

Lockfiles are advisory and crash-tolerant: a lock older than
``stale_lock_seconds`` is broken (its holder died mid-write; the temp
file it may have leaked is invisible to readers).

``tests/api/test_store.py`` races two *processes* on one fingerprint to
pin these guarantees.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.atomic import write_atomic
from repro.core.serialization import (
    read_column_file,
    study_from_columns,
    study_to_columns,
    study_to_dict,
)
from repro.core.study import StudyResult
from repro.errors import AnalysisError
from repro.obs import clock
from repro.obs.metrics import REGISTRY

#: Prefix/suffix of every store entry (its document).
ENTRY_PREFIX = "study-"
ENTRY_SUFFIX = ".json"
#: Suffix of an entry's column file.
COLUMNS_SUFFIX = ".cols"


def entry_name(fingerprint: str) -> str:
    """Filename of a fingerprint's entry inside a store directory."""
    return f"{ENTRY_PREFIX}{fingerprint}{ENTRY_SUFFIX}"


class StudyStore:
    """One directory of content-addressed study entries.

    Parameters
    ----------
    directory:
        Store root; created lazily on the first write.
    lock_timeout:
        How long :meth:`store` waits for a concurrent writer of the
        same fingerprint before giving up (seconds). "Giving up"
        normally means the other writer already published a
        record-identical entry.
    stale_lock_seconds:
        Age beyond which an abandoned lockfile is broken.
    """

    def __init__(
        self,
        directory: str,
        lock_timeout: float = 10.0,
        stale_lock_seconds: float = 60.0,
    ):
        self.directory = directory
        self.lock_timeout = lock_timeout
        self.stale_lock_seconds = stale_lock_seconds
        # fingerprint -> [lock, holders], for computing().
        self._computing: Dict[str, list] = {}
        self._computing_lock = threading.Lock()

    # -- addressing -------------------------------------------------------------

    def path(self, fingerprint: str) -> str:
        """Absolute path of a fingerprint's entry (existing or not)."""
        return os.path.join(self.directory, entry_name(fingerprint))

    def columns_path(self, fingerprint: str) -> str:
        """Absolute path of a fingerprint's column file."""
        return os.path.join(
            self.directory, f"{ENTRY_PREFIX}{fingerprint}{COLUMNS_SUFFIX}"
        )

    def _lock_path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f".lock-{fingerprint}")

    @contextmanager
    def computing(self, fingerprint: str) -> Iterator[None]:
        """Hold, within this process, the one lock of computing
        ``fingerprint``'s study: a thread about to compute the same
        study waits here for the first to publish it."""
        with self._computing_lock:
            entry = self._computing.setdefault(
                fingerprint, [threading.Lock(), 0]
            )
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._computing_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._computing[fingerprint]

    def contains(self, fingerprint: str) -> bool:
        """Whether an entry is currently published for ``fingerprint``."""
        return os.path.isfile(self.path(fingerprint))

    def fingerprints(self) -> List[str]:
        """Every published fingerprint, sorted."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for entry in os.listdir(self.directory):
            if entry.startswith(ENTRY_PREFIX) and entry.endswith(
                ENTRY_SUFFIX
            ):
                found.append(entry[len(ENTRY_PREFIX):-len(ENTRY_SUFFIX)])
        return sorted(found)

    # -- reading ----------------------------------------------------------------

    def load(self, fingerprint: str) -> Optional[StudyResult]:
        """Load one published entry from its column file; ``None`` when
        absent or corrupt.

        A corrupt entry (column file missing, truncated or malformed,
        schema mismatch, invalid provenance block, a document that is
        not the one the column file was bound to) is deleted so the
        campaign is recomputed rather than failing forever.
        """
        if not self.contains(fingerprint):
            return None
        try:
            with open(self.path(fingerprint), "rb") as handle:
                document = handle.read()
            buffer = read_column_file(self.columns_path(fingerprint))
            study = study_from_columns(buffer, document)
        except (OSError, ValueError, KeyError, TypeError, AnalysisError):
            self.delete(fingerprint)
            return None
        _count_read(len(document) + len(buffer))
        return study

    def read_bytes(self, fingerprint: str) -> Optional[bytes]:
        """One entry's stored bytes, unparsed; ``None`` when absent (the
        API's study endpoint sends these verbatim)."""
        try:
            with open(self.path(fingerprint), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        _count_read(len(data))
        return data

    def load_dict(self, fingerprint: str) -> Optional[dict]:
        """One entry's JSON document, parsed but not decoded into a
        :class:`~repro.core.study.StudyResult`; ``None`` when absent or
        unparseable."""
        path = self.path(fingerprint)
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- writing ----------------------------------------------------------------

    def _acquire_lock(self, fingerprint: str) -> Optional[int]:
        """Single-writer admission for one fingerprint.

        Returns the lock fd, or ``None`` when another writer published
        the entry while we waited (nothing left to do).
        """
        lock_path = self._lock_path(fingerprint)
        deadline = clock.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(
                    lock_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    0o644,
                )
                os.write(fd, str(os.getpid()).encode("ascii"))
                return fd
            except FileExistsError:
                pass
            except OSError as error:  # pragma: no cover - exotic fs
                if error.errno != errno.EEXIST:
                    raise
            if self.contains(fingerprint):
                # The racing writer finished: a record-identical
                # study is already published; adopt it.
                return None
            try:
                age = clock.wall() - os.path.getmtime(lock_path)
                if age > self.stale_lock_seconds:
                    os.unlink(lock_path)  # holder died; break the lock
                    continue
            except OSError:
                continue  # lock vanished between checks; retry
            if clock.monotonic() >= deadline:
                if self.contains(fingerprint):
                    return None
                raise TimeoutError(
                    f"timed out waiting for study-store lock on "
                    f"{fingerprint} ({lock_path})"
                )
            time.sleep(0.005)

    def store(self, study: StudyResult, fingerprint: str) -> str:
        """Publish one entry atomically; returns its path.

        Safe against concurrent writers of the same fingerprint (they
        serialize on the lockfile, and a late writer adopts the early
        writer's entry) and against readers (each file appears in one
        ``os.replace``, the column file before the document).
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self.path(fingerprint)
        lock_fd = self._acquire_lock(fingerprint)
        if lock_fd is None:
            _store_event("write_races")
            return path
        try:
            document = json.dumps(study_to_dict(study)).encode("utf-8")
            written = write_atomic(
                self.columns_path(fingerprint),
                study_to_columns(study, document),
            )
            written += write_atomic(path, document)
        finally:
            os.close(lock_fd)
            try:
                os.unlink(self._lock_path(fingerprint))
            except OSError:
                pass
        REGISTRY.counter(
            "repro_study_cache_write_bytes_total",
            "bytes written to the on-disk study store",
        ).inc(written)
        return path

    # -- maintenance ------------------------------------------------------------

    def delete(self, fingerprint: str) -> bool:
        """Drop one entry, document first; returns True when its
        document existed."""
        existed = _unlink(self.path(fingerprint))
        _unlink(self.columns_path(fingerprint))
        return existed

    def clear(self) -> List[str]:
        """Delete every entry and every orphaned column file; returns
        the removed documents' paths."""
        removed = [
            self.path(fingerprint) for fingerprint in self.fingerprints()
            if self.delete(fingerprint)
        ]
        if os.path.isdir(self.directory):
            for entry in os.listdir(self.directory):
                if entry.startswith(ENTRY_PREFIX) and entry.endswith(
                    COLUMNS_SUFFIX
                ):
                    _unlink(os.path.join(self.directory, entry))
        return removed


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def _store_event(kind: str) -> None:
    REGISTRY.counter(
        f"repro_study_cache_{kind}_total",
        f"study-store {kind.replace('_', ' ')}",
    ).inc()


def _count_read(size: int) -> None:
    REGISTRY.counter(
        "repro_study_cache_read_bytes_total",
        "bytes read from the on-disk study store",
    ).inc(size)
