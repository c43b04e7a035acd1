"""Content-addressed study store with multi-process write safety.

The disk layer of the study cache (:mod:`repro.harness.cache`) and the
characterization API (:mod:`repro.api`) share this store: one directory
holding ``study-<fingerprint>.json`` entries, where the fingerprint is
the content hash of the campaign *request* (tests, modules, scale,
seed, program, schema version -- see
:func:`repro.harness.cache.study_fingerprint`). Because the request
determines the result bit-for-bit, two writers racing on the same
fingerprint are by construction writing identical bytes; the store only
has to guarantee that

* **readers never observe a torn entry** -- every publish goes through
  :func:`repro.atomic.write_atomic` (a temp file in the same directory,
  then ``os.replace``), and
* **writers do not waste work or collide on temp state** -- a per-
  fingerprint lockfile (``O_CREAT | O_EXCL``) admits a single writer;
  a second writer waits briefly and then simply adopts the published
  entry instead of re-serializing it.

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
import time
from typing import List, Optional

from repro.atomic import write_atomic
from repro.core.serialization import load_study, study_to_dict
from repro.core.study import StudyResult
from repro.errors import AnalysisError
from repro.obs import clock
from repro.obs.metrics import REGISTRY

#: Prefix/suffix of every store entry.
ENTRY_PREFIX = "study-"
ENTRY_SUFFIX = ".json"


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
        same fingerprint before giving up (seconds). Because entries
        are content-addressed, "giving up" normally means the other
        writer already published the identical entry.
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

    # -- addressing -------------------------------------------------------------

    def path(self, fingerprint: str) -> str:
        """Absolute path of a fingerprint's entry (existing or not)."""
        return os.path.join(self.directory, entry_name(fingerprint))

    def _lock_path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f".lock-{fingerprint}")

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
        """Load one entry; ``None`` when absent or corrupt.

        A corrupt entry (unparseable, schema mismatch, invalid
        provenance block) is unlinked so the campaign is recomputed
        rather than failing forever.
        """
        path = self.path(fingerprint)
        if not os.path.isfile(path):
            return None
        try:
            size = os.path.getsize(path)
            study = load_study(path)
        except (OSError, ValueError, KeyError, TypeError, AnalysisError):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        REGISTRY.counter(
            "repro_study_cache_read_bytes_total",
            "bytes read from the on-disk study store",
        ).inc(size)
        return study

    def read_bytes(self, fingerprint: str) -> Optional[bytes]:
        """One entry's stored bytes, unparsed; ``None`` when absent (the
        API's study endpoint sends these verbatim)."""
        try:
            with open(self.path(fingerprint), "rb") as handle:
                return handle.read()
        except OSError:
            return None

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
                # The racing writer finished: identical content is
                # already published; adopt it.
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
        writer's entry) and against readers (the entry appears in one
        ``os.replace``).
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self.path(fingerprint)
        lock_fd = self._acquire_lock(fingerprint)
        if lock_fd is None:
            _store_event("write_races")
            return path
        try:
            written = write_atomic(path, json.dumps(study_to_dict(study)))
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
        """Drop one entry; returns True when it existed."""
        try:
            os.unlink(self.path(fingerprint))
            return True
        except OSError:
            return False

    def clear(self) -> List[str]:
        """Delete every entry; returns the removed paths."""
        removed = []
        for fingerprint in self.fingerprints():
            path = self.path(fingerprint)
            if self.delete(fingerprint):
                removed.append(path)
        return removed


def _store_event(kind: str) -> None:
    REGISTRY.counter(
        f"repro_study_cache_{kind}_total",
        f"study-store {kind.replace('_', ' ')}",
    ).inc()
