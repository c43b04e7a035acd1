"""On-disk checkpoints for resumable campaigns.

Layout of a checkpoint directory::

    <dir>/manifest.json                # campaign identity (fingerprint, request)
    <dir>/unit-<module>-<chunk>.cols   # the unit's results, a column file
    <dir>/unit-<module>-<chunk>.json   # the unit record: its commit marker

A unit is written as a study-store entry is, each file atomically
(:func:`repro.atomic.write_atomic`): first the column file of a
one-module study holding the unit's
:class:`~repro.core.results.ModuleResult`, bound by CRC-32 to the
record's bytes, then the record (ids, rows, tests, attempts, wall
clock; no results), which lets resume check the unit still matches the
plan. Results round-trip losslessly through the column file
(:func:`repro.core.serialization.study_from_columns`). A pair that is
incomplete, truncated or not bound to its record is dropped on resume,
and the unit re-runs.

The manifest records a *campaign fingerprint* -- a hash of the study
fingerprint, the chunking and the checkpoint layout version -- and
``--resume`` refuses to mix checkpoints from a different campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.atomic import write_atomic
from repro.core.results import ModuleResult
from repro.core.scale import StudyScale
from repro.core.serialization import (
    read_column_file,
    study_from_columns,
    study_to_columns,
)
from repro.core.study import StudyResult
from repro.errors import AnalysisError, ConfigurationError
from repro.harness.cache import study_fingerprint

#: Bumped when the checkpoint layout changes incompatibly (2: a unit's
#: results moved out of its record into a column file).
SERVICE_SCHEMA_VERSION = 2

#: Manifest filename inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"


def campaign_fingerprint(
    tests: Sequence[str],
    modules: Sequence[str],
    scale: StudyScale,
    seed: int,
    chunks_per_module: Optional[int],
    program: Optional[str] = None,
) -> str:
    """Content fingerprint of an orchestrated-campaign request.

    The study fingerprint (everything that can change the merged
    result) plus the chunking (the unit decomposition) and the
    checkpoint layout version, so checkpoints from a different request
    never get merged together.
    """
    canonical = json.dumps([
        SERVICE_SCHEMA_VERSION,
        study_fingerprint(tests, modules, scale, seed, program=program),
        chunks_per_module,
    ])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def campaign_dir(base: str, fingerprint: str) -> str:
    """The per-campaign checkpoint directory under a base directory."""
    return os.path.join(base, f"campaign-{fingerprint[:12]}")


class CheckpointStore:
    """Atomic, resumable persistence of completed work units."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- paths ------------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _unit_path(self, unit_id: str) -> str:
        safe = unit_id.replace("/", "-")
        return os.path.join(self.directory, f"unit-{safe}.json")

    # -- lifecycle --------------------------------------------------------------

    def begin(
        self, manifest: Dict[str, Any], resume: bool
    ) -> Dict[str, Tuple[Dict[str, Any], ModuleResult]]:
        """Prepare the directory for a campaign.

        Fresh start (``resume=False``): stale unit files and manifest
        are removed and the new manifest is written; returns ``{}``.

        Resume (``resume=True``): the stored manifest must exist and
        carry the same fingerprint (:class:`~repro.errors.
        ConfigurationError` otherwise); returns every completed unit's
        ``(record, result)`` keyed by unit id. A unit whose pair is
        incomplete or does not match is dropped and re-run.
        """
        manifest_path = self._manifest_path()
        if resume:
            if not os.path.isfile(manifest_path):
                raise ConfigurationError(
                    f"cannot resume: no manifest at {manifest_path}"
                )
            try:
                with open(manifest_path) as handle:
                    stored = json.load(handle)
            except (OSError, ValueError) as error:
                raise ConfigurationError(
                    f"cannot resume: unreadable manifest at "
                    f"{manifest_path}: {error}"
                ) from None
            if stored.get("fingerprint") != manifest["fingerprint"]:
                raise ConfigurationError(
                    f"checkpoint directory {self.directory} belongs to a "
                    f"different campaign (fingerprint "
                    f"{stored.get('fingerprint')!r} != "
                    f"{manifest['fingerprint']!r}); start fresh or point "
                    f"--checkpoint-dir elsewhere"
                )
            return self._load_units()
        # Fresh start: drop anything a previous campaign left behind.
        if os.path.isdir(self.directory):
            for entry in os.listdir(self.directory):
                if entry == MANIFEST_NAME or (
                    entry.startswith("unit-")
                    and entry.endswith((".json", ".cols"))
                ):
                    _unlink(os.path.join(self.directory, entry))
        write_atomic(manifest_path, json.dumps(manifest))
        return {}

    def write_unit(self, record: Dict[str, Any], study: StudyResult) -> str:
        """Atomically persist one completed unit: ``study`` (the unit's
        one-module results) as a column file bound to ``record``, then
        ``record``, the commit marker. Returns the record's path."""
        path = self._unit_path(record["unit_id"])
        document = json.dumps(record).encode("utf-8")
        write_atomic(
            _columns_path(path), study_to_columns(study, document)
        )
        write_atomic(path, document)
        return path

    def _load_units(self) -> Dict[str, Tuple[Dict[str, Any], ModuleResult]]:
        units: Dict[str, Tuple[Dict[str, Any], ModuleResult]] = {}
        if not os.path.isdir(self.directory):
            return units
        for entry in sorted(os.listdir(self.directory)):
            if not (entry.startswith("unit-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.directory, entry)
            try:
                with open(path, "rb") as handle:
                    document = handle.read()
                record = json.loads(document)
                study = study_from_columns(
                    read_column_file(_columns_path(path)), document
                )
                units[record["unit_id"]] = (
                    record, study.modules[record["module"]]
                )
            except (OSError, ValueError, KeyError, TypeError,
                    AnalysisError):
                # Torn, stale or mismatched pair: drop it; the unit re-runs.
                _unlink(path)
                _unlink(_columns_path(path))
        return units


def _columns_path(record_path: str) -> str:
    return os.path.splitext(record_path)[0] + ".cols"


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
