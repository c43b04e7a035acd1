"""On-disk checkpoints for resumable campaigns.

Layout of a checkpoint directory::

    <dir>/manifest.json        # campaign identity (fingerprint, request)
    <dir>/unit-<module>-<chunk>.json   # one file per completed unit

Every file is published atomically (:func:`repro.atomic.write_atomic`:
a temp file in the same directory, then ``os.replace``), so a campaign
killed mid-write never leaves a half-written unit behind -- at worst
the unit is missing and is re-run on resume. Unit payloads embed the serialized
:class:`~repro.core.results.ModuleResult` part
(:func:`repro.core.serialization.module_result_to_dict`) plus the unit's
row set, so resume can verify a checkpoint still matches the plan.

The manifest records a *campaign fingerprint* -- a hash of the study
fingerprint, the chunking and the checkpoint layout version -- and
``--resume`` refuses to mix checkpoints from a different campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.atomic import write_atomic
from repro.core.scale import StudyScale
from repro.errors import ConfigurationError
from repro.harness.cache import study_fingerprint

#: Bumped when the checkpoint layout changes incompatibly.
SERVICE_SCHEMA_VERSION = 1

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
    ) -> Dict[str, Dict[str, Any]]:
        """Prepare the directory for a campaign.

        Fresh start (``resume=False``): stale unit files and manifest
        are removed and the new manifest is written; returns ``{}``.

        Resume (``resume=True``): the stored manifest must exist and
        carry the same fingerprint (:class:`~repro.errors.
        ConfigurationError` otherwise); returns the completed unit
        payloads keyed by unit id. Corrupt unit files are dropped and
        their units re-run.
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
                    entry.startswith("unit-") and entry.endswith(".json")
                ):
                    try:
                        os.unlink(os.path.join(self.directory, entry))
                    except OSError:
                        pass
        write_atomic(manifest_path, json.dumps(manifest))
        return {}

    def write_unit(self, payload: Dict[str, Any]) -> str:
        """Atomically persist one completed unit; returns the path."""
        path = self._unit_path(payload["unit_id"])
        write_atomic(path, json.dumps(payload))
        return path

    def _load_units(self) -> Dict[str, Dict[str, Any]]:
        units: Dict[str, Dict[str, Any]] = {}
        if not os.path.isdir(self.directory):
            return units
        for entry in sorted(os.listdir(self.directory)):
            if not (entry.startswith("unit-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.directory, entry)
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                unit_id = payload["unit_id"]
            except (OSError, ValueError, KeyError, TypeError):
                # Corrupt or stale: drop it; the unit is simply re-run.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            units[unit_id] = payload
        return units
