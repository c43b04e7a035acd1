"""Engine names at the front ends: no request names a probe engine.

The fused kernel and the command oracle produce the same study, so the
engine is chosen only at ``TestContext``/``CharacterizationStudy`` (the
differential tests and benchmarks). The service CLI has no engine flag
(exit 2, argparse), ``POST /v1/jobs`` refuses the field with a 400 that
names it, and state persisted by older versions -- a job record naming
an engine, a checkpoint fingerprinted with one -- is adopted or
refused cleanly, never with a traceback.
"""

import hashlib
import json
import os

import pytest

from repro.api import ApiServer
from repro.api.jobs import run_job
from repro.core.probe import ENGINE_NAMES
from repro.core.scale import StudyScale
from repro.core.serialization import SCHEMA_VERSION, _scale_to_dict
from repro.harness.cache import study_fingerprint
from repro.service.__main__ import main as service_main
from repro.service.checkpoint import (
    MANIFEST_NAME,
    SERVICE_SCHEMA_VERSION,
    campaign_dir,
)

RETIRED = ("batch", "fast")
PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


@pytest.mark.parametrize("retired", RETIRED + ENGINE_NAMES)
def test_service_exits_2_on_retired_engine(retired, capsys):
    # Any engine name: argparse no longer knows the flag.
    with pytest.raises(SystemExit) as exited:
        service_main(["--modules", "C5", "--scale", "tiny",
                      "--no-checkpoint", "--probe-engine", retired])
    assert exited.value.code == 2
    assert "unrecognized arguments: --probe-engine" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("retired", RETIRED + ENGINE_NAMES)
def test_submission_is_400(tmp_path, retired):
    # Any engine name, supported ones included, names the field.
    api = ApiServer(str(tmp_path / "store"), str(tmp_path / "state"))
    status, document = api.handle(
        "POST", "/v1/jobs", {}, dict(PAYLOAD, probe_engine=retired),
        "default",
    )
    assert status == 400
    assert "probe_engine" in document["error"]
    assert retired in document["error"]


def test_adopted_job_naming_a_retired_engine_completes(tmp_path):
    store_dir = str(tmp_path / "store")
    state_dir = str(tmp_path / "state")
    first = ApiServer(store_dir, state_dir)  # workers never started
    _, document = first.handle("POST", "/v1/jobs", {}, dict(PAYLOAD), "t")
    job_id = document["job"]["id"]
    # Rewrite the persisted spec as an older server left it.
    path = first.state.path(job_id)
    with open(path) as handle:
        persisted = json.load(handle)
    persisted["spec"]["probe_engine"] = "batch"
    with open(path, "w") as handle:
        json.dump(persisted, handle)

    second = ApiServer(store_dir, state_dir)
    assert second._recovered == 1
    job = second.queue.get(job_id)
    run_job(job, second.store, None)
    assert job.state == "completed", job.error
    assert job.fingerprint == study_fingerprint(
        ("rowhammer",), ("C5",), StudyScale.tiny(), 0
    )
    assert second.store.contains(job.fingerprint)


def _engine_keyed_fingerprint(scale, engine):
    """A campaign fingerprint as versions that hashed the engine into
    it computed it."""
    payload = {
        "service_schema": SERVICE_SCHEMA_VERSION,
        "study_schema": SCHEMA_VERSION,
        "tests": ["rowhammer"],
        "modules": ["C5"],
        "scale": _scale_to_dict(scale),
        "seed": 0,
        "probe_engine": engine,
        "chunks_per_module": None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def test_resuming_a_retired_engine_checkpoint_fails_typed(tmp_path, capsys):
    base = str(tmp_path / "checkpoints")
    legacy = _engine_keyed_fingerprint(StudyScale.tiny(), "batch")
    directory = campaign_dir(base, legacy)
    os.makedirs(directory)
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump({"fingerprint": legacy, "probe_engine": "batch"}, handle)
    # The engine-free fingerprint names another directory: the legacy
    # checkpoint is never merged, and --resume finds nothing to resume.
    code = service_main([
        "--modules", "C5", "--tests", "rowhammer", "--scale", "tiny",
        "--quiet", "--checkpoint-dir", base, "--resume",
    ])
    assert code == 2
    assert "cannot resume" in capsys.readouterr().err
