"""Retired probe-engine names (``batch``, ``fast``) are rejected everywhere.

Only the fused kernel and the command oracle are selectable. Every
front end turns a retired name into a typed
:class:`~repro.errors.ConfigurationError` and its documented outcome --
exit code 2 on the runner and the service CLI, HTTP 400 at submission
-- and state persisted before the retirement (a queued job, a
checkpoint) fails typed instead of with a traceback.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import ApiServer
from repro.api.jobs import run_job
from repro.core.scale import StudyScale
from repro.errors import ConfigurationError
from repro.service.__main__ import main as service_main
from repro.service.checkpoint import (
    MANIFEST_NAME,
    campaign_dir,
    campaign_fingerprint,
)
from repro.service.orchestrator import CampaignService

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
RETIRED = ("batch", "fast")
PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


def run_cli(argv, engine=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_PROBE_ENGINE", None)
    if engine is not None:
        env["REPRO_PROBE_ENGINE"] = engine
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        cwd=REPO, timeout=120,
    )


@pytest.mark.parametrize("retired", RETIRED)
def test_runner_exits_2_on_retired_env_engine(retired):
    result = run_cli(["-m", "repro.harness.runner", "table2", "--no-cache"],
                     engine=retired)
    assert result.returncode == 2, result.stderr
    assert retired in result.stderr


@pytest.mark.parametrize("retired", RETIRED)
def test_service_exits_2_on_retired_engine(retired):
    flag = run_cli(["-m", "repro.service", "--modules", "C5", "--scale",
                    "tiny", "--no-checkpoint", "--probe-engine", retired])
    assert flag.returncode == 2, flag.stderr
    env = run_cli(["-m", "repro.service", "--modules", "C5", "--scale",
                   "tiny", "--no-checkpoint", "--quiet"], engine=retired)
    assert env.returncode == 2, env.stderr
    assert retired in env.stderr


@pytest.mark.parametrize("retired", RETIRED)
def test_submission_is_400(tmp_path, retired):
    api = ApiServer(str(tmp_path / "store"), str(tmp_path / "state"))
    status, document = api.handle(
        "POST", "/v1/jobs", {}, dict(PAYLOAD, probe_engine=retired),
        "default",
    )
    assert status == 400
    assert retired in document["error"]


def test_adopted_job_naming_a_retired_engine_fails_typed(tmp_path):
    store_dir = str(tmp_path / "store")
    state_dir = str(tmp_path / "state")
    first = ApiServer(store_dir, state_dir)  # workers never started
    _, document = first.handle("POST", "/v1/jobs", {}, dict(PAYLOAD), "t")
    job_id = document["job"]["id"]
    # Rewrite the persisted spec as a pre-retirement server left it.
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
    assert job.state == "failed"
    assert "unknown probe engine 'batch'" in job.error
    assert not second.store.contains(job.fingerprint)


def test_resuming_a_retired_engine_checkpoint_fails_typed(tmp_path):
    base = str(tmp_path / "checkpoints")
    scale = StudyScale.tiny()
    retired_fp = campaign_fingerprint(
        ("rowhammer",), ("C5",), scale, 0, "batch", None
    )
    directory = campaign_dir(base, retired_fp)
    os.makedirs(directory)
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump({"fingerprint": retired_fp, "probe_engine": "batch"},
                  handle)
    with pytest.raises(ConfigurationError, match="batch"):
        CampaignService(modules=["C5"], tests=("rowhammer",), scale=scale,
                        probe_engine="batch", checkpoint_base=base)
    # The supported engines never pick the retired checkpoint up.
    code = service_main([
        "--modules", "C5", "--tests", "rowhammer", "--scale", "tiny",
        "--quiet", "--checkpoint-dir", base, "--resume",
        "--probe-engine", "fused",
    ])
    assert code == 2
