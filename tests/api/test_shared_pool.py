"""The API server's one campaign worker pool, shared by every pooled job.

The server forks its workers once, before it starts any thread, and
shuts them down with itself. Jobs sharing the pool must not hurt each
other: a job whose unit hangs gets the pool replaced, and its neighbour's
units that die with the old pool restart uncharged; a cancelled job
abandons only its own units.
"""

import ast
import functools
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.api.jobs as api_jobs
import repro.api.server as api_server
from repro.api import ApiClient, BackgroundServer
from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.service import CampaignService
from repro.service import orchestrator
from repro.service.faults import FaultSpec
from repro.service.pool import WorkerPool

# The subprocess does not inherit pytest's `pythonpath` ini option.
_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Jobs with a seed at or above this run every unit this much slower,
#: so their units are surely in flight while the other job acts.
SLOW_SEEDS_FROM = 4000
SLOW_SECONDS = 1.5

#: The job with this seed hangs on its first unit's first attempt.
HUNG_SEED = 77

REPLACEMENTS = "repro_service_pool_replacements_total"

_execute_unit = orchestrator._execute_unit


def _slow_execute_unit(job):
    """``_execute_unit`` that sleeps first for slow seeds (module-level,
    so it pickles into the pool workers by reference)."""
    if job[4] >= SLOW_SEEDS_FROM:
        time.sleep(SLOW_SECONDS)
    return _execute_unit(job)


class _HangOnce:
    """Fault plan stalling one attempt (duck-typed FaultPlan)."""

    def spec_for(self, unit_id, attempt):
        if (unit_id, attempt) == ("C5/0", 0):
            return FaultSpec("power_droop", after=1, hang_seconds=120.0)
        return None


class _HangingService(CampaignService):
    """What the server runs: the hung seed's campaign gets the plan."""

    def __init__(self, *args, **kwargs):
        if kwargs.get("seed") == HUNG_SEED:
            kwargs["fault_plan"] = _HangOnce()
        super().__init__(*args, **kwargs)


def _payload(seed, **extra):
    return dict({
        "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
        "seed": seed, "workers": 2,
    }, **extra)


def _wait_for_event(server, job_id, event, timeout=60.0):
    deadline = clock.monotonic() + timeout
    while not any(record["event"] == event
                  for record in server.api.job_events(job_id)):
        assert clock.monotonic() < deadline, f"{job_id}: no {event}"
        time.sleep(0.01)


def _direct_study(seed):
    study = CharacterizationStudy(scale=StudyScale.tiny(), seed=seed).run(
        modules=["C5"], tests=("rowhammer",)
    )
    document = study_to_dict(study)
    document.pop("provenance", None)
    return document


def _served_study(client, job):
    document = client.get_study(job["fingerprint"])
    document.pop("provenance", None)
    return document


def _replacements():
    return REGISTRY.counter_values().get(REPLACEMENTS, 0.0)


@pytest.fixture
def slow_units(monkeypatch):
    monkeypatch.setattr(orchestrator, "_execute_unit", _slow_execute_unit)
    # A fixed pool size, so both jobs hold workers at once on any host.
    monkeypatch.setattr(api_server, "WorkerPool",
                        functools.partial(WorkerPool, 4))


class TestSharedPoolRules:
    def test_hung_job_replaces_the_pool_without_charging_its_neighbour(
        self, tmp_path, monkeypatch, slow_units
    ):
        monkeypatch.setattr(api_jobs, "CampaignService", _HangingService)
        replaced = _replacements()
        with BackgroundServer(str(tmp_path / "store"),
                              str(tmp_path / "state"), workers=2) as server:
            client = ApiClient(port=server.port)
            hung = client.submit_job(_payload(HUNG_SEED, unit_timeout=1.0))
            _wait_for_event(server, hung["id"], "unit_started")
            innocent = client.submit_job(_payload(SLOW_SEEDS_FROM))
            hung = client.wait_job(hung["id"], timeout=120.0)
            innocent = client.wait_job(innocent["id"], timeout=120.0)
            events = server.api.job_events(innocent["id"])
            served = _served_study(client, innocent)
        assert hung["state"] == innocent["state"] == "completed"
        assert hung["metrics"]["faults"].get("WorkerTimeoutError", 0) >= 1
        assert _replacements() >= replaced + 1
        # The innocent job's units died with the replaced pool and ran
        # again at the same attempt: restarted, never charged.
        assert innocent["metrics"]["faults"] == {}
        assert innocent["metrics"]["retries"] == 0
        restarts = [e for e in events if e["event"] == "unit_restarted"]
        assert restarts
        assert {e["reason"] for e in restarts} == {"pool replaced"}
        assert {e["attempt"] for e in restarts} == {0}
        assert not [e for e in events if e["event"] == "unit_fault"]
        assert served == _direct_study(SLOW_SEEDS_FROM)

    def test_cancelled_job_leaves_the_other_jobs_units_running(
        self, tmp_path, slow_units, worker_pids
    ):
        replaced = _replacements()
        with BackgroundServer(str(tmp_path / "store"),
                              str(tmp_path / "state"), workers=2) as server:
            client = ApiClient(port=server.port)
            workers = worker_pids(server.api.pool)
            doomed = client.submit_job(_payload(SLOW_SEEDS_FROM, chunks=4))
            other = client.submit_job(_payload(SLOW_SEEDS_FROM + 1))
            _wait_for_event(server, doomed["id"], "unit_started")
            _wait_for_event(server, other["id"], "unit_started")
            client.cancel_job(doomed["id"])
            doomed = client.wait_job(doomed["id"], timeout=120.0)
            other = client.wait_job(other["id"], timeout=120.0)
            events = server.api.job_events(other["id"])
            served = _served_study(client, other)
            # The cancelled job never tore the shared pool down.
            assert worker_pids(server.api.pool) == workers
        assert doomed["state"] == "cancelled"
        assert other["state"] == "completed"
        assert _replacements() == replaced
        assert not [e for e in events
                    if e["event"] in ("unit_restarted", "unit_fault")]
        assert other["metrics"]["units_completed"] == (
            other["metrics"]["units_planned"]
        )
        assert served == _direct_study(SLOW_SEEDS_FROM + 1)


def _alive(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _python(args, *paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_STUDY_CACHE_DIR", None)
    completed = subprocess.run(
        [sys.executable] + args + [str(path) for path in paths],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert completed.returncode == 0, (
        completed.stdout[-2000:] + completed.stderr[-2000:]
    )
    return completed


#: Records the Python thread count at every fork of this process.
#: ``always`` shows Python 3.12+'s fork-with-threads DeprecationWarning
#: on stderr (CPython reports it but never raises it, even under
#: ``-W error``).
_FORK_SCRIPT = """
import os
import sys
import threading

forks = []
os.register_at_fork(before=lambda: forks.append(threading.active_count()))

from repro.api import ApiClient, BackgroundServer

with BackgroundServer(sys.argv[1], sys.argv[2], workers=2) as server:
    client = ApiClient(port=server.port)
    for seed in (0, 1):
        job = client.submit_job({
            "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
            "seed": seed, "workers": 2,
        })
        job = client.wait_job(job["id"])
        assert job["state"] == "completed", job
        assert job["cache"] == "miss", job
print("threads at each fork:", forks)
"""

#: Replaces the server's pool the way the hung-worker reaper does (one
#: overdue unit, reaped by a wait through the pool), while the server's
#: threads run, and records the thread count at every fork.
_REPLACE_SCRIPT = """
import os
import sys
import threading
import time

forks = []
os.register_at_fork(before=lambda: forks.append(threading.active_count()))

from repro.api import ApiClient, BackgroundServer

with BackgroundServer(sys.argv[1], sys.argv[2], workers=2) as server:
    pool = server.api.pool
    started = len(forks)
    hung = pool.submit(time.sleep, 60.0, block=True, timeout=0.1)
    assert pool.wait([hung]) == {hung}
    assert pool.cause(hung) == "timeout"
    client = ApiClient(port=server.port)
    job = client.submit_job({
        "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
        "seed": 0, "workers": 2,
    })
    job = client.wait_job(job["id"])
    assert job["state"] == "completed", job
print("threads at each fork:", forks[:started], forks[started:])
"""

#: The benchmark's set-up probe: build, start and stop the server.
_SETUP_SCRIPT = """
import sys

from repro.api import BackgroundServer

server = BackgroundServer(sys.argv[1], sys.argv[2])
server.__enter__()
print("workers:", *server.api.pool._executor._processes)
server.__exit__(None, None, None)
"""


class TestForkSafety:
    def test_pool_forks_before_any_thread(self, tmp_path):
        completed = _python(
            ["-W", "always:This process:DeprecationWarning", "-c",
             _FORK_SCRIPT], tmp_path / "store", tmp_path / "state",
        )
        assert "multi-threaded" not in completed.stderr, completed.stderr
        line = completed.stdout.strip().splitlines()[-1]
        counts = line.split(":", 1)[1].strip()
        # Every fork happened while the process had one thread.
        assert counts.startswith("[") and counts != "[]", line
        assert set(counts.strip("[]").split(", ")) == {"1"}, line

    def test_pool_replacement_forks_while_threads_run(self, tmp_path):
        """A known limitation, pinned so that it stays visible: the
        first workers fork single-threaded, but a replacement (after a
        hang or a crash) forks from a process whose server and job
        threads are running. A replacement path that does not fork
        from threads should turn the second assertion around."""
        stdout = _python(["-c", _REPLACE_SCRIPT],
                         tmp_path / "store", tmp_path / "state").stdout
        line = stdout.strip().splitlines()[-1]
        first, replaced = ast.literal_eval(
            "(" + line.split(":", 1)[1].strip().replace("] [", "], [") + ")"
        )
        workers = os.cpu_count() or 1
        assert first == [1] * workers, line
        assert len(replaced) == workers, line
        assert min(replaced) > 1, line

    def test_no_worker_outlives_the_server(self, tmp_path, worker_pids):
        with BackgroundServer(str(tmp_path / "store"),
                              str(tmp_path / "state")) as server:
            workers = worker_pids(server.api.pool)
            assert len(workers) == (os.cpu_count() or 1)
            assert all(_alive(pid) for pid in workers)
        assert multiprocessing.active_children() == []
        assert not any(_alive(pid) for pid in workers)

    def test_setup_style_start_and_stop_leaves_no_workers(self, tmp_path):
        stdout = _python(["-c", _SETUP_SCRIPT],
                         tmp_path / "store", tmp_path / "state").stdout
        workers = [int(pid) for pid in stdout.split("workers:")[1].split()]
        assert workers
        assert not any(_alive(pid) for pid in workers)
