"""The campaign worker pool: long-lived workers start every unit clean,
an abandoned hung unit does not keep its worker, and a crashed worker
is a fault charged to the units in flight.

Pool workers outlive the campaign that first used them, so per-process
observability state -- the flight-recorder ring and its dump directory,
the tracer -- must be reset per unit, or one campaign's dump would carry
another's spans or land in another's directory.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.obs import clock
from repro.obs import context as obs_context
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.service import CampaignService, FaultPlan
from repro.service import orchestrator
from repro.service.faults import FaultSpec
from repro.service.pool import WorkerPool
from repro.service.telemetry import TelemetryLog

TESTS = ("rowhammer",)

REPLACEMENTS = "repro_service_pool_replacements_total"

#: The first unit of a campaign with this seed kills its worker.
CRASH_ONCE_SEED = 31
#: Campaigns with this seed kill their worker on every attempt.
CRASH_ALWAYS_SEED = 32
#: Campaigns with this seed run every unit this much slower.
SLOW_SEED = 4000
SLOW_SECONDS = 1.5

#: Directory of "already crashed once" markers, shared with the workers
#: (set before the pool forks).
_CRASH_MARKS = None

_execute_unit = orchestrator._execute_unit


def _crashing_execute_unit(job):
    """``_execute_unit`` whose worker dies (``os._exit``) for the crash
    seeds; module-level, so it pickles into the workers by reference."""
    seed = job[4]
    if seed == CRASH_ALWAYS_SEED:
        os._exit(1)
    if seed == CRASH_ONCE_SEED:
        mark = os.path.join(_CRASH_MARKS, "crashed")
        if not os.path.exists(mark):
            open(mark, "w").close()
            os._exit(1)
    if seed == SLOW_SEED:
        time.sleep(SLOW_SECONDS)
    return _execute_unit(job)


def _replacements():
    return REGISTRY.counter_values().get(REPLACEMENTS, 0.0)


def _document(study):
    document = study_to_dict(study)
    document.pop("provenance", None)
    return document


def _direct(seed):
    return _document(CharacterizationStudy(
        scale=StudyScale.tiny(), seed=seed,
    ).run(modules=["C5"], tests=TESTS))


def _alive(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def traced():
    """The process tracer on (worker spans reach the recorder ring)."""
    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        TRACER.reset()
        obs_context.clear_fragments()


def _worker_dumps(directory):
    """The dumps pool workers (not this coordinator) wrote there."""
    if not os.path.isdir(directory):
        return []
    dumps = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as handle:
            document = json.load(handle)
        if document["pid"] != os.getpid():
            dumps.append(document)
    return dumps


def _campaign(module, seed, pool, scale, unit, flight_dir=None):
    """A pooled campaign whose ``unit`` faults on its first attempt."""
    return CampaignService(
        [module], tests=TESTS, scale=scale, seed=seed, max_workers=2,
        pool=pool, flight_dir=flight_dir,
        fault_plan=FaultPlan.script({(unit, 0): "power_droop"}),
    ).run()


class TestWorkerStatePerUnit:
    def test_each_unit_dumps_only_its_own_story_to_its_own_dir(
        self, tiny_scale, tmp_path, traced, worker_pids
    ):
        first_dir = str(tmp_path / "first")
        second_dir = str(tmp_path / "second")
        # One worker: every unit of both campaigns runs in one process.
        with WorkerPool(1) as pool:
            worker = worker_pids(pool)
            _campaign("C5", 0, pool, tiny_scale, "C5/1", first_dir)
            _campaign("B3", 0, pool, tiny_scale, "B3/1", second_dir)
            first_count = len(_worker_dumps(first_dir))
            # No flight_dir: the worker must not dump into the last one.
            _campaign("C5", 1, pool, tiny_scale, "C5/1")
            assert worker_pids(pool) == worker
        first = _worker_dumps(first_dir)
        second = _worker_dumps(second_dir)
        assert len(first) == first_count == 1
        assert len(second) == 1
        assert {dump["pid"] for dump in first + second} == set(worker)
        # The second campaign's dump holds the faulting unit's own
        # entries only: nothing of the first campaign's C5 units, and
        # none of the spans of its own earlier unit B3/0.
        entries = second[0]["entries"]
        assert "C5" not in json.dumps(entries)
        assert not [entry for entry in entries
                    if entry["kind"] == "span"
                    and entry["payload"]["name"] == "work-unit"]
        assert entries[-1]["kind"] == "fault"


class _Cancelled(Exception):
    """What the API's cancel hook raises at a unit boundary."""


def _cancel(unit_id, done):
    raise _Cancelled(unit_id)


class _HangFirstUnit:
    """Fault plan stalling C5/0's first attempt (duck-typed FaultPlan)."""

    def spec_for(self, unit_id, attempt):
        if (unit_id, attempt) == ("C5/0", 0):
            return FaultSpec("power_droop", after=1, hang_seconds=120.0)
        return None


class TestAbandonedUnits:
    def test_an_overdue_abandoned_unit_frees_the_only_worker(self):
        replaced = _replacements()
        with WorkerPool(1) as pool:
            future, generation = pool.submit(time.sleep, 120.0, block=True)
            while not future.running():  # else abandoning cancels it
                time.sleep(0.01)
            pool.abandon(future, clock.monotonic() + 0.3, generation)
            # A later unit waits for the abandoned one's deadline, then
            # gets a fresh worker instead of waiting on it for good.
            deadline = clock.monotonic() + 30.0
            while (submitted := pool.submit(abs, -3, block=False)) is None:
                assert clock.monotonic() < deadline, "the worker never freed"
                time.sleep(0.05)
            assert submitted[0].result(timeout=30.0) == 3
        assert _replacements() == replaced + 1

    def test_cancelled_campaigns_hung_unit_is_reaped_for_the_next(
        self, tiny_scale, worker_pids
    ):
        replaced = _replacements()
        timeout = 1.0
        with WorkerPool(2) as pool:
            workers = worker_pids(pool)
            hung = CampaignService(
                ["C5"], tests=TESTS, scale=tiny_scale, seed=5,
                chunks_per_module=2, max_workers=2, pool=pool,
                unit_timeout=timeout,
                fault_plan=_HangFirstUnit(),
            )
            # C5/1 finishes while C5/0 hangs; the cancel hook then
            # abandons C5/0 with its deadline.
            with pytest.raises(_Cancelled):
                hung.run(on_unit_done=_cancel)
            assert _replacements() == replaced
            time.sleep(timeout + 0.2)
            later = CampaignService(
                ["C5"], tests=TESTS, scale=tiny_scale, seed=1,
                max_workers=2, pool=pool,
            ).run()
            assert _replacements() == replaced + 1
            assert not any(_alive(pid) for pid in workers)
        assert _document(later.study) == _direct(1)


@pytest.fixture
def crashing_units(monkeypatch, tmp_path):
    """Install the crashing unit entry point before any pool forks."""
    monkeypatch.setattr(orchestrator, "_execute_unit",
                        _crashing_execute_unit)
    monkeypatch.setattr(sys.modules[__name__], "_CRASH_MARKS",
                        str(tmp_path))


class TestCrashedWorkers:
    def test_crash_charges_every_unit_in_flight_and_both_jobs_finish(
        self, tiny_scale, crashing_units
    ):
        replaced = _replacements()
        outcomes = {}
        telemetry = TelemetryLog()

        def run_slow():
            outcomes["slow"] = CampaignService(
                ["C5"], tests=TESTS, scale=tiny_scale, seed=SLOW_SEED,
                max_workers=2, pool=pool, telemetry=telemetry,
            ).run()

        with WorkerPool(3) as pool:
            neighbour = threading.Thread(target=run_slow)
            neighbour.start()
            deadline = clock.monotonic() + 30.0
            while sum(1 for event in telemetry.events
                      if event["event"] == "unit_started") < 2:
                assert clock.monotonic() < deadline
                time.sleep(0.01)
            # The neighbour's two units sleep in their workers while
            # this campaign's first unit kills the third worker.
            crasher = CampaignService(
                ["C5"], tests=TESTS, scale=tiny_scale,
                seed=CRASH_ONCE_SEED, max_workers=2, pool=pool,
            ).run()
            neighbour.join(timeout=60.0)
        slow = outcomes["slow"]
        assert _replacements() == replaced + 1
        # Nobody can tell which in-flight unit killed the worker, so the
        # crash is a fault for each: retried, never a campaign failure.
        assert crasher.metrics.faults == {"WorkerCrashError": 1}
        assert slow.metrics.faults == {"WorkerCrashError": 2}
        assert not crasher.metrics.quarantined
        assert not slow.metrics.quarantined
        assert _document(crasher.study) == _direct(CRASH_ONCE_SEED)
        assert _document(slow.study) == _direct(SLOW_SEED)

    def test_unit_that_always_crashes_quarantines_its_module(
        self, tiny_scale, crashing_units
    ):
        with WorkerPool(2) as pool:
            outcome = CampaignService(
                ["C5"], tests=TESTS, scale=tiny_scale,
                seed=CRASH_ALWAYS_SEED, max_workers=2, max_attempts=2,
                pool=pool,
            ).run()
        assert set(outcome.metrics.quarantined) == {"C5"}
        assert outcome.metrics.faults["WorkerCrashError"] >= 2
        assert "C5" not in outcome.study.modules
