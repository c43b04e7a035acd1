"""Hung-worker recovery: the ``unit_timeout`` reaper and outcome dedup.

A stalling bench fault (``FaultSpec.hang_seconds``) makes a pool worker
go quiet instead of failing fast. The coordinator's deadline reaper
must declare the attempt dead, kill the stuck worker processes, charge
the unit a :class:`~repro.errors.WorkerTimeoutError`, and retry -- and
the retried campaign must still merge record-identical to a sequential
fault-free run, with every counter exact (no double counting from a
late duplicate outcome).
"""

import os

import pytest

from repro.core.study import CharacterizationStudy
from repro.errors import ConfigurationError
from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.service import CampaignService
from repro.service.faults import FaultSpec
from repro.service.jobs import plan_units
from repro.service.orchestrator import _RunState, _execute_unit
from repro.service.telemetry import CampaignMetrics, UnitMetrics

TESTS = ("rowhammer",)

#: Far longer than the campaign could ever take: the test only passes
#: because the reaper fires, never because the hang runs its course.
HANG_SECONDS = 120.0


class HangOneAttempt:
    """Fault plan whose scripted attempt stalls the bench instead of
    failing fast (duck-typed stand-in for FaultPlan)."""

    def __init__(self, unit_id: str, attempt: int = 0):
        self.unit_id = unit_id
        self.attempt = attempt

    def spec_for(self, unit_id, attempt):
        if (unit_id, attempt) == (self.unit_id, self.attempt):
            return FaultSpec(
                "power_droop", after=1, hang_seconds=HANG_SECONDS
            )
        return None


class TestUnitTimeoutValidation:
    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_rejects_non_positive_timeout(self, tiny_scale, timeout):
        with pytest.raises(ConfigurationError):
            CampaignService(
                modules=["C5"], scale=tiny_scale, unit_timeout=timeout
            )

    def test_none_disables_reaper(self, tiny_scale):
        service = CampaignService(modules=["C5"], scale=tiny_scale)
        assert service.unit_timeout is None


class TestHungWorkerReaping:
    def test_hung_attempt_is_reaped_and_retried(self, tiny_scale):
        plan = HangOneAttempt("C5/0", attempt=0)
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=plan, unit_timeout=3.0,
        )
        started = clock.monotonic()
        outcome = service.run()
        wall = clock.monotonic() - started
        # The reaper ended the hang; the campaign never waited it out.
        assert wall < HANG_SECONDS / 2
        assert outcome.metrics.faults == {"WorkerTimeoutError": 1}
        assert outcome.metrics.retries == 1
        assert outcome.metrics.units_completed == (
            outcome.metrics.units_planned
        )
        assert not outcome.metrics.quarantined
        record = outcome.units["C5/0"]
        assert record.status == "completed"
        assert record.faults == ["WorkerTimeoutError"]
        events = [e["event"] for e in service.telemetry.events]
        assert "pool_reaped" in events
        # The retry rebuilt its bench from the campaign seed: the study
        # is record-identical to a sequential fault-free run.
        reference = CharacterizationStudy(scale=tiny_scale, seed=0).run(
            modules=["C5"], tests=TESTS
        )
        merged = outcome.study.modules["C5"]
        expected = reference.modules["C5"]
        assert merged.vppmin == expected.vppmin
        assert merged.rowhammer == expected.rowhammer

    def test_reap_counts_in_registry(self, tiny_scale):
        before = REGISTRY.counter_values().get(
            "repro_service_worker_timeouts_total", 0.0
        )
        CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=HangOneAttempt("C5/0"),
            unit_timeout=3.0,
        ).run()
        after = REGISTRY.counter_values().get(
            "repro_service_worker_timeouts_total", 0.0
        )
        assert after == before + 1


class TestReaperMergeHardening:
    """Regression: pool workers observe the labeled
    ``repro_service_unit_run_seconds{module}`` histogram inside their
    delta window, and the coordinator never registers that family
    itself -- so a reaped-and-retried campaign exercises
    ``merge_snapshot``'s create-on-merge path for labeled histograms
    through the real timeout machinery."""

    def test_worker_labeled_histogram_survives_the_reap_path(
        self, tiny_scale
    ):
        family = REGISTRY.histogram(
            "repro_service_unit_run_seconds",
            labels=("module",),
        )
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=HangOneAttempt("C5/0"),
            unit_timeout=3.0,
        )
        before = family.labels(module="C5").count
        outcome = service.run()
        completed = outcome.metrics.units_completed
        assert completed == outcome.metrics.units_planned
        # One delta per completed unit arrived (the reaped attempt's
        # never did), and merging created/extended the labeled series.
        assert family.labels(module="C5").count == before + completed
        assert family.labels(module="C5").sum > 0

    def test_reap_and_hang_paths_dump_the_flight_recorder(
        self, tiny_scale, tmp_path
    ):
        flight_dir = str(tmp_path / "flightrec")
        CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=HangOneAttempt("C5/0"),
            unit_timeout=3.0, flight_dir=flight_dir,
        ).run()
        names = sorted(os.listdir(flight_dir))
        reasons = {name.rsplit("-", 1)[-1] for name in names}
        # The hung worker flushed before going quiet; the coordinator
        # flushed when the reaper declared the attempt dead.
        assert "hang_injected.json" in reasons
        assert "pool_reaped.json" in reasons
    def _state(self, units):
        return _RunState(
            units=units, pending=list(units), completed={},
            metrics=CampaignMetrics(units_planned=len(units)),
            unit_metrics={
                u.unit_id: UnitMetrics(unit_id=u.unit_id, module=u.module)
                for u in units
            },
            on_unit_done=None, store=None,
        )

    def test_duplicate_outcome_dropped_whole(self, tiny_scale):
        """A late duplicate outcome neither re-finishes the unit nor
        re-merges its metric delta -- counters stay exact."""
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0
        )
        units = plan_units(["C5"], tiny_scale, TESTS, None)
        unit = units[0]
        result, wall, delta, _ = _execute_unit(service._job(unit, 0))
        assert delta["counters"], "the attempt must have moved counters"
        state = self._state(units)
        assert service._deliver_result(
            state, unit, 0, result, wall, delta
        ) is True
        first = REGISTRY.counter_values()
        assert service._deliver_result(
            state, unit, 1, result, wall, delta
        ) is False
        second = REGISTRY.counter_values()
        moved = {
            name: value - first.get(name, 0.0)
            for name, value in second.items()
            if value != first.get(name, 0.0)
        }
        assert moved == {"repro_service_duplicate_results_total": 1.0}
        assert state.metrics.units_completed == 1
        assert state.metrics.duplicates_dropped == 1
        events = [e["event"] for e in service.telemetry.events]
        assert events.count("unit_finished") == 1
        assert "unit_duplicate_dropped" in events

    def test_requeued_attempt_merges_delta_once(self, tiny_scale):
        """A restarted (innocent) unit whose first outcome never arrived
        still merges exactly one delta."""
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0
        )
        units = plan_units(["C5"], tiny_scale, TESTS, None)
        unit = units[0]
        result, wall, delta, _ = _execute_unit(service._job(unit, 0))
        state = self._state(units)
        # Simulate the reap path: the delta was merged for attempt 0,
        # but the outcome never surfaced (worker killed mid-return).
        REGISTRY.merge_snapshot(delta)
        state.merged_units.add(unit.unit_id)
        before = REGISTRY.counter_values()
        assert service._deliver_result(
            state, unit, 1, result, wall, delta
        ) is True
        after = REGISTRY.counter_values()
        # Delivery completed the unit without re-merging the delta.
        assert state.metrics.units_completed == 1
        for name in delta.get("counters", {}):
            assert after.get(name) == before.get(name)
