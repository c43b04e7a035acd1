"""Hung-worker recovery: the ``unit_timeout`` reaper.

A stalling bench fault (``FaultSpec.hang_seconds``) makes a pool worker
go quiet instead of failing fast. The coordinator's deadline reaper
must declare the attempt dead, kill the stuck worker processes, charge
the unit a :class:`~repro.errors.WorkerTimeoutError`, and retry -- and
the retried campaign must still merge record-identical to a sequential
fault-free run, with every counter exact (the reaped attempt's metric
delta never merged).
"""

import os

import pytest

from repro.core.study import CharacterizationStudy
from repro.errors import ConfigurationError
from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.service import CampaignService
from repro.service.faults import FaultSpec

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
        unit_events = [
            e for e in service.telemetry.events if e.get("unit") == "C5/0"
        ]
        assert [e["kind"] for e in unit_events
                if e["event"] == "unit_fault"] == ["WorkerTimeoutError"]
        assert [e["event"] for e in unit_events].count("unit_finished") == 1
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

    def test_reaped_campaign_counts_each_unit_once(self, tiny_scale):
        """Exactly-once on a schedule that happens: the reaped attempt's
        metric delta never arrives, and its retry's arrives once, so the
        study's probe and command counters equal a fault-free inline
        run's."""

        def spend(outcome):
            counters = outcome.study.provenance["counters"]
            return {
                name: value for name, value in counters.items()
                if name.startswith("repro_probes_")
                or name == "repro_commands_issued_total"
            }

        reaped = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=HangOneAttempt("C5/0"),
            unit_timeout=3.0,
        ).run()
        assert reaped.metrics.faults == {"WorkerTimeoutError": 1}
        inline = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
        ).run()
        assert spend(inline)["repro_commands_issued_total"] > 0
        assert spend(reaped) == spend(inline)

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
