"""CampaignService: scheduling, retries, quarantine, checkpoint/resume.

The load-bearing property throughout: an orchestrated campaign --
retried, resumed, or pool-parallel -- merges to ModuleResults
record-identical to a plain sequential ``CharacterizationStudy.run``.
"""

import dataclasses

import pytest

from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.cell import CELL_VECTOR_GENERATIONS_METRIC
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.service import CampaignService, FaultPlan
from repro.service.checkpoint import MANIFEST_NAME

TESTS = ("rowhammer",)
#: One module per vendor (Samsung / SK Hynix / Micron in the paper's
#: anonymized A/B/C naming) -- the resume differential must hold across
#: all three device models.
VENDOR_MODULES = ["A0", "B3", "C5"]

_SEQUENTIAL = {}


def sequential(modules, scale):
    """A memoized fault-free sequential reference study."""
    key = tuple(modules)
    if key not in _SEQUENTIAL:
        _SEQUENTIAL[key] = CharacterizationStudy(scale=scale, seed=0).run(
            modules=modules, tests=TESTS
        )
    return _SEQUENTIAL[key]


def assert_record_identical(study, reference, modules):
    for name in modules:
        merged = study.modules[name]
        expected = reference.modules[name]
        assert merged.vpp_levels == expected.vpp_levels
        assert merged.vppmin == expected.vppmin
        assert merged.rowhammer == expected.rowhammer
        assert merged.trcd == expected.trcd
        assert merged.retention == expected.retention


class TestInlineExecution:
    def test_matches_sequential_study(self, tiny_scale):
        outcome = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0
        ).run()
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )
        metrics = outcome.metrics
        assert metrics.units_completed == metrics.units_planned > 1
        assert metrics.retries == 0 and not metrics.quarantined

    def test_scripted_fault_retries_bit_identically(self, tiny_scale):
        plan = FaultPlan.script({("C5/0", 0): "power_droop"})
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            fault_plan=plan,
        )
        outcome = service.run()
        # The retry rebuilt the bench from the seed: same records.
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )
        assert outcome.metrics.retries == 1
        assert outcome.metrics.faults == {"PowerDroopError": 1}
        unit_events = [
            e for e in service.telemetry.events if e.get("unit") == "C5/0"
        ]
        assert [e["attempt"] for e in unit_events
                if e["event"] == "unit_started"] == [0, 1]
        assert [e["kind"] for e in unit_events
                if e["event"] == "unit_fault"] == ["PowerDroopError"]
        events = [e["event"] for e in service.telemetry.events]
        assert "unit_fault" in events and "unit_retry" in events

    def test_exhausted_attempts_quarantine_module_not_campaign(
        self, tiny_scale
    ):
        # B3/0 faults on every allowed attempt; C5 is untouched.
        plan = FaultPlan.script({
            ("B3/0", attempt): "host_disconnect" for attempt in range(2)
        })
        service = CampaignService(
            modules=["B3", "C5"], tests=TESTS, scale=tiny_scale, seed=0,
            fault_plan=plan, max_attempts=2,
        )
        outcome = service.run()
        assert set(outcome.study.modules) == {"C5"}
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )
        assert "B3" in outcome.metrics.quarantined
        events = service.telemetry.events
        assert [e["unit"] for e in events
                if e["event"] == "module_quarantined"] == ["B3/0"]
        # B3's sibling unit was dropped, not executed.
        assert "B3/1" in [e["unit"] for e in events
                          if e["event"] == "unit_skipped"]
        assert "B3/1" not in [e.get("unit") for e in events
                              if e["event"] == "unit_started"]

    def test_random_plan_with_retry_headroom_still_identical(
        self, tiny_scale
    ):
        # Every first attempt faults; retries are fault-free by plan.
        plan = FaultPlan(seed=11, rate=1.0, faulty_attempts=1)
        outcome = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            fault_plan=plan, max_attempts=3,
        ).run()
        assert outcome.metrics.retries == outcome.metrics.units_planned
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )

    def test_validation(self, tiny_scale):
        with pytest.raises(ConfigurationError):
            CampaignService(["C5"], max_attempts=0)
        with pytest.raises(ConfigurationError):
            CampaignService(["C5"], backoff=-1.0)
        with pytest.raises(ConfigurationError):
            CampaignService(["C5"], checkpoint_dir="a", checkpoint_base="b")


class _SimulatedKill(Exception):
    """Stands in for SIGKILL mid-campaign in the resume tests."""


class TestCheckpointResume:
    def test_kill_midrun_then_resume_identical_across_vendors(
        self, tiny_scale, tmp_path
    ):
        """Satellite 3: kill after two units, resume, compare to an
        uninterrupted run for one module of each vendor."""
        reference = sequential(VENDOR_MODULES, tiny_scale)

        def kill_after_two(unit_id, done):
            if done == 2:
                raise _SimulatedKill(unit_id)

        service = CampaignService(
            modules=VENDOR_MODULES, tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_base=str(tmp_path),
        )
        with pytest.raises(_SimulatedKill):
            service.run(on_unit_done=kill_after_two)

        resumed = CampaignService(
            modules=VENDOR_MODULES, tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_base=str(tmp_path),
        )
        outcome = resumed.run(resume=True)
        assert outcome.metrics.units_resumed == 2
        assert (
            outcome.metrics.units_completed + outcome.metrics.units_resumed
            == outcome.metrics.units_planned
        )
        assert_record_identical(outcome.study, reference, VENDOR_MODULES)
        events = [e["event"] for e in resumed.telemetry.events]
        assert events.count("unit_resumed") == 2

    def test_resume_from_empty_directory_fails_clearly(
        self, tiny_scale, tmp_path
    ):
        service = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_base=str(tmp_path),
        )
        with pytest.raises(ConfigurationError, match="cannot resume"):
            service.run(resume=True)

    def test_resume_refuses_foreign_campaign(self, tiny_scale, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_dir=checkpoint_dir,
        ).run()
        other = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=1,
            checkpoint_dir=checkpoint_dir,
        )
        with pytest.raises(ConfigurationError, match="different campaign"):
            other.run(resume=True)

    def test_campaigns_get_distinct_directories_under_one_base(
        self, tiny_scale, tmp_path
    ):
        a = CampaignService(modules=["C5"], tests=TESTS, scale=tiny_scale,
                            seed=0, checkpoint_base=str(tmp_path))
        b = CampaignService(modules=["C5"], tests=TESTS, scale=tiny_scale,
                            seed=1, checkpoint_base=str(tmp_path))
        assert a.checkpoint_dir != b.checkpoint_dir
        a.run()
        # Seed-1's directory was never created; seed-0's holds the
        # manifest plus one file per unit.
        import os

        assert (tmp_path / os.path.basename(a.checkpoint_dir)
                / MANIFEST_NAME).is_file()

    def test_corrupt_unit_checkpoint_is_rerun(self, tiny_scale, tmp_path):
        import os

        checkpoint_dir = str(tmp_path / "ckpt")
        CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_dir=checkpoint_dir,
        ).run()
        unit_files = [f for f in os.listdir(checkpoint_dir)
                      if f.startswith("unit-")]
        with open(os.path.join(checkpoint_dir, unit_files[0]), "w") as fh:
            fh.write("{broken")
        outcome = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_dir=checkpoint_dir,
        ).run(resume=True)
        assert outcome.metrics.units_resumed == len(unit_files) - 1
        assert outcome.metrics.units_completed == 1
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )


class TestPoolExecution:
    def test_pool_matches_sequential(self, tiny_scale):
        outcome = CampaignService(
            modules=["B3", "C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2,
        ).run()
        assert_record_identical(
            outcome.study, sequential(["B3", "C5"], tiny_scale),
            ["B3", "C5"],
        )

    def test_pool_fault_crosses_process_boundary(self, tiny_scale):
        # The FaultSpec pickles into the worker; the raised
        # BenchFaultError pickles back and triggers a retry here.
        plan = FaultPlan.script({("C5/1", 0): "fpga_timeout"})
        outcome = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            max_workers=2, fault_plan=plan,
        ).run()
        assert outcome.metrics.retries == 1
        assert outcome.metrics.faults == {"FpgaTimeoutError": 1}
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )

    def test_all_families_pool_matches_sequential(self):
        """Every test family over one module of two vendors: the pooled
        campaign agrees record for record with a sequential study."""
        modules = ("A0", "B3")
        scale = StudyScale.tiny()
        study = CharacterizationStudy(scale=scale, seed=3, probe_engine="fused")
        baseline = {name: study.run_module(name) for name in modules}
        pooled = CampaignService(
            modules, scale=scale, seed=3, max_workers=2,
        ).run().study
        for name in modules:
            merged = pooled.module(name)
            assert merged.rowhammer == baseline[name].rowhammer
            assert merged.trcd == baseline[name].trcd
            assert merged.retention == baseline[name].retention

    def test_pool_derives_rows_like_inline(self):
        """At the paper's 65536-bit rows, pool workers generate exactly
        the per-cell vectors the inline campaign does (the merged
        per-family generation counts agree) and the records match."""
        tiny = StudyScale.tiny()
        scale = dataclasses.replace(
            tiny, geometry=dataclasses.replace(tiny.geometry, row_bits=65536)
        )
        families = ("tolerance", "retention", "trcd")
        counter = REGISTRY.counter(
            CELL_VECTOR_GENERATIONS_METRIC, labels=("family",)
        )
        runs = {}
        for workers in (1, 2):
            before = [counter.labels(family=f).value for f in families]
            study = CampaignService(
                ["A0", "B3"], ("rowhammer", "retention"), scale=scale,
                seed=0, max_workers=workers,
            ).run().study
            generated = tuple(
                counter.labels(family=family).value - start
                for family, start in zip(families, before)
            )
            runs[workers] = study, generated
        (inline, inline_generated), (pooled, pooled_generated) = (
            runs[1], runs[2]
        )
        assert_record_identical(pooled, inline, ["A0", "B3"])
        assert pooled_generated == inline_generated
        assert inline_generated[0] > 0 and inline_generated[1] > 0
