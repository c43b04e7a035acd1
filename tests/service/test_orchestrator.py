"""CampaignService: scheduling, retries, quarantine, checkpoint/resume.

The load-bearing property throughout: an orchestrated campaign --
retried, resumed, or pool-parallel -- merges to ModuleResults
record-identical to a plain sequential ``CharacterizationStudy.run``.
"""

import dataclasses
import json
import os
from contextlib import nullcontext

import pytest

from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.cell import CELL_VECTOR_GENERATIONS_METRIC
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.service import CampaignService, FaultPlan
from repro.service import checkpoint
from repro.service.checkpoint import MANIFEST_NAME
from repro.service.pool import WorkerPool

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
        import os

        first = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=0,
            checkpoint_base=str(tmp_path),
        )
        first.run()
        other = CampaignService(
            modules=["C5"], tests=TESTS, scale=tiny_scale, seed=1,
            checkpoint_base=str(tmp_path),
        )
        # Another campaign's checkpoints sit where this one's belong.
        os.rename(first.checkpoint_dir, other.checkpoint_dir)
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
        # manifest plus two files per unit.
        import os

        assert (tmp_path / os.path.basename(a.checkpoint_dir)
                / MANIFEST_NAME).is_file()

    def test_corrupt_unit_checkpoint_is_rerun(self, tiny_scale, tmp_path):
        """A unit is two files; corrupting either one re-runs that unit
        alone."""
        for damaged in ("record", "columns"):
            service = _c5_service(tiny_scale, tmp_path)
            units = service.run().metrics.units_planned
            pairs = _unit_pairs(service.checkpoint_dir)
            assert len(pairs) == units > 1
            with open(pairs[0][damaged], "w") as fh:
                fh.write("{broken")
            outcome = _c5_service(tiny_scale, tmp_path).run(resume=True)
            assert outcome.metrics.units_resumed == units - 1, damaged
            assert outcome.metrics.units_completed == 1, damaged
            assert_record_identical(
                outcome.study, sequential(["C5"], tiny_scale), ["C5"]
            )

    def test_column_file_without_record_is_rerun(self, tiny_scale, tmp_path):
        """A kill between a unit's two writes leaves its column file
        alone: the unit was never committed and re-runs."""
        service = _c5_service(tiny_scale, tmp_path)
        units = service.run().metrics.units_planned
        pairs = _unit_pairs(service.checkpoint_dir)
        os.unlink(pairs[0]["record"])
        outcome = _c5_service(tiny_scale, tmp_path).run(resume=True)
        assert outcome.metrics.units_resumed == units - 1
        assert outcome.metrics.units_completed == 1
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )

    @pytest.mark.parametrize(
        "damage", ["edited-record", "foreign-columns", "truncated-columns"]
    )
    def test_mismatched_pair_is_dropped_and_rerun(
        self, tiny_scale, tmp_path, damage
    ):
        """A record whose CRC-32 its column file does not carry (the
        record edited, or another unit's column file under it), or a
        truncated column file: the pair is dropped, the unit re-runs and
        is checkpointed again."""
        service = _c5_service(tiny_scale, tmp_path)
        units = service.run().metrics.units_planned
        pairs = _unit_pairs(service.checkpoint_dir)
        victim = pairs[0]
        if damage == "edited-record":
            with open(victim["record"]) as fh:
                record = json.load(fh)
            record["attempts"] += 1
            with open(victim["record"], "w") as fh:
                json.dump(record, fh)
        elif damage == "foreign-columns":
            with open(pairs[1]["columns"], "rb") as fh:
                foreign = fh.read()
            with open(victim["columns"], "wb") as fh:
                fh.write(foreign)
        else:
            size = os.path.getsize(victim["columns"])
            os.truncate(victim["columns"], size // 2)
        outcome = _c5_service(tiny_scale, tmp_path).run(resume=True)
        assert outcome.metrics.units_resumed == units - 1
        assert outcome.metrics.units_completed == 1
        assert_record_identical(
            outcome.study, sequential(["C5"], tiny_scale), ["C5"]
        )
        again = _c5_service(tiny_scale, tmp_path).run(resume=True)
        assert again.metrics.units_resumed == units

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stopped_after_any_unit_resumes_identically(
        self, tiny_scale, tmp_path, workers
    ):
        """Stop after unit k, for every k, then resume: the merged study
        is record-identical to an uninterrupted run, inline and pooled."""
        modules = ["B3", "C5"]
        reference = sequential(modules, tiny_scale)
        with WorkerPool(workers) if workers > 1 else nullcontext() as pool:
            def service():
                return CampaignService(
                    modules=modules, tests=TESTS, scale=tiny_scale, seed=0,
                    checkpoint_base=str(tmp_path), max_workers=workers,
                    pool=pool,
                )

            units = service().run().metrics.units_planned
            assert units > 2
            for stop in range(1, units):
                def kill(unit_id, done, stop=stop):
                    if done == stop:
                        raise _SimulatedKill(unit_id)

                with pytest.raises(_SimulatedKill):
                    service().run(on_unit_done=kill)
                outcome = service().run(resume=True)
                assert outcome.metrics.units_resumed == stop
                assert outcome.metrics.units_completed == units - stop
                assert_record_identical(outcome.study, reference, modules)

    def test_version_1_checkpoints_are_refused_by_the_cli(
        self, tiny_scale, tmp_path, monkeypatch, capsys
    ):
        """Layout-1 checkpoints hash to another campaign directory:
        ``--resume`` finds no manifest of its own and exits 2."""
        from repro.service.__main__ import main

        base = str(tmp_path / "checkpoints")
        legacy = _version_1_checkpoint(tiny_scale, base, monkeypatch)
        code = main([
            "--modules", "C5", "--tests", *TESTS, "--scale", "tiny",
            "--quiet", "--checkpoint-dir", base, "--resume",
        ])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err
        assert sorted(os.listdir(base)) == [os.path.basename(legacy)]

    def test_api_job_reruns_beside_version_1_checkpoints(
        self, tiny_scale, tmp_path, monkeypatch
    ):
        """An API job whose campaign has layout-1 checkpoints runs fresh
        in its own directory and leaves the old one alone."""
        from repro.api import ApiServer
        from repro.api.jobs import run_job

        api = ApiServer(str(tmp_path / "store"), str(tmp_path / "state"))
        legacy = _version_1_checkpoint(
            tiny_scale, api.checkpoint_base, monkeypatch
        )
        before = {
            name: open(os.path.join(legacy, name), "rb").read()
            for name in os.listdir(legacy)
        }
        _, document = api.handle(
            "POST", "/v1/jobs", {},
            {"modules": ["C5"], "tests": list(TESTS), "scale": "tiny",
             "seed": 0},
            "default",
        )
        job = api.queue.get(document["job"]["id"])
        run_job(job, api.store, api.checkpoint_base)
        assert job.state == "completed", job.error
        assert job.cache == "miss"
        assert job.metrics["units_resumed"] == 0
        directories = os.listdir(api.checkpoint_base)
        assert len(directories) == 2
        (fresh,) = set(directories) - {os.path.basename(legacy)}
        assert len(_unit_pairs(
            os.path.join(api.checkpoint_base, fresh)
        )) == job.metrics["units_completed"]
        assert {
            name: open(os.path.join(legacy, name), "rb").read()
            for name in os.listdir(legacy)
        } == before


def _c5_service(scale, base):
    return CampaignService(
        modules=["C5"], tests=TESTS, scale=scale, seed=0,
        checkpoint_base=str(base),
    )


def _unit_pairs(directory):
    """Each checkpointed unit's record and column file paths, by record
    name."""
    return [
        {"record": os.path.join(directory, name),
         "columns": os.path.join(directory, name[:-len(".json")] + ".cols")}
        for name in sorted(os.listdir(directory))
        if name.startswith("unit-") and name.endswith(".json")
    ]


def _version_1_checkpoint(scale, base, monkeypatch):
    """A checkpoint directory of C5's campaign as layout 1 wrote it: the
    manifest and one unit record with its results inline. Returns the
    directory."""
    from repro.core.serialization import module_result_to_dict

    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "SERVICE_SCHEMA_VERSION", 1)
        fingerprint = checkpoint.campaign_fingerprint(
            TESTS, ["C5"], scale, 0, None
        )
    directory = checkpoint.campaign_dir(base, fingerprint)
    os.makedirs(directory)
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump({"service_schema": 1, "fingerprint": fingerprint}, handle)
    result = sequential(["C5"], scale).modules["C5"]
    with open(os.path.join(directory, "unit-C5-0.json"), "w") as handle:
        json.dump({
            "unit_id": "C5/0", "module": "C5", "chunk_index": 0,
            "rows": [], "tests": list(TESTS), "attempts": 1,
            "wall_seconds": 0.1, "result": module_result_to_dict(result),
        }, handle)
    return directory


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
