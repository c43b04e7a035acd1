"""Persistent (disk) study cache: hits, invalidation, key hygiene."""

import json
import os

import pytest

from repro.core.scale import StudyScale
from repro.harness import cache
from repro.harness.cache import (
    clear_cache,
    clear_disk_cache,
    get_study,
    set_study_cache_dir,
    study_cache_dir,
    study_fingerprint,
)
from repro.obs.provenance import validate_provenance

TESTS = ("rowhammer",)
MODULES = ("C5",)


@pytest.fixture
def cache_dir(tmp_path):
    previous = set_study_cache_dir(str(tmp_path))
    yield str(tmp_path)
    set_study_cache_dir(previous)


def _entries(directory):
    return sorted(
        entry for entry in os.listdir(directory)
        if entry.startswith("study-") and entry.endswith(".json")
    )


def _count_runs(monkeypatch):
    """Count actual campaign executions behind get_study."""
    from repro.core.study import CharacterizationStudy

    calls = []
    original = CharacterizationStudy.run

    def counting_run(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CharacterizationStudy, "run", counting_run)
    return calls


class TestDiskCache:
    def test_write_through_and_cross_process_style_hit(
        self, cache_dir, tiny_scale, monkeypatch
    ):
        calls = _count_runs(monkeypatch)
        first = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert len(_entries(cache_dir)) == 1
        # A fresh process is simulated by dropping the in-memory layer.
        clear_cache()
        second = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert len(calls) == 1
        assert second is not first
        assert [
            (r.row, r.vpp, r.hcfirst, r.ber)
            for r in second.module("C5").rowhammer
        ] == [
            (r.row, r.vpp, r.hcfirst, r.ber)
            for r in first.module("C5").rowhammer
        ]

    def test_memory_layer_still_first(self, cache_dir, tiny_scale,
                                      monkeypatch):
        calls = _count_runs(monkeypatch)
        first = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert get_study(TESTS, MODULES, scale=tiny_scale, seed=2) is first
        assert len(calls) == 1

    def test_use_disk_false_bypasses(self, cache_dir, tiny_scale):
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2, use_disk=False)
        assert _entries(cache_dir) == []

    def test_disabled_by_default_in_tests(self, tiny_scale):
        # The conftest fixture turns the disk layer off for isolation.
        assert study_cache_dir() is None

    def test_corrupt_entry_recomputed(self, cache_dir, tiny_scale,
                                      monkeypatch):
        calls = _count_runs(monkeypatch)
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        (entry,) = _entries(cache_dir)
        path = os.path.join(cache_dir, entry)
        with open(path, "w") as handle:
            handle.write("{not json")
        clear_cache()
        study = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert len(calls) == 2
        assert "C5" in study.modules
        # The corrupt file was replaced by the fresh result.
        with open(path) as handle:
            json.load(handle)

    def test_clear_disk_cache(self, cache_dir, tiny_scale):
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        removed = clear_disk_cache()
        assert len(removed) == 1
        assert _entries(cache_dir) == []

    def test_env_var_configures_directory(self, tmp_path, monkeypatch):
        set_study_cache_dir(None)
        monkeypatch.setenv(cache.CACHE_DIR_ENV_VAR, str(tmp_path))
        # Explicit None (set by the conftest fixture) wins over the env
        # var; clearing the explicit setting exposes it.
        assert study_cache_dir() is None
        previous = cache._disk_dir
        cache._disk_dir = cache._UNSET
        try:
            assert study_cache_dir() == str(tmp_path)
        finally:
            cache._disk_dir = previous


class TestFingerprint:
    def test_module_order_normalized(self, tiny_scale):
        assert study_fingerprint(
            TESTS, ("A0", "B3"), tiny_scale, 0
        ) == study_fingerprint(TESTS, ("B3", "A0"), tiny_scale, 0)

    def test_test_order_normalized(self, tiny_scale):
        assert study_fingerprint(
            ("trcd", "rowhammer"), MODULES, tiny_scale, 0
        ) == study_fingerprint(("rowhammer", "trcd"), MODULES, tiny_scale, 0)

    def test_scope_changes_fingerprint(self, tiny_scale):
        base = study_fingerprint(TESTS, MODULES, tiny_scale, 0)
        assert study_fingerprint(TESTS, MODULES, tiny_scale, 1) != base
        assert study_fingerprint(TESTS, ("A0",), tiny_scale, 0) != base
        assert study_fingerprint(
            TESTS, MODULES, StudyScale.bench(), 0
        ) != base

    def test_memory_key_module_order_normalized(self, tiny_scale,
                                                monkeypatch):
        # The satellite fix: ("A0","B3") and ("B3","A0") must share one
        # in-memory entry too.
        calls = _count_runs(monkeypatch)
        first = get_study(TESTS, ("B3", "C5"), scale=tiny_scale, seed=2,
                          use_disk=False)
        second = get_study(TESTS, ("C5", "B3"), scale=tiny_scale, seed=2,
                           use_disk=False)
        assert second is first
        assert len(calls) == 1


class TestProvenance:
    """Every cached study carries a schema-valid provenance block that
    survives the disk round trip (a tentpole acceptance criterion)."""

    def test_fresh_run_is_stamped_as_a_miss(self, cache_dir, tiny_scale):
        study = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        block = study.provenance
        validate_provenance(block)
        assert block["cache"] == "miss"
        assert block["fingerprint"] == study_fingerprint(
            TESTS, MODULES, tiny_scale, 2
        )
        assert block["seed"] == 2
        assert block["tests"] == ["rowhammer"]
        assert block["modules"] == ["C5"]
        assert block["wall_seconds"] > 0

    def test_counters_are_the_run_delta_not_process_totals(
        self, cache_dir, tiny_scale
    ):
        from repro.obs.metrics import REGISTRY

        # Pre-existing registry state must not leak into the block.
        REGISTRY.counter("repro_probes_hammer_total").inc(1_000_000)
        study = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        hammers = study.provenance["counters"]["repro_probes_hammer_total"]
        assert 0 < hammers < 1_000_000

    def test_block_survives_disk_round_trip(self, cache_dir, tiny_scale):
        fresh = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        clear_cache()  # drop the memory layer; force the disk entry
        reloaded = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        validate_provenance(reloaded.provenance)
        assert reloaded.provenance == fresh.provenance

    def test_block_lands_in_the_json_entry(self, cache_dir, tiny_scale):
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        (entry,) = _entries(cache_dir)
        with open(os.path.join(cache_dir, entry)) as handle:
            payload = json.load(handle)
        validate_provenance(payload["provenance"])

    def test_corrupt_provenance_treated_as_corrupt_entry(
        self, cache_dir, tiny_scale, monkeypatch
    ):
        calls = _count_runs(monkeypatch)
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        (entry,) = _entries(cache_dir)
        path = os.path.join(cache_dir, entry)
        with open(path) as handle:
            payload = json.load(handle)
        payload["provenance"]["cache"] = "warm"  # not a valid state
        with open(path, "w") as handle:
            json.dump(payload, handle)
        clear_cache()
        study = get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert len(calls) == 2  # recomputed, not served corrupt
        validate_provenance(study.provenance)

    def test_preloaded_study_is_stamped(self, cache_dir, tiny_scale):
        from repro.core.study import CharacterizationStudy
        from repro.harness.cache import preload_study

        result = CharacterizationStudy(scale=tiny_scale, seed=2).run(
            modules=MODULES, tests=TESTS
        )
        assert result.provenance is None
        preload_study(result, TESTS, MODULES, seed=2, wall_seconds=1.25)
        validate_provenance(result.provenance)
        assert result.provenance["wall_seconds"] == 1.25

    def test_cache_traffic_counters(self, cache_dir, tiny_scale):
        from repro.obs.metrics import REGISTRY

        def deltas(before):
            return {
                name: value - before.get(name, 0.0)
                for name, value in REGISTRY.counter_values().items()
            }

        before = REGISTRY.counter_values()
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        after_miss = deltas(before)
        assert after_miss["repro_study_cache_misses_total"] == 1
        assert after_miss["repro_study_cache_write_bytes_total"] > 0

        before = REGISTRY.counter_values()
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert deltas(before)["repro_study_cache_memory_hits_total"] == 1

        clear_cache()
        before = REGISTRY.counter_values()
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        after_disk = deltas(before)
        assert after_disk["repro_study_cache_disk_hits_total"] == 1
        assert after_disk["repro_study_cache_read_bytes_total"] > 0


class TestEngineFreeKeying:
    """The probe engine is not part of either cache key: the kernel and
    the oracle produce the same study, so one entry serves both."""

    def test_command_study_preload_is_a_default_hit(
        self, cache_dir, tiny_scale, monkeypatch
    ):
        from repro.core.study import CharacterizationStudy
        from repro.harness.cache import preload_study
        from repro.obs.metrics import REGISTRY

        study = CharacterizationStudy(
            scale=tiny_scale, seed=2, probe_engine="command"
        ).run(modules=MODULES, tests=TESTS)
        preload_study(study, TESTS, MODULES, seed=2)
        assert "probe_engine" not in study.provenance
        fingerprint = study_fingerprint(TESTS, MODULES, tiny_scale, 2)
        assert study.provenance["fingerprint"] == fingerprint
        assert _entries(cache_dir) == [f"study-{fingerprint}.json"]

        calls = _count_runs(monkeypatch)
        key = "repro_study_cache_memory_hits_total"
        before = REGISTRY.counter_values().get(key, 0.0)
        assert get_study(TESTS, MODULES, scale=tiny_scale, seed=2) is study
        assert REGISTRY.counter_values()[key] == before + 1
        clear_cache()
        get_study(TESTS, MODULES, scale=tiny_scale, seed=2)
        assert not calls  # the disk entry served the default request
