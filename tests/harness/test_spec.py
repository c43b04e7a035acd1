"""Declarative experiment specs: the drift guard, plan derivation, the
runner's spec-driven surface, and the harness lint."""

import sys
import types

import pytest

from repro.errors import ConfigurationError
from repro.harness import cache
from repro.harness.lint import (
    check_clocks,
    check_experiments,
    check_process_source,
    check_processes,
    check_source,
    check_timing_source,
)
from repro.harness.lint import main as lint_main
from repro.harness.plan import build_plan
from repro.harness.registry import (
    EXPERIMENT_IDS,
    all_specs,
    campaign_tests,
    get_spec,
)
from repro.harness.runner import main
from repro.harness.spec import StudyRequest

MODULES = ("A4", "B3", "C5")

#: Knob overrides that keep the drift guard fast at tiny scale.
TINY_KNOBS = {
    "fig8": {"samples": 8},
    "fig9": {"samples": 8},
    "ablation": {"rows": 64},
    "blast_radius": {"victims_per_distance": 2},
    "power": {"activations": 2_000},
    "system_mitigations": {"row_count": 8},
    "wcdp_distribution": {"rows_per_module": 4},
}


def test_declared_studies_match_actual_fetches(monkeypatch, tiny_scale):
    """The drift guard: for every experiment, the studies its SPEC
    declares are exactly the studies it fetches -- the bug class the old
    hand-maintained CAMPAIGN_TESTS dict allowed (its preload routing for
    pareto covered the wrong module set, for example)."""
    fetched = []
    real_get_study = cache.get_study

    def recorder(tests, modules=cache.BENCH_MODULES, scale=None, seed=0,
                 use_disk=None, program=None):
        fetched.append(
            (tuple(sorted(tests)), tuple(sorted(modules)), scale, seed,
             cache._program_key(program))
        )
        return real_get_study(tests, modules=modules, scale=scale,
                              seed=seed, use_disk=use_disk, program=program)

    monkeypatch.setattr(cache, "get_study", recorder)
    for spec in all_specs().values():
        # Shrink the module set where the spec leaves it open; respect
        # pinned defaults (they are part of the declaration under test).
        modules = (
            MODULES
            if spec.module_scoped and spec.default_modules is None
            else None
        )
        fetched.clear()
        spec.run(modules=modules, scale=tiny_scale,
                 **TINY_KNOBS.get(spec.id, {}))
        declared = [
            resolved.cache_key()
            for resolved in spec.resolved_studies(modules, tiny_scale, 0)
        ]
        assert fetched == declared, (
            f"{spec.id}: declared studies {declared} != fetched {fetched}"
        )


def test_registry_is_derived_not_hand_maintained():
    from repro.harness import registry

    assert not hasattr(registry, "CAMPAIGN_TESTS")
    assert EXPERIMENT_IDS == list(all_specs())
    # Report order: paper artifacts first, extensions after.
    assert EXPERIMENT_IDS[:3] == ["table1", "table2", "table3"]
    assert EXPERIMENT_IDS.index("significance") < EXPERIMENT_IDS.index(
        "ablation"
    )


def test_one_spec_lookup_does_not_stand_in_for_discovery(monkeypatch):
    from repro.harness import registry

    # A fresh registry: only table3 looked up so far.
    monkeypatch.setattr(registry, "_SPECS", {})
    monkeypatch.setattr(registry, "_LOADED", {})
    assert get_spec("table3").id == "table3"
    assert list(registry._LOADED) == ["table3"]
    specs = registry.all_specs()
    assert len(specs) == len(registry.experiment_names()) == 27
    assert list(specs) == EXPERIMENT_IDS
    assert all(spec.id == experiment_id
               for experiment_id, spec in specs.items())


def test_unknown_ids_found_without_importing(monkeypatch):
    from repro.harness import registry

    monkeypatch.setattr(registry, "_LOADED", {})
    assert registry.unknown_experiments(
        ["fig3", "fig99", "table3", "fig99", "__init__", "spec"]
    ) == ["fig99", "__init__", "spec"]
    assert registry._LOADED == {}


def test_file_name_must_equal_spec_id(monkeypatch):
    from repro.harness import registry

    # A module renamed without its SPEC: file name "renamed", id table3.
    renamed = types.ModuleType("repro.harness.experiments.renamed")
    renamed.SPEC = get_spec("table3")
    monkeypatch.setitem(sys.modules, renamed.__name__, renamed)
    monkeypatch.setattr(
        registry, "_NAMES", sorted(registry.experiment_names() + ["renamed"])
    )
    monkeypatch.setattr(registry, "_SPECS", {})
    with pytest.raises(ConfigurationError, match="file name must equal"):
        get_spec("renamed")
    with pytest.raises(ConfigurationError, match="renamed"):
        registry.all_specs()


def test_every_spec_is_well_formed():
    for spec in all_specs().values():
        assert spec.id and spec.title
        assert callable(spec.analyze)
        assert spec.describe(), spec.id
        for request in spec.studies:
            assert request.tests, spec.id


def test_campaign_tests_derived_from_specs():
    assert campaign_tests(["fig3", "fig4"]) == [("rowhammer",)]
    assert campaign_tests(["pareto"]) == [("rowhammer", "trcd")]
    assert campaign_tests(["fig8", "table1"]) == []


def test_unknown_knob_rejected():
    with pytest.raises(TypeError, match="sample"):
        get_spec("fig8").run(sample=3)  # typo for "samples"
    with pytest.raises(TypeError, match="fig3"):
        get_spec("fig3").run(samples=3)  # fig3 declares no knobs


def test_module_scoped_flags():
    for experiment_id in ("table1", "table2", "fig8", "fig9"):
        assert not get_spec(experiment_id).module_scoped, experiment_id
    for experiment_id in ("fig3", "pareto", "vppmin_survey"):
        assert get_spec(experiment_id).module_scoped, experiment_id


def test_dynamic_description_resolves_knobs_and_modules():
    power = get_spec("power")
    assert "200000 activations" in power.describe()
    assert "500 activations" in power.describe(knobs={"activations": 500})
    mitigations = get_spec("system_mitigations")
    assert "module B6" in mitigations.describe()
    assert "module C5" in mitigations.describe(modules=("C5",))


def test_study_request_resolution_precedence(tiny_scale):
    open_request = StudyRequest(tests=("rowhammer",))
    resolved = open_request.resolve(modules=None, scale=tiny_scale, seed=3)
    assert resolved.modules == cache.BENCH_MODULES
    assert resolved.scale is tiny_scale
    assert resolved.seed == 3
    pinned = StudyRequest(tests=("trcd",), modules=("B3",), seed=9)
    resolved = pinned.resolve(modules=("C5",), scale=tiny_scale, seed=3)
    assert resolved.modules == ("B3",)  # the pin wins over the override
    assert resolved.seed == 9


def test_build_plan_dedupes_on_cache_key():
    plan = build_plan(["fig3", "fig4", "significance"])
    assert len(plan.requests) == 1
    assert plan.requests[0].tests == ("rowhammer",)
    assert plan.requests[0].modules == cache.BENCH_MODULES


def test_build_plan_tracks_per_experiment_module_needs():
    plan = build_plan(["pareto", "defense_synergy"])
    by_tests = {request.tests: request.modules for request in plan.requests}
    assert by_tests[("rowhammer", "trcd")] == ("B3", "A0")
    assert by_tests[("rowhammer",)] == ("B3", "C9")


def test_build_plan_respects_modules_override():
    plan = build_plan(["fig3"], modules=("B3",), seed=5)
    assert plan.requests == (
        plan.requests[0].__class__(
            tests=("rowhammer",), modules=("B3",), scale=None, seed=5
        ),
    )


def test_empty_plan_is_falsy():
    assert not build_plan(["table1", "fig8"])
    assert build_plan(["fig3"])


def test_plan_preload_primes_the_cache(tiny_scale):
    plan = build_plan(["fig3"], modules=("C5",), scale=tiny_scale)
    plan.orchestrate(max_workers=1)
    key = cache._key(("rowhammer",), ("C5",), tiny_scale, 0)
    assert key in cache._CACHE
    # A second pre-run finds the campaign cached and does not re-run it.
    messages = []
    plan.orchestrate(max_workers=1, progress=messages.append)
    assert messages == ["the rowhammer campaign is cached; skipping it"]


def test_runner_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in EXPERIMENT_IDS:
        assert experiment_id in out
    assert "rowhammer+trcd" in out  # pareto's derived needs
    assert "Table 1" in out


def test_runner_warns_when_modules_passed_to_unscoped_experiment(capsys):
    assert main(["table2", "--modules", "B3", "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "table2 is not module-scoped" in err


def test_runner_does_not_warn_for_scoped_experiments(capsys, tmp_path):
    assert main(["table2", "--no-cache"]) == 0
    assert "not module-scoped" not in capsys.readouterr().err


def test_lint_current_tree_is_clean():
    assert check_experiments() == []


def test_lint_flags_get_study_import_and_call():
    source = (
        "from repro.harness.cache import get_study\n"
        "def run():\n"
        "    return get_study(('rowhammer',))\n"
    )
    violations = check_source("fake.py", source)
    assert len(violations) == 2
    assert violations[0][1] == 1
    assert "StudyRequest" in violations[0][2]


def test_lint_flags_attribute_calls():
    source = (
        "from repro.harness import cache\n"
        "study = cache.get_study(('trcd',))\n"
    )
    assert len(check_source("fake.py", source)) == 1


def test_lint_allows_declarative_specs():
    source = (
        "from repro.harness.spec import ExperimentSpec, StudyRequest\n"
        "SPEC = ExperimentSpec(id='x', title='t', description='d',\n"
        "                      analyze=print,\n"
        "                      studies=(StudyRequest(tests=('trcd',)),))\n"
    )
    assert check_source("fake.py", source) == []


def test_clock_lint_current_tree_is_clean():
    # repro.core and repro.service take timestamps through
    # repro.obs.clock only (the sanctioned-clock contract).
    assert check_clocks() == []


def test_clock_lint_flags_direct_calls():
    source = (
        "import time\n"
        "started = time.monotonic()\n"
        "stamp = time.time()\n"
        "precise = time.perf_counter_ns()\n"
    )
    violations = check_timing_source("fake.py", source)
    assert [line for _, line, _ in violations] == [2, 3, 4]
    assert all("repro.obs.clock" in message for _, _, message in violations)


def test_clock_lint_flags_from_imports():
    source = "from time import monotonic, perf_counter\n"
    violations = check_timing_source("fake.py", source)
    assert len(violations) == 1
    assert "monotonic, perf_counter" in violations[0][2]


def test_clock_lint_allows_sleep_and_sanctioned_clock():
    source = (
        "import time\n"
        "from repro.obs import clock\n"
        "time.sleep(0.1)\n"
        "started = clock.monotonic()\n"
    )
    assert check_timing_source("fake.py", source) == []


def test_clock_lint_scoped_to_given_directories(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nnow = time.time()\n")
    violations = check_clocks([str(tmp_path)])
    assert len(violations) == 1
    assert violations[0][0] == str(bad)


def test_process_lint_current_tree_is_clean():
    # Worker processes start only in repro/service/pool.py.
    assert check_processes() == []


def test_process_lint_flags_every_way_to_start_workers(tmp_path):
    source = (
        "import os\n"
        "import multiprocessing\n"
        "import multiprocessing.pool as mpp\n"
        "from multiprocessing import get_context\n"
        "from concurrent.futures import ProcessPoolExecutor, wait\n"
        "from os import fork\n"
        "import concurrent.futures as cf\n"
        "pool = cf.ProcessPoolExecutor(2)\n"
        "pid = os.fork()\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
    )
    violations = check_process_source("fake.py", source)
    assert [line for _, line, _ in violations] == [2, 3, 4, 5, 6, 8, 9]
    assert all("repro/service/pool.py" in message
               for _, _, message in violations)
    # The pool module itself is the sanctioned site.
    (tmp_path / "service").mkdir()
    (tmp_path / "service" / "pool.py").write_text(source)
    (tmp_path / "elsewhere.py").write_text("import multiprocessing\n")
    assert [(path, line) for path, line, _ in check_processes(
        str(tmp_path)
    )] == [(str(tmp_path / "elsewhere.py"), 1)]


def test_lint_cli_reports_ok(capsys):
    assert lint_main([]) == 0
    assert "harness lint: ok" in capsys.readouterr().out


def test_lint_cli_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("from repro.harness.cache import get_study\n")
    assert lint_main([str(tmp_path)]) == 1
    assert "bad.py:1" in capsys.readouterr().err


def test_unknown_spec_rejected():
    with pytest.raises(ConfigurationError):
        get_spec("fig99")
