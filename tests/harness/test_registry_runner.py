"""Experiment registry and the CLI runner."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.registry import (
    EXPERIMENT_IDS,
    get_experiment,
    run_experiment,
)
from repro.harness.runner import build_parser, main


def test_registry_covers_every_paper_artifact():
    for artifact in ("table1", "table2", "table3", "fig3", "fig4", "fig5",
                     "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                     "significance"):
        assert artifact in EXPERIMENT_IDS
        assert callable(get_experiment(artifact))


def test_registry_includes_extensions():
    for extension in ("ablation", "wcdp_sensitivity", "trr_demo", "pareto"):
        assert extension in EXPERIMENT_IDS


def test_unknown_id_rejected():
    with pytest.raises(ConfigurationError):
        get_experiment("fig99")


def test_run_experiment_static():
    output = run_experiment("table1")
    assert output.experiment_id == "table1"
    assert output.data["total_chips"] == 272


def test_parser_defaults():
    args = build_parser().parse_args(["fig3", "--seed", "7"])
    assert args.experiments == ["fig3"]
    assert args.seed == 7
    assert not args.all


def test_main_runs_and_exports(tmp_path, capsys):
    code = main(["table2", "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "table2" in captured.out
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


def test_main_without_ids_shows_help(capsys):
    assert main([]) == 2


def test_cache_preload_is_used(tiny_scale):
    """A preloaded study short-circuits the campaign in get_study."""
    from repro.core.study import CharacterizationStudy
    from repro.harness.cache import get_study, preload_study

    study = CharacterizationStudy(scale=tiny_scale, seed=1).run(
        modules=["C5"], tests=("rowhammer",)
    )
    preload_study(study, ("rowhammer",), ("C5",), seed=1)
    fetched = get_study(("rowhammer",), modules=("C5",), scale=tiny_scale,
                        seed=1)
    assert fetched is study


def test_parser_parallel_flag():
    """``--parallel N`` is a second spelling of ``--orchestrate N``."""
    parser = build_parser()
    parallel = parser.parse_args(["fig3", "--parallel", "4"])
    assert parallel.orchestrate == 4
    assert parallel == parser.parse_args(["fig3", "--orchestrate", "4"])


def test_main_observability_flags(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"
    code = main([
        "table2", "--no-cache", "--out", str(tmp_path / "out"),
        "--trace", str(trace_path), "--metrics-out", str(metrics_path),
    ])
    assert code == 0
    capsys.readouterr()

    from repro.obs.trace import TRACER

    assert not TRACER.enabled  # main() cleans the global tracer up
    document = json.loads(trace_path.read_text())
    names = {event["name"] for event in document["traceEvents"]}
    assert "experiment" in names
    assert metrics_path.read_text().endswith("\n") or (
        metrics_path.read_text() == ""
    )

    (export,) = (tmp_path / "out").glob("*.json")
    payload = json.loads(export.read_text())
    from repro.obs.provenance import validate_provenance

    block = validate_provenance(payload["provenance"])
    assert block["cache"] == "off"


def test_profile_prints_span_table_when_tracing(tmp_path, capsys):
    code = main([
        "table2", "--no-cache", "--profile",
        "--trace", str(tmp_path / "trace.json"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "-- profile" in captured.out
    assert "-- spans" in captured.out
