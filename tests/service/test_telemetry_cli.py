"""Telemetry log/metrics and the ``python -m repro.service`` CLI."""

import json

import pytest

from repro.core.serialization import load_study
from repro.errors import ConfigurationError
from repro.service import CampaignService
from repro.service.__main__ import main
from repro.service.telemetry import CampaignMetrics, TelemetryLog, read_events


class TestTelemetryLog:
    def test_events_mirror_memory_and_disk(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with TelemetryLog(path, clock=lambda: 123.0,
                          monotonic=lambda: 42.5) as log:
            log.emit("campaign_started", units=4)
            log.emit("unit_started", unit="C5/0", attempt=0)
        assert [e["event"] for e in log.events] == [
            "campaign_started", "unit_started",
        ]
        events = read_events(path)
        assert events == log.events
        assert events[0] == {"event": "campaign_started", "ts": 123.0,
                             "mono": 42.5, "units": 4}

    def test_every_record_carries_wall_and_monotonic_stamps(self):
        # ts is a wall-clock label (can jump under NTP/DST); mono is
        # the duration-safe timestamp documented in docs/SERVICE.md.
        log = TelemetryLog()
        log.emit("unit_started")
        log.emit("unit_finished")
        for record in log.events:
            assert isinstance(record["ts"], float)
            assert isinstance(record["mono"], float)
        assert log.events[1]["mono"] >= log.events[0]["mono"]
        log.close()

    def test_records_publish_on_the_event_bus(self):
        from repro.obs import events as obs_events

        seen = []
        sink = obs_events.subscribe(seen.append)
        try:
            log = TelemetryLog()
            log.emit("campaign_started", units=2)
            log.close()
        finally:
            obs_events.unsubscribe(sink)
        assert [r["event"] for r in seen] == ["campaign_started"]
        assert seen[0]["units"] == 2

    def test_each_line_is_standalone_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with TelemetryLog(path) as log:
            for index in range(5):
                log.emit("unit_finished", unit=f"C5/{index}")
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 5
        for line in lines:
            json.loads(line)

    def test_resume_appends_instead_of_truncating(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with TelemetryLog(path) as log:
            log.emit("campaign_started")
        with TelemetryLog(path, resume=True) as log:
            log.emit("campaign_finished")
        assert [e["event"] for e in read_events(path)] == [
            "campaign_started", "campaign_finished",
        ]

    def test_memory_only_without_path(self):
        log = TelemetryLog()
        log.emit("unit_started")
        log.close()
        assert log.events[0]["event"] == "unit_started"


class TestMetrics:
    def test_campaign_metrics_roundtrip(self):
        metrics = CampaignMetrics(units_planned=4, units_completed=3,
                                  units_failed=1, retries=2)
        metrics.record_fault("PowerDroopError")
        metrics.record_fault("PowerDroopError")
        metrics.quarantined["B3"] = "unit B3/0 failed 3 attempts"
        payload = metrics.as_dict()
        assert payload["faults"] == {"PowerDroopError": 2}
        assert payload["units_failed"] == 1
        summary = metrics.summary()
        assert "3/4 completed" in summary
        assert "PowerDroopError=2" in summary
        assert "quarantined  B3" in summary


BASE_ARGS = ["--modules", "C5", "--tests", "rowhammer", "--scale", "tiny",
             "--backoff", "0", "--quiet"]


class TestServiceCli:
    def test_happy_path(self, tmp_path, capsys):
        out = str(tmp_path / "study.json")
        code = main(BASE_ARGS + ["--no-checkpoint", "--out", out])
        assert code == 0
        study = load_study(out)
        assert list(study.modules) == ["C5"]
        assert study.modules["C5"].rowhammer
        captured = capsys.readouterr()
        assert "completed" in captured.out

    def test_scripted_fault_retries_and_logs(self, tmp_path, capsys):
        events_path = str(tmp_path / "events.jsonl")
        code = main(BASE_ARGS + [
            "--no-checkpoint",
            "--fault-script", "C5/0:0:power_droop",
            "--events", events_path,
        ])
        assert code == 0
        events = read_events(events_path)
        kinds = [e["event"] for e in events]
        assert "unit_fault" in kinds and "unit_retry" in kinds
        assert kinds[-1] == "campaign_finished"
        captured = capsys.readouterr()
        assert "retries   1" in captured.out

    def test_quarantine_exit_code(self, tmp_path, capsys):
        script = [
            arg
            for attempt in range(2)
            for arg in ("--fault-script", f"C5/0:{attempt}:host_disconnect")
        ]
        code = main(BASE_ARGS + ["--no-checkpoint", "--max-attempts", "2"]
                    + script)
        assert code == 3
        captured = capsys.readouterr()
        assert "quarantined" in captured.err

    @pytest.mark.parametrize("field, flag, value", [
        ("chunks_per_module", "--chunks", 0),
        ("chunks_per_module", "--chunks", -2),
        ("max_workers", "--workers", -3),
    ])
    def test_out_of_range_chunks_or_workers_is_config_error(
        self, field, flag, value, capsys
    ):
        # Refused, not run under another plan (chunks) or inline
        # (workers).
        with pytest.raises(ConfigurationError, match=field):
            CampaignService(["C5"], **{field: value})
        assert main(BASE_ARGS + ["--no-checkpoint", flag, str(value)]) == 2
        assert field in capsys.readouterr().err

    def test_malformed_fault_script_is_config_error(self, capsys):
        assert main(BASE_ARGS + ["--fault-script", "nonsense"]) == 2
        assert main(BASE_ARGS + ["--fault-script", "C5/0:x:power_droop"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err

    def test_trace_metrics_and_provenance_flags(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.prom")
        out = str(tmp_path / "study.json")
        code = main(BASE_ARGS + [
            "--no-checkpoint", "--trace", trace_path,
            "--metrics-out", metrics_path, "--out", out,
        ])
        assert code == 0
        capsys.readouterr()

        with open(trace_path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        assert {"campaign", "service.unit", "module"} <= names
        assert all(event["ph"] == "X" for event in events)

        with open(metrics_path) as handle:
            text = handle.read()
        assert "# TYPE repro_probes_hammer_total counter" in text
        assert "# TYPE repro_service_unit_run_seconds histogram" in text
        assert (
            'repro_service_unit_run_seconds_bucket{module="C5",le="+Inf"}'
            in text
        )

        from repro.obs.provenance import validate_provenance

        study = load_study(out)
        block = validate_provenance(study.provenance)
        assert block["cache"] == "miss"
        assert "probe_engine" not in block
        assert block["modules"] == ["C5"]

    def test_progress_flag_renders_rate_line(self, tmp_path, capsys):
        code = main(BASE_ARGS + ["--no-checkpoint", "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        assert "units/s" in captured.err
        assert "probes/s" in captured.err

    def test_checkpointed_run_then_resume(self, tmp_path, capsys):
        args = BASE_ARGS + ["--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "2 resumed from checkpoint" in captured.out


class TestRunnerIntegration:
    def test_unknown_experiment_id_exits_cleanly(self, capsys):
        from repro.harness.runner import main as runner_main

        code = runner_main(["fig99", "fig3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown experiment id(s): fig99" in captured.err
        assert "known ids:" in captured.err

    def test_orchestrate_skips_campaignless_experiments(self, capsys):
        from repro.harness.runner import main as runner_main

        code = runner_main(["table2", "--orchestrate", "0", "--no-cache"])
        assert code == 0
        captured = capsys.readouterr()
        assert "no shared campaigns needed" in captured.out

    def test_negative_orchestrate_is_config_error(self, capsys):
        from repro.harness.runner import main as runner_main

        assert runner_main(["fig3", "--orchestrate", "-2"]) == 2
        assert "--orchestrate must be >= 0" in capsys.readouterr().err

    def test_orchestrate_parser_flags(self):
        from repro.harness.runner import build_parser

        args = build_parser().parse_args(
            ["fig3", "--orchestrate", "4", "--resume",
             "--service-dir", "ckpts", "--events", "log.jsonl"]
        )
        assert args.orchestrate == 4
        assert args.resume
        assert args.service_dir == "ckpts"
        assert args.events == "log.jsonl"
