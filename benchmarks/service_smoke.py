#!/usr/bin/env python3
"""Orchestration-service smoke benchmark -> BENCH_service.json.

Runs a one-module orchestrated campaign (``make service-smoke``) with
one scripted fault injected into the first work unit, and asserts:

* the faulted unit was retried exactly once and the campaign finished
  with every unit completed (the retry machinery works);
* the JSON-lines event log parses and tells the full story
  (campaign_started ... unit_fault, unit_retry ... campaign_finished);
* the merged study is record-identical to a plain sequential
  ``CharacterizationStudy.run`` -- the injected fault left no trace in
  the science.

Timings land in ``--out`` (default: ``BENCH_service.json`` in the
temp directory, so a smoke run leaves the checkout clean); ``make
bench`` points it at ``benchmarks/BENCH_service.json``, next to the
probe benchmark's numbers, to record the orchestration overhead
trajectory alongside probe throughput.

Run:  PYTHONPATH=src python benchmarks/service_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

try:
    import repro  # noqa: F401
except ImportError:  # launched from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.service import CampaignService, FaultPlan
from repro.service.telemetry import TelemetryLog, read_events

MODULE = "C5"
TESTS = ("rowhammer",)
SEED = 0
#: The scripted fault: a transient V_PP supply droop on the first
#: attempt of the module's first work unit.
FAULTED_UNIT = f"{MODULE}/0"


def run_smoke(scale: StudyScale, events_path: str) -> dict:
    plan = FaultPlan.script({(FAULTED_UNIT, 0): "power_droop"})
    with TelemetryLog(events_path) as telemetry:
        service = CampaignService(
            modules=[MODULE], tests=TESTS, scale=scale, seed=SEED,
            fault_plan=plan, backoff=0.0, telemetry=telemetry,
        )
        started = time.monotonic()
        outcome = service.run()
        orchestrated_seconds = time.monotonic() - started

    metrics = outcome.metrics
    assert metrics.retries == 1, (
        f"expected exactly one retry, saw {metrics.retries}"
    )
    assert metrics.faults == {"PowerDroopError": 1}, metrics.faults
    assert metrics.units_completed == metrics.units_planned, (
        "not every unit completed"
    )
    assert not metrics.quarantined, metrics.quarantined

    events = read_events(events_path)  # raises if any line is not JSON
    kinds = [event["event"] for event in events]
    assert kinds[0] == "campaign_started" and kinds[-1] == "campaign_finished"
    for expected in ("unit_started", "unit_fault", "unit_retry",
                     "unit_finished"):
        assert expected in kinds, f"missing {expected} in event log"
    faulted = [e for e in events if e["event"] == "unit_fault"]
    assert faulted[0]["unit"] == FAULTED_UNIT

    started = time.monotonic()
    reference = CharacterizationStudy(scale=scale, seed=SEED).run(
        modules=[MODULE], tests=TESTS
    )
    sequential_seconds = time.monotonic() - started
    merged = outcome.study.modules[MODULE]
    expected = reference.modules[MODULE]
    assert merged.vpp_levels == expected.vpp_levels
    assert merged.rowhammer == expected.rowhammer, (
        "orchestrated study diverged from the sequential reference"
    )

    return {
        "scope": {
            "module": MODULE,
            "tests": list(TESTS),
            "scale": "tiny",
            "fault": f"power_droop@{FAULTED_UNIT}:attempt0",
        },
        "units": metrics.units_planned,
        "retries": metrics.retries,
        "events": len(events),
        "records": len(merged.rowhammer),
        "orchestrated_seconds": round(orchestrated_seconds, 4),
        "sequential_seconds": round(sequential_seconds, 4),
        "orchestration_overhead": round(
            orchestrated_seconds / sequential_seconds, 3
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(tempfile.gettempdir(), "BENCH_service.json")
    parser.add_argument("--out", default=default_out)
    args = parser.parse_args(argv)

    print("service smoke: one-module orchestrated campaign with one "
          "injected supply droop...")
    with tempfile.TemporaryDirectory() as tmp:
        payload = run_smoke(
            StudyScale.tiny(), os.path.join(tmp, "events.jsonl")
        )

    # Preserve sections other benchmarks own (bench_service_load.py
    # writes the "load" key into the same file).
    if os.path.isfile(args.out):
        try:
            with open(args.out) as handle:
                previous = json.load(handle)
            for key in ("load",):
                if key in previous and key not in payload:
                    payload[key] = previous[key]
        except ValueError:
            pass

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for key in ("units", "retries", "events", "records",
                "orchestrated_seconds", "sequential_seconds",
                "orchestration_overhead"):
        print(f"{key:>24}: {payload[key]}")
    print(f"wrote {args.out}")
    print("service smoke: retry + event log + bit-identical merge OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
