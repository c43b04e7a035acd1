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

A resume leg then stops a checkpointed run of the same campaign from
``on_unit_done`` after its first unit, resumes it, and asserts that at
least one unit came back from its column-file checkpoint and that the
merged study is record-identical to the sequential run.

It also times ``pooled_seconds``: the median wall clock of the same
campaign, fault-free on two workers, run again and again on one
:class:`~repro.service.pool.WorkerPool` after one warm-up run -- what a
pooled job costs a serving process whose workers are already forked.
The ``checkpoint`` row times one unit's checkpoint on the A0 bench
module with all three test families: the write, and the resume read
(``CheckpointStore.begin(resume=True)``), minimum of
:data:`CHECKPOINT_RUNS`. Its ``json_codec`` entry, the same two figures
for the per-record JSON checkpoints that service schema 1 wrote, is
carried over from the previous file.

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
import statistics
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
from repro.core.study import TEST_TYPES, CharacterizationStudy, StudyResult
from repro.service import CampaignService, FaultPlan
from repro.service.checkpoint import CheckpointStore
from repro.service.pool import WorkerPool
from repro.service.telemetry import TelemetryLog, read_events

MODULE = "C5"
TESTS = ("rowhammer",)
SEED = 0
#: The scripted fault: a transient V_PP supply droop on the first
#: attempt of the module's first work unit.
FAULTED_UNIT = f"{MODULE}/0"
#: Timed pooled campaigns behind ``pooled_seconds`` (after one warm-up).
POOLED_RUNS = 9
#: The module whose one-unit checkpoint the ``checkpoint`` row times,
#: and the timed runs (the row keeps the minimum).
CHECKPOINT_MODULE = "A0"
CHECKPOINT_RUNS = 7


class _Stop(Exception):
    """Raised from ``on_unit_done`` to stop a campaign mid-run."""


def run_resume_leg(scale: StudyScale, reference) -> int:
    """Stop a checkpointed campaign after its first unit, resume it,
    and check the merged study; returns the units resumed."""
    def stop(unit_id, done):
        raise _Stop(unit_id)

    with tempfile.TemporaryDirectory() as base:
        def service():
            return CampaignService(
                modules=[MODULE], tests=TESTS, scale=scale, seed=SEED,
                checkpoint_base=base,
            )

        try:
            service().run(on_unit_done=stop)
        except _Stop:
            pass
        else:
            raise AssertionError("the campaign ran past its first unit")
        outcome = service().run(resume=True)
    metrics = outcome.metrics
    assert metrics.units_resumed >= 1, "no unit resumed from its checkpoint"
    assert metrics.units_resumed + metrics.units_completed == (
        metrics.units_planned
    )
    assert outcome.study.modules[MODULE] == reference.modules[MODULE], (
        "resumed study diverged from the sequential reference"
    )
    return metrics.units_resumed


def time_checkpoint() -> dict:
    """Min-of-:data:`CHECKPOINT_RUNS` milliseconds to write one unit
    checkpoint of the A0 bench module (all three families) and to read
    it back on resume."""
    scale = StudyScale.bench()
    result = CharacterizationStudy(scale=scale, seed=SEED).run_module(
        CHECKPOINT_MODULE
    )
    study = StudyResult(
        scale=scale, seed=SEED, modules={CHECKPOINT_MODULE: result}
    )
    record = {
        "unit_id": f"{CHECKPOINT_MODULE}/0",
        "module": CHECKPOINT_MODULE,
        "chunk_index": 0,
        "rows": sorted(set(result.rowhammer.row.tolist())),
        "tests": list(TEST_TYPES),
        "attempts": 1,
        "wall_seconds": 0.0,
    }
    manifest = {"fingerprint": "checkpoint-timing"}
    writes, reads = [], []
    with tempfile.TemporaryDirectory() as directory:
        store = CheckpointStore(directory)
        store.begin(manifest, resume=False)
        for _ in range(CHECKPOINT_RUNS):
            started = time.perf_counter()
            store.write_unit(record, study)
            writes.append(time.perf_counter() - started)
            started = time.perf_counter()
            units = store.begin(manifest, resume=True)
            reads.append(time.perf_counter() - started)
            assert units[record["unit_id"]][1] == result
    return {
        "scope": {
            "module": CHECKPOINT_MODULE,
            "tests": list(TEST_TYPES),
            "scale": "bench",
            "records": len(result.rowhammer) + len(result.trcd)
            + len(result.retention),
            "statistic": f"min of {CHECKPOINT_RUNS}",
        },
        "write_ms": round(min(writes) * 1e3, 3),
        "resume_read_ms": round(min(reads) * 1e3, 3),
    }


def time_pooled(scale: StudyScale, reference) -> float:
    """Median wall clock of a 2-worker campaign on one shared pool."""
    samples = []
    with WorkerPool(2) as pool:
        for run in range(POOLED_RUNS + 1):
            started = time.monotonic()
            outcome = CampaignService(
                modules=[MODULE], tests=TESTS, scale=scale, seed=SEED,
                max_workers=2, pool=pool,
            ).run()
            if run:
                samples.append(time.monotonic() - started)
    assert outcome.study.modules[MODULE].rowhammer == (
        reference.modules[MODULE].rowhammer
    ), "pooled study diverged from the sequential reference"
    return statistics.median(samples)


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

    resumed = run_resume_leg(scale, reference)

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
        "pooled_seconds": round(time_pooled(scale, reference), 4),
        "units_resumed": resumed,
        "checkpoint": time_checkpoint(),
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
            baseline = previous.get("checkpoint", {}).get("json_codec")
            if baseline is not None:
                payload["checkpoint"]["json_codec"] = baseline
        except ValueError:
            pass

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for key in ("units", "retries", "events", "records",
                "orchestrated_seconds", "sequential_seconds",
                "orchestration_overhead", "pooled_seconds",
                "units_resumed"):
        print(f"{key:>26}: {payload[key]}")
    for key in ("write_ms", "resume_read_ms"):
        print(f"{'checkpoint ' + key:>26}: {payload['checkpoint'][key]}")
    print(f"wrote {args.out}")
    print("service smoke: retry + event log + resume + bit-identical "
          "merge OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
