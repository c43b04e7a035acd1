#!/usr/bin/env python3
"""Observability smoke check (``make obs-smoke``).

Runs a tiny traced campaign through the orchestration service and
validates every surface of the unified observability layer
(:mod:`repro.obs`) against the schemas documented in
``docs/OBSERVABILITY.md``:

* the Chrome-trace export is loadable JSON with complete ("X") events,
  microsecond ``ts``/``dur``, and actually-nested spans (a ``module``
  span inside ``campaign``, ``operating-point`` inside ``module``, ...);
* the Prometheus text exposition parses line by line (HELP/TYPE
  comments, ``name{labels} value`` samples), histograms are cumulative
  and consistent (``+Inf`` bucket == ``_count``);
* telemetry events carry both the ``ts`` (wall) and ``mono``
  (duration-safe) timestamps;
* the study JSON written through the disk cache carries a
  schema-valid provenance block that survives a cache-hit round trip;
* an API-submitted pooled job yields ONE stitched cross-process trace:
  the same trace id from HTTP admission (``api.admission``) through the
  worker thread (``api.job``), the orchestrator (``campaign``) and the
  pool workers' ``work-unit`` spans, with flow events over the queue
  hop and per-tenant SLO histograms on the exposition;
* the ``--profile`` table of that pooled run attributes the ``module``,
  ``wcdp`` and ``rowhammer`` phases to the worker lanes.

Exits non-zero on any violation. ``--artifacts DIR`` additionally
copies the Chrome traces (inline + stitched) and the Prometheus text
into DIR for CI upload.

Run:  PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

try:
    import repro  # noqa: F401
except ImportError:  # launched from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.core.scale import StudyScale
from repro.harness import cache
from repro.obs.metrics import REGISTRY
from repro.obs.provenance import validate_provenance
from repro.obs.trace import TRACER, profile_report
from repro.service import CampaignService
from repro.service.telemetry import TelemetryLog

MODULE = "C5"
TESTS = ("rowhammer",)
SEED = 0

#: Span nesting the trace must exhibit (child -> allowed parents).
#: ``module`` sits under ``campaign`` directly in study runs and under
#: the service's ``service.unit`` span in orchestrated runs (the smoke
#: campaign is orchestrated, so that is where it must be found).
EXPECTED_NESTING = {
    "module": {"campaign", "service.unit"},
    "operating-point": {"module"},
    "bisection": {"operating-point", "rowhammer"},
}

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9+.eE-]+(Inf)?$"
)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"obs smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def validate_chrome_trace(path: str) -> None:
    with open(path) as handle:
        document = json.load(handle)
    check("traceEvents" in document, "trace has no traceEvents key")
    events = document["traceEvents"]
    check(len(events) > 0, "trace is empty")
    by_name = {}
    for event in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            check(key in event, f"trace event missing {key!r}: {event}")
        check(event["ph"] == "X", f"unexpected phase {event['ph']!r}")
        check(event["dur"] >= 0, "negative span duration")
        check(
            isinstance(event["args"].get("depth"), int),
            "span args missing integer depth",
        )
        by_name.setdefault(event["name"], []).append(event)
    for child, parents in EXPECTED_NESTING.items():
        check(child in by_name, f"no {child!r} spans in trace")
        seen_parents = {e["args"].get("parent") for e in by_name[child]}
        check(
            seen_parents & parents,
            f"{child!r} spans nested under {sorted(seen_parents)}, "
            f"expected one of {sorted(parents)}",
        )
    module_parents = {e["args"].get("parent") for e in by_name["module"]}
    check(
        module_parents == {"service.unit"},
        f"orchestrated module spans nested under {sorted(module_parents)}, "
        "expected the service.unit span",
    )
    campaign = by_name.get("campaign", [])
    check(len(campaign) == 1, "expected exactly one campaign span")
    check(campaign[0]["args"]["depth"] == 0, "campaign span not root")
    module = by_name["module"][0]
    check(
        module["ts"] >= campaign[0]["ts"]
        and module["ts"] + module["dur"]
        <= campaign[0]["ts"] + campaign[0]["dur"] + 1,
        "module span not contained in the campaign span",
    )
    print(f"  trace: {len(events)} spans, "
          f"{len(by_name)} distinct names, nesting OK")


def validate_prometheus(text: str) -> None:
    check(text.endswith("\n"), "exposition must end with a newline")
    histogram_state = {}
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            check(kind in ("counter", "gauge", "histogram"),
                  f"unknown metric type {kind!r}")
            typed[name] = kind
            continue
        check(not line.startswith("#"), f"malformed comment: {line!r}")
        check(_SAMPLE_RE.match(line), f"malformed sample line: {line!r}")
        name = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base in typed and typed[base] == "histogram":
            state = histogram_state.setdefault(
                base, {"buckets": [], "count": None}
            )
            value = float(line.rsplit(" ", 1)[1].replace("+Inf", "inf"))
            if name.endswith("_bucket"):
                state["buckets"].append(value)
            elif name.endswith("_count"):
                state["count"] = value
        else:
            check(name in typed, f"sample {name!r} has no TYPE line")
    check(typed, "no metrics exposed")
    for base, state in histogram_state.items():
        buckets = state["buckets"]
        check(buckets == sorted(buckets),
              f"{base}: histogram buckets not cumulative")
        check(buckets and state["count"] == buckets[-1],
              f"{base}: +Inf bucket != count")
    histograms = sum(1 for kind in typed.values() if kind == "histogram")
    print(f"  metrics: {len(typed)} metrics "
          f"({histograms} histograms), exposition OK")


def validate_events(events) -> None:
    check(len(events) > 0, "no telemetry events")
    for record in events:
        check("ts" in record and "mono" in record,
              f"event missing ts/mono: {record}")
    kinds = [record["event"] for record in events]
    check(kinds[0] == "campaign_started", "first event not campaign_started")
    check(kinds[-1] == "campaign_finished", "last event not campaign_finished")
    print(f"  events: {len(events)} records, all carry ts+mono")


def validate_cache_provenance(tmp: str, scale: StudyScale) -> None:
    previous = cache.set_study_cache_dir(os.path.join(tmp, "cache"))
    try:
        cache.clear_cache()
        fresh = cache.get_study(TESTS, modules=(MODULE,), scale=scale,
                                seed=SEED)
        check(fresh.provenance is not None, "fresh study has no provenance")
        validate_provenance(fresh.provenance)
        check(fresh.provenance["cache"] == "miss",
              "fresh study not marked as a cache miss")
        cache.clear_cache()  # force the disk layer
        reloaded = cache.get_study(TESTS, modules=(MODULE,), scale=scale,
                                   seed=SEED)
        check(reloaded.provenance is not None,
              "provenance lost in the disk round trip")
        validate_provenance(reloaded.provenance)
        check(reloaded.provenance == fresh.provenance,
              "provenance changed in the disk round trip")
    finally:
        cache.clear_cache()
        cache.set_study_cache_dir(previous)
    print("  provenance: schema-valid, disk round trip OK")


def validate_stitched_api_trace(tmp: str) -> dict:
    """An API-submitted ``workers: 2`` job must produce one stitched
    trace spanning HTTP admission -> orchestrator -> pool workers."""
    from repro.api.jobs import run_job
    from repro.api.server import ApiServer
    from repro.obs import context as obs_context

    TRACER.reset()
    TRACER.label = "repro.api coordinator"
    TRACER.enable()
    obs_context.clear_fragments()
    api = ApiServer(
        os.path.join(tmp, "store"), os.path.join(tmp, "state"), workers=1
    )
    status, document = api.handle("POST", "/v1/jobs", {}, {
        "modules": [MODULE], "tests": list(TESTS), "scale": "tiny",
        "seed": SEED, "workers": 2,
    }, "smoke")
    check(status == 202, f"job submission failed: {document}")
    trace_id = document["job"]["trace"]["trace_id"]
    check(bool(trace_id), "admitted job carries no trace id")
    job = api.queue.pop(timeout=1.0)
    check(job is not None, "submitted job never became poppable")
    run_job(job, api.store, api.checkpoint_base,
            flight_base=api.flight_base)
    check(job.state == "completed", f"api job failed: {job.error}")
    status, payload = api.handle(
        "GET", f"/v1/jobs/{job.id}/trace", {}, None, "smoke"
    )
    check(status == 200, f"trace endpoint failed: {payload}")
    stitched = payload["trace"]
    slices = [e for e in stitched["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in slices}
    expected = {"api.admission", "api.job", "campaign", "work-unit"}
    check(expected <= names,
          f"stitched trace misses spans: {sorted(expected - names)}")
    trace_ids = {e["args"].get("trace") for e in slices}
    check(trace_ids == {trace_id},
          f"stitched trace mixes trace ids: {trace_ids}")
    pids = {e["pid"] for e in slices}
    check(len(pids) >= 2,
          "stitched trace has a single process lane (no worker spans)")
    flows = [
        e for e in stitched["traceEvents"]
        if e.get("cat") == "repro.flow"
    ]
    check(bool(flows), "no cross-process flow events over the queue hop")
    text = REGISTRY.prometheus_text()
    for needle in (
        'repro_api_queue_wait_seconds_bucket{tenant="smoke"',
        'repro_api_job_seconds_count{tenant="smoke"',
    ):
        check(needle in text,
              f"per-tenant SLO series missing from /metrics: {needle}")
    validate_worker_attribution()
    TRACER.disable()
    obs_context.clear_fragments()
    print(f"  stitched: one trace ({trace_id[:8]}...) across "
          f"{len(pids)} processes, {len(flows) // 2} queue-hop flows, "
          "per-tenant SLO series exposed")
    return stitched


#: Phases a pooled run executes only in its workers.
WORKER_PHASES = ("module", "wcdp", "rowhammer")


def validate_worker_attribution() -> None:
    """The ``--profile`` table of the pooled run just traced must carry
    worker-lane time for the phases only the workers execute."""
    rows = {
        line.split()[0]: line
        for line in profile_report().splitlines()
        if line and not line.startswith("--")
    }
    for phase in WORKER_PHASES:
        check(phase in rows, f"--profile table has no {phase!r} row")
        check("in workers" in rows[phase],
              f"--profile {phase!r} row has no worker time: {rows[phase]}")
    print(f"  profile: {', '.join(WORKER_PHASES)} time attributed to "
          "worker lanes")


def _emit_artifacts(directory, inline_trace_path, stitched) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(inline_trace_path) as handle:
        inline = handle.read()
    with open(os.path.join(directory, "trace-inline.json"), "w") as out:
        out.write(inline)
    with open(
        os.path.join(directory, "trace-stitched.json"), "w"
    ) as out:
        json.dump(stitched, out)
    with open(os.path.join(directory, "metrics.prom"), "w") as out:
        out.write(REGISTRY.prometheus_text())
    print(f"  artifacts: trace-inline.json, trace-stitched.json, "
          f"metrics.prom -> {directory}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="also write the Chrome traces and Prometheus text here "
             "(CI uploads these as workflow artifacts)",
    )
    args = parser.parse_args(argv)
    scale = StudyScale.tiny()
    TRACER.reset()
    TRACER.enable()
    print("obs smoke: tiny traced campaign...")
    with tempfile.TemporaryDirectory() as tmp:
        with TelemetryLog(os.path.join(tmp, "events.jsonl")) as telemetry:
            service = CampaignService(
                modules=[MODULE], tests=TESTS, scale=scale, seed=SEED,
                telemetry=telemetry,
            )
            service.run()
            events = list(telemetry.events)
        trace_path = os.path.join(tmp, "trace.json")
        TRACER.write_chrome_trace(trace_path)
        TRACER.disable()
        validate_chrome_trace(trace_path)
        validate_prometheus(REGISTRY.prometheus_text())
        validate_events(events)
        validate_cache_provenance(tmp, scale)
        stitched = validate_stitched_api_trace(tmp)
        if args.artifacts:
            _emit_artifacts(args.artifacts, trace_path, stitched)
    print("obs smoke: trace + metrics + events + provenance + "
          "stitched API trace + worker profile OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
