"""repro.obs -- the unified observability layer.

One substrate underneath the runner, campaigns, probe engines, study
cache and orchestration service (see ``docs/OBSERVABILITY.md``):

* :data:`TRACER` -- hierarchical span tracing
  (``campaign > module > operating-point > bisection > probe-batch``),
  exportable as Chrome-trace/Perfetto JSON and as an aggregated
  per-span-name table (:mod:`repro.obs.trace`);
* :data:`REGISTRY` -- the central metrics registry (counters, gauges,
  histograms) with Prometheus text exposition and cross-process
  snapshot/merge (:mod:`repro.obs.metrics`);
* :mod:`repro.obs.events` -- the campaign event bus every producer
  publishes to and every sink (telemetry file, live progress) consumes
  from;
* :class:`ProgressReporter` -- the live rate/ETA progress line
  (:mod:`repro.obs.progress`);
* provenance manifests -- :func:`build_provenance` /
  :func:`validate_provenance` blocks attached to every exported
  study/result JSON (:mod:`repro.obs.provenance`);
* :mod:`repro.obs.clock` -- the sanctioned ``wall``/``monotonic`` time
  sources (``make lint`` forbids direct ``time.time()`` timing in
  ``repro.core`` and ``repro.service``);
* :mod:`repro.obs.context` -- cross-process trace propagation
  (:class:`TraceContext`, fragment collection, Chrome-trace stitching);
* :data:`RECORDER` -- the flight recorder, a bounded ring of recent
  spans/events/metric deltas flushed to JSON dumps by failure paths
  (:mod:`repro.obs.flightrec`).

Everything is a no-op by default: the tracer hands out a shared null
span while disabled, the event bus iterates an empty sink list, and
the registry only mutates at coarse-grained sites.
"""

from __future__ import annotations

from repro.obs import clock, context, events
from repro.obs.context import (
    TraceContext,
    new_context,
    stitch_traces,
    stitched_trace,
    write_stitched_trace,
)
from repro.obs.flightrec import FlightRecorder, RECORDER, recent_dumps
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    prometheus_text,
    snapshot_delta,
)
from repro.obs.progress import ProgressReporter
from repro.obs.provenance import (
    PROVENANCE_SCHEMA,
    build_provenance,
    code_version,
    validate_provenance,
)
from repro.obs.trace import Span, TRACER, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "MetricFamily",
    "MetricsRegistry",
    "PROVENANCE_SCHEMA",
    "ProgressReporter",
    "RECORDER",
    "REGISTRY",
    "Span",
    "TRACER",
    "TraceContext",
    "Tracer",
    "build_provenance",
    "clock",
    "code_version",
    "context",
    "events",
    "new_context",
    "prometheus_text",
    "recent_dumps",
    "snapshot_delta",
    "stitch_traces",
    "stitched_trace",
    "validate_provenance",
    "write_stitched_trace",
]

