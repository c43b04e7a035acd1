"""Byte-level pin of the metrics registry's output.

The conformance suite checks the exposition grammar; this module checks
the exact bytes. ``metrics_golden.json`` holds, for the mixed registry
built by :func:`_mixed_registry`, the Prometheus text, the snapshot,
a snapshot delta, the text after merging that delta into an existing
and into a fresh registry (and a whole snapshot into a fresh one), the
``counter_values`` views and the message of every registry error.
Snapshots and deltas are compared as their ``json.dumps`` text, so key
order and ``int``/``float`` types are pinned along with the values.

Regenerate the fixture only for a deliberate change of the wire format
or the exposition: ``python tests/obs/test_metrics_golden.py --record``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, snapshot_delta

GOLDEN = pathlib.Path(__file__).with_name("metrics_golden.json")


def _mixed_registry() -> MetricsRegistry:
    """Plain and labeled counters, gauges and histograms, an escaped
    label value, an empty labeled family and a counter that is never
    incremented."""
    registry = MetricsRegistry()
    registry.counter("repro_jobs_total", "jobs admitted").inc(3)
    registry.counter("repro_idle_total", "never incremented")
    registry.gauge("repro_queue_depth", "jobs waiting").set(2.5)
    registry.gauge("repro_workers").set(4)
    plain = registry.histogram(
        "repro_wait_seconds", "queue wait", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 5.0, 50.0):
        plain.observe(value)
    counters = registry.counter(
        "repro_probes_total", "probes by kind and reason",
        labels=("kind", "reason"),
    )
    counters.labels(kind="hammer", reason="sensing").inc(2)
    counters.labels(kind="retention", reason="guard").inc(0.5)
    registry.counter(
        "repro_escapes_total", "label escaping", labels=("path",),
    ).labels(path='C:\\dir\n"quoted"').inc()
    registry.counter(
        "repro_empty_total", "no series yet", labels=("tenant",)
    )
    gauges = registry.gauge(
        "repro_tenant_inflight", "per-tenant in-flight jobs",
        labels=("tenant",),
    )
    gauges.labels(tenant="acme").set(3)
    gauges.labels(tenant="zeta").set(1.25)
    labeled = registry.histogram(
        "repro_tenant_wait_seconds", "per-tenant queue wait",
        labels=("tenant",), buckets=(1.0, 10.0),
    )
    labeled.labels(tenant="acme").observe(0.5)
    labeled.labels(tenant="acme").observe(20.0)
    labeled.labels(tenant="beta").observe(2.0)
    return registry


def _advance(registry: MetricsRegistry) -> None:
    """Mutations between a baseline and the current snapshot: some
    series change, some appear, some stay put."""
    registry.counter("repro_jobs_total").inc(2)
    registry.counter("repro_new_total", "appears after the baseline").inc()
    registry.gauge("repro_queue_depth").set(1)
    registry.histogram(
        "repro_wait_seconds", buckets=(0.1, 1.0, 10.0)
    ).observe(0.25)
    registry.counter(
        "repro_probes_total", labels=("kind", "reason")
    ).labels(kind="program", reason="sensing").inc(7)
    registry.histogram(
        "repro_tenant_wait_seconds", labels=("tenant",),
        buckets=(1.0, 10.0),
    ).labels(tenant="beta").observe(0.75)


def _errors() -> list:
    """The message of every error the registry raises."""
    registry = _mixed_registry()
    attempts = [
        lambda: registry.counter("0bad name"),
        lambda: registry.counter("repro_bad_label", labels=("0x",)),
        lambda: registry.gauge("repro_jobs_total"),
        lambda: registry.counter("repro_jobs_total", labels=("tenant",)),
        lambda: registry.counter("repro_empty_total"),
        lambda: registry.counter("repro_empty_total", labels=("engine",)),
        lambda: registry.counter("repro_jobs_total").inc(-1),
        lambda: registry.counter("repro_empty_total").inc(),
        lambda: registry.histogram(
            "repro_tenant_wait_seconds", labels=("tenant",),
            buckets=(1.0, 10.0),
        ).observe(1.0),
        lambda: registry.counter(
            "repro_probes_total", labels=("kind", "reason")
        ).labels(kind="hammer"),
        lambda: registry.histogram("repro_no_buckets", buckets=()),
        lambda: registry.merge_snapshot({"histograms": {
            "repro_wait_seconds": {
                "buckets": [5.0], "counts": [0, 1], "sum": 6.0,
                "count": 1,
            },
        }}),
        lambda: registry.merge_snapshot({"histograms": {
            "repro_tenant_wait_seconds": {
                "labels": ["tenant"], "buckets": [5.0], "series": {},
            },
        }}),
    ]
    messages = []
    for attempt in attempts:
        with pytest.raises(ConfigurationError) as raised:
            attempt()
        messages.append(str(raised.value))
    return messages


def _render() -> dict:
    registry = _mixed_registry()
    out = {
        "exposition": registry.prometheus_text(),
        "snapshot": json.dumps(registry.snapshot()),
        "counter_values": json.dumps(registry.counter_values()),
    }
    baseline = registry.snapshot()
    _advance(registry)
    delta = snapshot_delta(baseline, registry.snapshot())
    out["delta"] = json.dumps(delta)
    existing = _mixed_registry()
    existing.merge_snapshot(delta)
    out["merged_existing"] = existing.prometheus_text()
    fresh = MetricsRegistry()
    fresh.merge_snapshot(json.loads(json.dumps(delta)))
    out["merged_fresh"] = fresh.prometheus_text()
    whole = MetricsRegistry()
    whole.merge_snapshot(registry.snapshot())
    out["merged_whole_snapshot"] = whole.prometheus_text()
    out["merged_counter_values"] = json.dumps(whole.counter_values())
    out["errors"] = json.dumps(_errors(), indent=1)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rendered() -> dict:
    return _render()


@pytest.mark.parametrize("key", [
    "exposition", "snapshot", "counter_values", "delta",
    "merged_existing", "merged_fresh", "merged_whole_snapshot",
    "merged_counter_values", "errors",
])
def test_output_matches_golden_bytes(golden, rendered, key):
    assert rendered[key] == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_metrics_golden.py --record")
    GOLDEN.write_text(json.dumps(_render(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
