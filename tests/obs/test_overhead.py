"""Observability cost contracts.

Two guarantees the tentpole PR makes:

* with the tracer disabled (the default) a campaign records no spans
  and the span call sites cost well under 5% of the campaign's wall
  clock (the disabled path is one boolean check returning a shared
  no-op singleton);
* turning every observability surface on (tracer, progress reporter on
  the event bus) changes no study result bit-for-bit --
  observation never perturbs the physics.
"""

import io
import json

from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.obs.progress import ProgressReporter
from repro.obs.trace import TRACER

MODULES = ["C5"]
TESTS = ("rowhammer",)
SEED = 3


def _run_campaign():
    study = CharacterizationStudy(scale=StudyScale.tiny(), seed=SEED)
    return study.run(modules=MODULES, tests=TESTS)


def test_disabled_tracer_records_no_spans():
    assert not TRACER.enabled
    _run_campaign()
    assert TRACER.spans == []


def test_disabled_span_sites_cost_under_five_percent():
    # Wall clock of the campaign with tracing off (span sites still
    # execute their disabled fast path).
    started = clock.monotonic()
    _run_campaign()
    campaign_seconds = clock.monotonic() - started

    # How many span sites does that campaign actually pass through?
    TRACER.enable()
    _run_campaign()
    span_calls = len(TRACER.spans)
    TRACER.disable()
    TRACER.reset()
    assert span_calls > 0

    # Per-call cost of the disabled fast path, amortized over a tight
    # loop so timer resolution does not dominate.
    loops = 200_000
    started = clock.monotonic()
    for _ in range(loops):
        TRACER.span("probe-batch")
    per_call = (clock.monotonic() - started) / loops

    overhead = span_calls * per_call
    assert overhead < 0.05 * campaign_seconds, (
        f"{span_calls} disabled span sites cost {overhead:.6f}s "
        f"of a {campaign_seconds:.3f}s campaign"
    )


def test_full_observability_changes_no_result_bits():
    baseline = study_to_dict(_run_campaign())

    TRACER.enable()
    try:
        with ProgressReporter(stream=io.StringIO(), min_interval=0.0):
            observed = study_to_dict(_run_campaign())
    finally:
        TRACER.disable()
        TRACER.reset()

    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        observed, sort_keys=True
    )


def test_enabled_run_actually_records():
    hammer_probes = "repro_probes_hammer_total"
    before = REGISTRY.counter_values().get(hammer_probes, 0)
    TRACER.enable()
    try:
        _run_campaign()
        names = {span.name for span in TRACER.spans}
        assert {"campaign", "module", "operating-point"} <= names
        after = REGISTRY.counter_values().get(hammer_probes, 0)
        assert after > before
    finally:
        TRACER.disable()
        TRACER.reset()
