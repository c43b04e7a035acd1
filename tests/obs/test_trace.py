"""Hierarchical span tracer: nesting, attrs, Chrome-trace export."""

import json
import threading

from repro.obs.trace import (
    _NULL_SPAN,
    TRACER,
    Tracer,
    span_report,
    span_table,
)


class TestDisabled:
    def test_disabled_span_is_shared_noop_singleton(self):
        # The disabled fast path allocates nothing: every call hands out
        # the same no-op context manager.
        assert TRACER.span("a") is TRACER.span("b") is _NULL_SPAN

    def test_disabled_span_records_nothing(self):
        with TRACER.span("campaign", units=3) as span:
            span.set(extra=1)
        assert TRACER.spans == []

    def test_disable_keeps_recorded_spans(self):
        TRACER.enable()
        with TRACER.span("kept"):
            pass
        TRACER.disable()
        with TRACER.span("dropped"):
            pass
        assert [s.name for s in TRACER.spans] == ["kept"]


class TestNesting:
    def test_parent_and_depth_tracked(self):
        TRACER.enable()
        with TRACER.span("campaign"):
            with TRACER.span("module", module="B3"):
                with TRACER.span("operating-point", vpp=2.5):
                    pass
        by_name = {s.name: s for s in TRACER.spans}
        assert by_name["campaign"].depth == 0
        assert by_name["campaign"].parent is None
        assert by_name["module"].parent == "campaign"
        assert by_name["module"].depth == 1
        assert by_name["operating-point"].parent == "module"
        assert by_name["operating-point"].depth == 2

    def test_children_recorded_before_parents_but_contained(self):
        TRACER.enable()
        with TRACER.span("outer"):
            with TRACER.span("inner"):
                pass
        inner, outer = TRACER.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.start >= outer.start
        assert inner.start + inner.duration <= (
            outer.start + outer.duration + 1e-9
        )

    def test_set_attaches_attrs_to_open_span(self):
        TRACER.enable()
        with TRACER.span("bisection", row=7) as span:
            span.set(probes=12, hcfirst=48000)
        (span,) = TRACER.spans
        assert span.attrs == {"row": 7, "probes": 12, "hcfirst": 48000}

    def test_sibling_spans_share_parent(self):
        TRACER.enable()
        with TRACER.span("module"):
            for vpp in (2.5, 2.0):
                with TRACER.span("operating-point", vpp=vpp):
                    pass
        points = [s for s in TRACER.spans if s.name == "operating-point"]
        assert [s.parent for s in points] == ["module", "module"]

    def test_threads_nest_independently(self):
        TRACER.enable()

        def worker():
            with TRACER.span("worker-root"):
                pass

        with TRACER.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {s.name: s for s in TRACER.spans}
        # The worker's span is a root on its own thread, not a child of
        # the span open on the main thread.
        assert by_name["worker-root"].depth == 0
        assert by_name["worker-root"].parent is None
        assert by_name["worker-root"].tid != by_name["main-root"].tid

    def test_reset_drops_spans(self):
        TRACER.enable()
        with TRACER.span("x"):
            pass
        TRACER.reset()
        assert TRACER.spans == []


class TestChromeTrace:
    def _trace(self):
        TRACER.enable()
        with TRACER.span("campaign", units=1):
            with TRACER.span("module", module="C5"):
                pass
        return TRACER.chrome_trace()

    def test_document_shape(self):
        document = self._trace()
        assert set(document) == {
            "traceEvents", "displayTimeUnit", "otherData",
        }
        assert document["otherData"]["source"] == "repro.obs"

    def test_events_are_complete_events_in_microseconds(self):
        events = self._trace()["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        campaign, module = events  # sorted by start time
        assert campaign["name"] == "campaign"
        assert module["args"]["parent"] == "campaign"
        assert module["args"]["depth"] == 1
        assert module["args"]["module"] == "C5"

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        self._trace()
        path = str(tmp_path / "trace.json")
        assert TRACER.write_chrome_trace(path) == path
        with open(path) as handle:
            document = json.load(handle)
        assert [e["name"] for e in document["traceEvents"]] == [
            "campaign", "module",
        ]


class TestAggregate:
    def test_aggregate_counts_and_totals(self):
        tracer = Tracer()
        tracer.enable()
        for _ in range(3):
            with tracer.span("probe-batch"):
                pass
        with tracer.span("module"):
            pass
        totals = span_table(tracer.chrome_trace())
        assert totals["probe-batch"][0] == 3
        assert totals["module"][0] == 1
        # All local: nothing is attributed to worker processes.
        assert all(
            seconds >= 0 and remote == 0.0
            for _, seconds, remote in totals.values()
        )

    def test_report_lists_every_name(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("bisection"):
            pass
        report = span_report(tracer.chrome_trace())
        assert "-- spans" in report
        assert "bisection" in report and "(1 spans)" in report

    def test_empty_report(self):
        assert "no spans recorded" in span_report(Tracer().chrome_trace())
