"""Hierarchical span tracing (near-zero overhead while disabled).

A :class:`Tracer` records nested, attribute-carrying spans::

    with TRACER.span("module", module="B3", engine="fused"):
        with TRACER.span("operating-point", vpp=2.5):
            ...

While disabled (the default) ``span()`` costs one attribute check and
returns a shared no-op context manager -- hot paths stay hot. Enabled,
each span costs two monotonic reads and one list append; nesting is
tracked per thread, so spans opened on worker threads parent correctly.

Every recorded span carries a process-unique ``span_id``, its parent's
``parent_id`` and a ``trace_id``. Root spans adopt the thread's ambient
:class:`~repro.obs.context.TraceContext` when one is
:func:`~repro.obs.context.activate`\\ d -- that is how a pool worker's
spans re-parent under the submitting job's admission span -- and fall
back to a tracer-default trace id minted at :meth:`Tracer.enable`.

Finished spans export three ways:

* :meth:`Tracer.chrome_trace` / :meth:`Tracer.write_chrome_trace` --
  the Chrome trace-event JSON format (``"X"`` complete events) that
  ``chrome://tracing`` and Perfetto load directly (the runner's
  ``--trace trace.json`` flag);
* :func:`repro.obs.context.stitched_trace` -- the same document merged
  with worker fragments into one cross-process trace;
* :func:`span_table` / :func:`profile_report` -- a per-span-name
  total-time/count table over any such document; the runner's
  ``--profile`` prints it for the stitched trace, so pool workers'
  phases count.

``Tracer.on_record`` is an optional single-subscriber hook invoked with
each finished :class:`Span` (outside the tracer lock); the flight
recorder (:mod:`repro.obs.flightrec`) uses it to keep its ring current.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import clock
from repro.obs import context as obs_context
from repro.obs.metrics import REGISTRY, _format_value


@dataclass
class Span:
    """One finished span."""

    name: str
    #: Start offset in seconds relative to the tracer's epoch.
    start: float
    #: Duration in seconds.
    duration: float
    #: Nesting depth at record time (0 = root).
    depth: int
    #: Name of the enclosing span, or None for roots.
    parent: Optional[str]
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Process-unique identifier of this span.
    span_id: str = ""
    #: ``span_id`` of the enclosing span -- the top of the thread's
    #: stack for nested spans, the ambient trace context's ``span_id``
    #: for roots recorded under a propagated context, else None.
    parent_id: Optional[str] = None
    #: Trace this span belongs to (ambient context's, or the tracer's
    #: default minted at enable()).
    trace_id: Optional[str] = None


class _NullSpan:
    """No-op context manager handed out while tracing is disabled."""

    __slots__ = ()

    #: Disabled spans have no identity.
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        """Ignore attributes (disabled tracer)."""

    def context(self) -> None:
        """Disabled spans carry no propagatable context."""
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; records itself into the tracer on exit."""

    __slots__ = (
        "_tracer", "_name", "_attrs", "_start", "_parent", "_depth",
        "span_id", "_parent_id", "_trace_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._parent: Optional[str] = None
        self._depth = 0
        self.span_id = ""
        self._parent_id: Optional[str] = None
        self._trace_id: Optional[str] = None

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self._attrs.update(attrs)

    def context(self) -> Optional["obs_context.TraceContext"]:
        """The :class:`~repro.obs.context.TraceContext` a downstream
        hop should carry to re-parent under this span."""
        if self._trace_id is None:
            return None
        return obs_context.TraceContext(
            trace_id=self._trace_id, span_id=self.span_id
        )

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self.span_id = obs_context.new_span_id()
        if stack:
            self._parent, self._parent_id, self._trace_id = stack[-1]
        else:
            ambient = obs_context.current()
            if ambient is not None:
                self._parent_id = ambient.span_id
                self._trace_id = ambient.trace_id
            else:
                self._trace_id = tracer.trace_id
        self._depth = len(stack)
        stack.append((self._name, self.span_id, self._trace_id))
        self._start = clock.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        duration = clock.monotonic() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1][1] == self.span_id:
            stack.pop()
        tracer._record(
            Span(
                name=self._name,
                start=self._start - tracer._epoch,
                duration=duration,
                depth=self._depth,
                parent=self._parent,
                tid=threading.get_ident(),
                attrs=self._attrs,
                span_id=self.span_id,
                parent_id=self._parent_id,
                trace_id=self._trace_id,
            )
        )


class Tracer:
    """Collects hierarchical spans; disabled by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: Default trace id for roots with no ambient context.
        self.trace_id: Optional[str] = None
        #: Human label for this process's lane in stitched traces.
        self.label: Optional[str] = None
        #: Optional hook called with each finished Span (flight rec).
        self.on_record: Optional[Callable[[Span], None]] = None
        self._epoch = clock.monotonic()
        self._epoch_wall = clock.wall()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans (epoch anchors at the call)."""
        if not self.enabled:
            self._epoch = clock.monotonic()
            self._epoch_wall = clock.wall()
            if self.trace_id is None:
                self.trace_id = obs_context.new_trace_id()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-recorded spans are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded span and re-anchor the epoch."""
        with self._lock:
            self.spans.clear()
        self._local = threading.local()
        self.trace_id = obs_context.new_trace_id() if self.enabled else None
        self._epoch = clock.monotonic()
        self._epoch_wall = clock.wall()

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, **attrs):
        """Open a span named ``name`` with the given attributes.

        Returns a context manager; a shared no-op one while disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def _stack(self) -> List[Tuple[str, str, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
        hook = self.on_record
        if hook is not None:
            try:
                hook(span)
            except Exception:  # pragma: no cover - diagnostics only
                pass

    # -- export ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome trace-event document.

        Every span becomes one ``"X"`` (complete) event with
        microsecond ``ts``/``dur`` relative to the tracer epoch; the
        document loads directly in Perfetto / ``chrome://tracing``.
        ``args`` carries the span/parent/trace identifiers the stitcher
        (:func:`repro.obs.context.stitch_traces`) keys on.
        """
        pid = os.getpid()
        with self._lock:
            spans = list(self.spans)
        events = [
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": span.tid % 2 ** 31,
                "args": dict(span.attrs, depth=span.depth,
                             parent=span.parent, id=span.span_id,
                             parent_id=span.parent_id,
                             trace=span.trace_id),
            }
            for span in sorted(spans, key=lambda s: s.start)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs",
                "epoch_unix_seconds": round(self._epoch_wall, 6),
                "process_label": self.label or f"pid-{pid}",
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` as JSON; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        return path


#: Process-global tracer; the runner's ``--trace`` flag enables it.
TRACER = Tracer()


def span_table(
    document: Dict[str, Any],
) -> Dict[str, Tuple[int, float, float]]:
    """Per-span-name ``(count, total seconds, seconds in other
    processes)`` over the complete (``"X"``) events of a Chrome-trace
    document -- a local export or a stitched one, whose worker lanes
    carry other pids."""
    local = os.getpid()
    totals: Dict[str, Tuple[int, float, float]] = {}
    for event in document.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        seconds = event["dur"] / 1e6
        count, total, remote = totals.get(event["name"], (0, 0.0, 0.0))
        totals[event["name"]] = (
            count + 1, total + seconds,
            remote + (seconds if event.get("pid") != local else 0.0),
        )
    return totals


def span_report(document: Dict[str, Any]) -> str:
    """:func:`span_table` as a human-readable table, slowest first."""
    totals = span_table(document)
    lines = ["-- spans --------------------------------------------"]
    if not totals:
        lines.append("no spans recorded")
        return "\n".join(lines)
    width = max(len(name) for name in totals)
    for name in sorted(totals, key=lambda n: totals[n][1], reverse=True):
        count, seconds, remote = totals[name]
        line = f"{name:<{width}}  {seconds:9.3f}s  ({count} spans)"
        if remote:
            line += f"  {remote:.3f}s in workers"
        lines.append(line)
    return "\n".join(lines)


def profile_report() -> str:
    """The runner's ``--profile`` report: :func:`span_report` over the
    stitched trace (this process's spans plus every collected
    pool-worker fragment), then the non-zero counters of the global
    metrics registry."""
    lines = [
        "-- profile ------------------------------------------",
        span_report(obs_context.stitched_trace()),
    ]
    counters = {
        name: value
        for name, value in REGISTRY.counter_values().items() if value
    }
    if counters:
        lines.append("-- counters --")
        width = max(len(name) for name in counters)
        lines.extend(
            f"{name:<{width}}  {_format_value(counters[name])}"
            for name in sorted(counters)
        )
    return "\n".join(lines)
