"""Cross-process trace context and Chrome-trace stitching.

PR 5's tracer recorded spans per process: a job admitted over HTTP, run
by the orchestrator and executed on pool workers produced three
unrelated trace fragments. This module is the glue that turns them into
one causal trace:

* :class:`TraceContext` -- the ``(trace_id, span_id)`` pair minted at
  the edge (API job admission, a runner invocation) and carried through
  job records, orchestrator work units and checkpoint manifests. While
  a context is :func:`activate`\\ d on a thread, every *root* span the
  tracer opens re-parents under ``span_id`` and inherits ``trace_id``,
  so spans recorded in a pool worker hang off the submitting job's
  admission span even though they were recorded in another process.
* a process-local **fragment collector** -- coordinators deposit the
  Chrome-trace fragments their pool workers return
  (:func:`add_fragment`); :func:`stitched_trace` merges them with the
  local tracer's own document.
* :func:`stitch_traces` -- aligns fragments onto one wall-clock
  timebase (each fragment carries its epoch), keeps every process on
  its own ``pid`` lane (named via ``process_name`` metadata events),
  and emits Chrome flow events (``ph: "s"``/``"f"``) wherever a span's
  parent lives in a *different* process -- the queue hop from the
  coordinator's ``campaign`` span to each worker's ``work-unit`` span
  renders as an arrow in Perfetto.

Identifiers are minted from ``os.urandom`` plus the pid, so fragments
recorded by concurrent processes never collide; nothing here touches
the sanctioned clock except through :mod:`repro.obs.clock`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex, W3C-trace-context sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh span id, unique across processes (pid-salted)."""
    return f"{os.getpid():x}-{next(_SPAN_IDS):x}-{os.urandom(3).hex()}"


_SPAN_IDS = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """One hop of trace propagation: which trace, and which parent span.

    ``span_id`` names the span new roots should parent under (the API
    admission span, the orchestrator's campaign span); ``None`` means
    "same trace, no remote parent".
    """

    trace_id: str
    span_id: Optional[str] = None

    def child(self, span_id: str) -> "TraceContext":
        """The context a downstream hop should carry (same trace,
        re-parented under ``span_id``)."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (job records, work units, manifests)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["TraceContext"]:
        """Rehydrate a propagated context; ``None``/empty stays None."""
        if not payload or not payload.get("trace_id"):
            return None
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=payload.get("span_id"),
        )


def new_context() -> TraceContext:
    """Mint a fresh root context (one per admitted job / invocation)."""
    return TraceContext(trace_id=new_trace_id())


_local = threading.local()


def current() -> Optional[TraceContext]:
    """The context active on this thread, or None."""
    return getattr(_local, "context", None)


@contextmanager
def activate(context: Optional[TraceContext]):
    """Make ``context`` the thread's ambient trace context.

    Root spans opened while active parent under ``context.span_id`` and
    carry ``context.trace_id``. Activating ``None`` is a no-op pass
    (handy for optional propagation call sites).
    """
    previous = getattr(_local, "context", None)
    _local.context = context if context is not None else previous
    try:
        yield context
    finally:
        _local.context = previous


# -- fragment collection ---------------------------------------------------------

_fragments_lock = threading.Lock()
_fragments: List[Dict[str, Any]] = []


def add_fragment(document: Dict[str, Any]) -> None:
    """Deposit one Chrome-trace fragment (a pool worker's export)."""
    if not document or not document.get("traceEvents"):
        return
    with _fragments_lock:
        _fragments.append(document)


def fragments() -> List[Dict[str, Any]]:
    """The collected fragments (a copy)."""
    with _fragments_lock:
        return list(_fragments)


def clear_fragments() -> None:
    """Drop every collected fragment (tests, tracer reset)."""
    with _fragments_lock:
        _fragments.clear()


def stitched_trace(
    trace_id: Optional[str] = None, include_local: bool = True,
) -> Dict[str, Any]:
    """One cross-process Chrome trace: the local tracer's document plus
    every collected worker fragment, optionally filtered to one trace.
    """
    from repro.obs.trace import TRACER

    docs = [TRACER.chrome_trace()] if include_local else []
    docs.extend(fragments())
    return stitch_traces(docs, trace_id=trace_id)


def write_stitched_trace(path: str) -> str:
    """Write :func:`stitched_trace` as JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(stitched_trace(), handle)
    return path


def stitch_traces(
    documents: Iterable[Dict[str, Any]],
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Merge per-process Chrome-trace fragments into one document.

    * fragments are re-anchored onto the earliest fragment's wall-clock
      epoch, so spans from different processes line up on one timeline;
    * each process keeps its own ``pid`` lane, labeled with the
      fragment's ``process_label`` via a ``process_name`` metadata
      event;
    * wherever a span's recorded ``parent_id`` resolves to a span in a
      *different* pid, a flow-event pair (``ph: "s"`` on the parent's
      lane, ``ph: "f"`` on the child's) draws the cross-process hop;
    * ``trace_id`` (optional) keeps only spans of that trace.
    """
    docs = [d for d in documents if d and d.get("traceEvents")]
    if not docs:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs", "stitched": 0},
        }
    epochs = [
        float(d.get("otherData", {}).get("epoch_unix_seconds", 0.0))
        for d in docs
    ]
    base = min(epochs)
    events: List[Dict[str, Any]] = []
    labels: Dict[int, str] = {}
    by_span_id: Dict[str, Dict[str, Any]] = {}
    for document, epoch in zip(docs, epochs):
        shift = (epoch - base) * 1e6
        for event in document["traceEvents"]:
            args = event.get("args") or {}
            if trace_id is not None and args.get("trace") != trace_id:
                continue
            shifted = dict(event, ts=round(event["ts"] + shift, 3))
            events.append(shifted)
            span_id = args.get("id")
            if span_id:
                by_span_id[span_id] = shifted
            pid = event.get("pid")
            if pid is not None and pid not in labels:
                labels[pid] = document.get("otherData", {}).get(
                    "process_label", f"pid-{pid}"
                )
    flow_ids = itertools.count(1)
    flows: List[Dict[str, Any]] = []
    for event in events:
        args = event.get("args") or {}
        parent = by_span_id.get(args.get("parent_id") or "")
        if parent is None or parent["pid"] == event["pid"]:
            continue
        flow_id = next(flow_ids)
        # The start of the flow sits on the parent's lane, clamped into
        # the parent slice so Perfetto binds the arrow to it.
        start_ts = min(event["ts"], parent["ts"] + parent.get("dur", 0))
        flows.append({
            "name": "queue-hop", "cat": "repro.flow", "ph": "s",
            "id": flow_id, "pid": parent["pid"], "tid": parent["tid"],
            "ts": max(start_ts, parent["ts"]),
        })
        flows.append({
            "name": "queue-hop", "cat": "repro.flow", "ph": "f",
            "bp": "e", "id": flow_id, "pid": event["pid"],
            "tid": event["tid"], "ts": event["ts"],
        })
    metadata = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        }
        for pid, label in sorted(labels.items())
    ]
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": metadata + events + flows,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "epoch_unix_seconds": round(base, 6),
            "stitched": len(docs),
            "pids": sorted(labels),
        },
    }


__all__ = [
    "TraceContext",
    "activate",
    "add_fragment",
    "clear_fragments",
    "current",
    "fragments",
    "new_context",
    "new_span_id",
    "new_trace_id",
    "stitch_traces",
    "stitched_trace",
    "write_stitched_trace",
]
