"""Outside-in layer ledger for the traced benchmark run.

The benchmark measures each layer from outside: while a traced rep
runs, the public entry points of ``repro.core``, ``repro.dram``,
``repro.softmc``, ``repro.harness``, ``repro.service`` and
``repro.api`` are replaced by wrappers that record one span per call
(name, start, end, parent, thread). Nothing under ``src/`` changes, and
untraced reps run the original functions.

Spans stay in memory. At exit they are written as Chrome-trace JSON,
and :meth:`Recorder.layer_table` folds them into calls, busy seconds,
self seconds (busy time minus the child spans it covers) and share of
end-to-end time, plus the unattributed share: the part of the
benchmark's own operation spans during which no layer span was open on
any thread.

Work done inside pool worker processes is invisible here; on the
service workload it shows only as ``service.run``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Prefix of the benchmark's own operation spans (the roots).
OP_PREFIX = "op."

#: Span name of the reference-kernel slices (see ``hostref.py``).
HOST_REF = "host.ref"


def _layer_targets() -> Dict[str, List[Tuple[Any, str]]]:
    """Layer name -> the (owner, attribute) pairs wrapped for it.

    ``repro.core.study`` binds the WCDP functions by name at import, so
    they are wrapped both there and in their own module.
    """
    from repro.api.jobs import JobStateDir
    from repro.core import retention, rowhammer, study, trcd, wcdp
    from repro.core.fused import FusedProbeEngine
    from repro.core.probe import BatchProbeEngine
    from repro.dram.bank import Bank
    from repro.harness.store import StudyStore
    from repro.service.orchestrator import CampaignService
    from repro.softmc.host import SoftMCHost

    wcdp_names = ("rowhammer_wcdp", "trcd_wcdp", "retention_wcdp")
    return {
        "core.wcdp": [(wcdp, n) for n in wcdp_names]
        + [(study, n) for n in wcdp_names],
        "core.alg1": [(rowhammer, "characterize_row")],
        "core.alg2": [(trcd, "characterize_row")],
        "core.alg3": [(retention, "characterize_row")],
        "core.preheat": [
            (BatchProbeEngine, "preheat"), (FusedProbeEngine, "preheat"),
        ],
        "dram.sweep": [(Bank, "hammer_sweep"), (Bank, "retention_sweep")],
        "softmc.execute": [(SoftMCHost, "execute")],
        "api.persist": [(JobStateDir, "save")],
        "service.run": [(CampaignService, "run")],
        "harness.store.publish": [(StudyStore, "store")],
        "harness.store.read": [
            (StudyStore, "load"), (StudyStore, "load_dict"),
            (StudyStore, "contains"),
        ],
    }


#: Every layer the table reports, in ledger order (outermost first).
#: ``api.submit``/``api.poll``/``api.fetch`` are the client's calls and
#: ``host.ref`` the reference-kernel slices timed during traced reps.
LAYERS = (
    "harness.store.publish", "harness.store.read", "service.run",
    "api.submit", "api.poll", "api.fetch", "api.persist",
    "core.preheat", "core.wcdp", "core.alg1", "core.alg2", "core.alg3",
    "dram.sweep", "softmc.execute", "host.ref",
)


class Recorder:
    """In-memory span recorder plus the wrappers that feed it.

    Recording takes no lock: ``list.append`` is atomic, and a span may
    be opened from a signal handler (the reference-kernel slices) while
    the interrupted code is itself inside :meth:`span`.
    """

    def __init__(self):
        #: Span records: name, start/end (``perf_counter_ns``), the
        #: parent record (same thread) or None, and the thread id.
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block. A span nested directly in
        a span of the same name (a wrapped method calling its wrapped
        override) is folded into the outer one."""
        stack = self._stack()
        if stack and stack[-1]["name"] == name:
            yield
            return
        record = {
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "tid": threading.get_ident(),
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            stack.remove(record)
            record["end"] = time.perf_counter_ns()

    def _wrapper(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Wrap every layer entry point for the duration of the block,
        restoring the originals afterwards."""
        saved = []
        try:
            for layer, targets in _layer_targets().items():
                for owner, attribute in targets:
                    original = owner.__dict__[attribute]
                    saved.append((owner, attribute, original))
                    setattr(owner, attribute, self._wrapper(layer, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- reporting ----------------------------------------------------------

    def _closed(self) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span["end"] is not None]

    def layer_table(self) -> Dict[str, Any]:
        """Per-layer calls / busy / self seconds and shares, the
        end-to-end time (sum of operation spans) and its unattributed
        share."""
        spans = self._closed()
        covered: Dict[int, int] = {}
        for span in spans:
            if span["parent"] is not None:
                key = id(span["parent"])
                covered[key] = covered.get(key, 0) + (
                    span["end"] - span["start"])
        layers = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in LAYERS
        }
        roots, layer_intervals = [], []
        for span in spans:
            duration = span["end"] - span["start"]
            if span["name"].startswith(OP_PREFIX):
                if span["parent"] is None:
                    roots.append((span["start"], span["end"]))
                continue
            if span["name"] == HOST_REF and span["parent"] is None:
                continue  # a slice between operations: no one's time
            entry = layers.setdefault(
                span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["busy_s"] += duration / 1e9
            entry["self_s"] += (duration - covered.get(id(span), 0)) / 1e9
            layer_intervals.append((span["start"], span["end"]))
        end_to_end = sum(end - start for start, end in roots) / 1e9
        attributed = _overlap(_union(layer_intervals), _union(roots)) / 1e9
        unattributed = max(0.0, end_to_end - attributed)
        for entry in layers.values():
            entry["share"] = entry["busy_s"] / end_to_end if end_to_end else 0.0
            entry["self_share"] = (
                entry["self_s"] / end_to_end if end_to_end else 0.0
            )
        return {
            "end_to_end_s": end_to_end,
            "unattributed_s": unattributed,
            "unattributed_share": (
                unattributed / end_to_end if end_to_end else 0.0
            ),
            "layers": layers,
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome-trace (``X`` events) document."""
        spans = self._closed()
        index = {id(span): position for position, span in enumerate(spans)}
        pid = os.getpid()
        origin = min((span["start"] for span in spans), default=0)
        events = []
        for position, span in enumerate(spans):
            parent = span["parent"]
            events.append({
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - origin) / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "pid": pid,
                "tid": span["tid"],
                "args": {
                    "id": position,
                    "parent": None if parent is None
                    else index.get(id(parent)),
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _union(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _overlap(
    first: List[Tuple[int, int]], second: List[Tuple[int, int]]
) -> int:
    """Total length shared by two sorted, disjoint interval lists."""
    total, i, j = 0, 0, 0
    while i < len(first) and j < len(second):
        start = max(first[i][0], second[j][0])
        end = min(first[i][1], second[j][1])
        if end > start:
            total += end - start
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return total


def active(recorder: Optional[Recorder], name: str):
    """``recorder.span(name)`` when tracing, else a no-op context."""
    return nullcontext() if recorder is None else recorder.span(name)
