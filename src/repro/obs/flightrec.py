"""Flight recorder: a bounded ring of recent observability traffic.

Long characterization campaigns die in ways post-hoc logs cannot
explain: a pool worker hangs mid-probe-batch and the deadline reaper
SIGTERMs the whole pool, or a module trips quarantine after its retry
budget. The flight recorder keeps the *last moments* available: a
fixed-size in-memory ring of recent spans, telemetry events and merged
metric deltas that the failure paths (fault injection, the ``--timeout``
reaper, quarantine) flush to a JSON dump the job's error payload can
reference.

Usage::

    RECORDER.configure("/state/flightrec/job-123")
    RECORDER.attach()            # follow the span hook + event bus
    ...
    path = RECORDER.dump("pool_reaped", extra={"units": [...]})

The ring is process-local -- each pool worker and the coordinator keep
their own -- and recording is append-into-deque cheap, so it stays on
even when tracing is off. :func:`recent_dumps` lists dumps across a
base directory for the ``/v1/ops`` rollup.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.atomic import write_atomic
from repro.obs import clock
from repro.obs import events as obs_events
from repro.obs.metrics import REGISTRY

#: Default ring capacity (entries, shared across kinds).
DEFAULT_CAPACITY = 512

SCHEMA = "repro.obs/flightrec/v1"

_REASON_RE = re.compile(r"[^a-zA-Z0-9_.-]+")


class FlightRecorder:
    """Bounded ring of recent spans/events/metric deltas, dumpable."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._dump_dir: Optional[str] = None
        self._seq = 0
        self._attached = False
        self._bus_handler = None

    # -- lifecycle ---------------------------------------------------------------

    def configure(self, dump_dir: Optional[str]) -> None:
        """Set (or clear) where :meth:`dump` writes; creates the dir."""
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
        with self._lock:
            self._dump_dir = dump_dir

    @property
    def dump_dir(self) -> Optional[str]:
        return self._dump_dir

    def attach(self) -> None:
        """Start following the event bus and the tracer's span hook."""
        from repro.obs.trace import TRACER

        if self._attached:
            return
        self._attached = True

        def _on_event(record: Dict[str, Any]) -> None:
            self.record("event", dict(record))

        self._bus_handler = _on_event
        obs_events.subscribe(_on_event)
        TRACER.on_record = self._on_span

    def detach(self) -> None:
        """Stop following; the ring and dump dir stay as they are."""
        from repro.obs.trace import TRACER

        if not self._attached:
            return
        self._attached = False
        if self._bus_handler is not None:
            obs_events.unsubscribe(self._bus_handler)
            self._bus_handler = None
        # Bound-method access mints a fresh object each time, so compare
        # by equality (__self__/__func__), not identity.
        if TRACER.on_record == self._on_span:
            TRACER.on_record = None

    def _on_span(self, span) -> None:
        self.record("span", {
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "depth": span.depth,
            "parent": span.parent,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "trace_id": span.trace_id,
            "attrs": dict(span.attrs),
        })

    # -- recording ---------------------------------------------------------------

    def record(self, kind: str, payload: Dict[str, Any]) -> None:
        """Append one entry (``span`` / ``event`` / ``metrics`` / ...)."""
        entry = {
            "kind": kind,
            "ts": clock.wall(),
            "mono": clock.monotonic(),
            "payload": payload,
        }
        with self._lock:
            self._ring.append(entry)

    def entries(self) -> List[Dict[str, Any]]:
        """The current ring contents, oldest first (a copy)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Empty the ring (tests, fresh work units)."""
        with self._lock:
            self._ring.clear()

    # -- dumping -----------------------------------------------------------------

    def dump(
        self, reason: str, extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Flush the ring to ``flightrec-<pid>-<seq>-<reason>.json``.

        Returns the written path, or None when no dump directory is
        configured (recording without a sink is legal). The write is
        atomic (:func:`~repro.atomic.write_atomic`) so ops readers never
        see a torn dump, and a failed write leaves no temp file.
        """
        with self._lock:
            dump_dir = self._dump_dir
            if not dump_dir:
                return None
            self._seq += 1
            seq = self._seq
            entries = list(self._ring)
        safe_reason = _REASON_RE.sub("_", reason)[:64] or "dump"
        name = f"flightrec-{os.getpid()}-{seq:03d}-{safe_reason}.json"
        path = os.path.join(dump_dir, name)
        document = {
            "schema": SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "ts": clock.wall(),
            "extra": extra or {},
            "entries": entries,
        }
        write_atomic(path, json.dumps(document))
        REGISTRY.counter(
            "repro_flightrec_dumps_total",
            "Flight-recorder dumps written by failure paths.",
        ).inc()
        return path


def recent_dumps(base_dir: str, limit: int = 10) -> List[Dict[str, Any]]:
    """The newest flight-recorder dumps under ``base_dir`` (recursive).

    Returns light summaries (path, reason, pid, ts, entry count) sorted
    newest first -- the ``/v1/ops`` rollup embeds these rather than the
    full rings.
    """
    found: List[Dict[str, Any]] = []
    if not base_dir or not os.path.isdir(base_dir):
        return found
    for root, _dirs, files in os.walk(base_dir):
        for name in files:
            if not (name.startswith("flightrec-")
                    and name.endswith(".json")):
                continue
            path = os.path.join(root, name)
            try:
                with open(path) as handle:
                    document = json.load(handle)
            except (OSError, ValueError):
                continue
            found.append({
                "path": path,
                "reason": document.get("reason"),
                "pid": document.get("pid"),
                "ts": document.get("ts"),
                "entries": len(document.get("entries", ())),
            })
    found.sort(key=lambda d: d.get("ts") or 0.0, reverse=True)
    return found[:limit]


#: Process-global recorder (each pool worker gets its own copy on fork
#: or spawn-side configure()).
RECORDER = FlightRecorder()
