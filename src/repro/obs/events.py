"""The observability event bus.

One process-global publish/subscribe fan-out for campaign lifecycle
events. Producers (the sequential study loop, the orchestration
service's :class:`~repro.service.telemetry.TelemetryLog`) publish plain-dict records; sinks (the live
:class:`~repro.obs.progress.ProgressReporter`, the telemetry JSON-lines
file, tests) subscribe. With no subscribers -- the default -- a publish
is one empty-tuple iteration.

Every record carries at least::

    {"event": <name>, "ts": <wall seconds>, "mono": <monotonic seconds>}

``ts`` is a wall-clock *label*; ``mono`` is the duration-safe timestamp
(see :mod:`repro.obs.clock`). The event vocabulary is the service
telemetry's (``campaign_started``, ``unit_finished``, ...) plus the
study-level equivalents; ``docs/OBSERVABILITY.md`` lists both.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List

from repro.obs import clock

Subscriber = Callable[[Dict[str, Any]], None]

_lock = threading.Lock()
_subscribers: List[Subscriber] = []


def subscribe(sink: Subscriber) -> Subscriber:
    """Register a sink; returns it (handy for later unsubscribe)."""
    with _lock:
        if sink not in _subscribers:
            _subscribers.append(sink)
    return sink


def unsubscribe(sink: Subscriber) -> None:
    """Remove a sink; unknown sinks are ignored."""
    with _lock:
        try:
            _subscribers.remove(sink)
        except ValueError:
            pass


def subscribers() -> List[Subscriber]:
    """The current sink list (a copy)."""
    with _lock:
        return list(_subscribers)


def publish(record: Dict[str, Any]) -> Dict[str, Any]:
    """Deliver one already-built record to every sink, in order."""
    with _lock:
        sinks = tuple(_subscribers)
    for sink in sinks:
        sink(record)
    return record


def emit(event: str, **fields) -> Dict[str, Any]:
    """Build and publish a record for ``event``.

    Adds the standard ``ts`` (wall) and ``mono`` (monotonic) timestamps;
    ``fields`` must not collide with the three standard keys.
    """
    record = {
        "event": event,
        "ts": round(clock.wall(), 6),
        "mono": round(clock.monotonic(), 6),
    }
    record.update(fields)
    return publish(record)
