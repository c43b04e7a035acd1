"""Structured telemetry for orchestrated campaigns.

Three layers, smallest first:

* :class:`TelemetryLog` -- an append-only JSON-lines event sink. Every
  event is one line: ``{"event": <name>, "ts": <unix seconds>, ...}``.
  Events are also mirrored in memory (``log.events``) so tests and the
  in-process progress summary never re-parse the file.
* :class:`CampaignMetrics` -- campaign-level counters (units, retries,
  faults by kind, wall clock) accumulated by the orchestrator and
  rendered by :meth:`CampaignMetrics.summary`; per-unit facts are the
  events below.
* :meth:`CampaignMetrics.publish` -- folds the campaign totals into the
  central metrics registry as ``repro_service_*`` counters at campaign
  end. Phase timing is not kept here: the orchestrator's phases
  (``service.unit``, ``service.merge``, ``service.checkpoint``) are
  tracer spans, so ``--profile`` (built from the stitched trace)
  covers orchestrated runs, pool workers included.

Event vocabulary (all emitted by
:class:`~repro.service.orchestrator.CampaignService`):

``campaign_started``
    fingerprint, modules, tests, seed, units, resume flag.
``unit_resumed``
    unit restored from a checkpoint instead of re-run.
``unit_started`` / ``unit_finished``
    one execution attempt; ``unit_finished`` carries ``wall_seconds``
    (in-worker) and ``attempt``.
``unit_fault`` / ``unit_retry``
    a BenchFaultError and the scheduled retry (with backoff seconds).
``module_quarantined``
    a unit exhausted its attempts; the module is dropped, not fatal.
``unit_skipped``
    sibling unit dropped because its module was quarantined.
``pool_reaped`` / ``unit_restarted``
    the worker pool, the one reaper, replaced its workers: this
    campaign's overdue units (``reaped``) were charged a
    ``WorkerTimeoutError`` fault; each innocent unit that died with the
    workers, for any campaign's overdue unit, restarts at the same
    attempt (``reason`` ``"pool replaced"``).
``unit_duplicate_dropped``
    a late duplicate outcome for an already-completed unit was dropped
    whole (its metric delta never merged -- no double counting).
``checkpoint_written``
    one unit's results persisted (atomic).
``campaign_finished``
    final counters.

``docs/SERVICE.md`` documents the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import clock as obs_clock
from repro.obs import events as obs_events
from repro.obs.metrics import REGISTRY


class TelemetryLog:
    """JSON-lines event log with an in-memory mirror.

    Since the unified observability layer landed, the log is a thin
    sink over :mod:`repro.obs.events`: every record it writes is also
    published on the global event bus (so the live progress reporter
    sees orchestrated campaigns for free), and every record carries two
    timestamps -- ``ts`` (wall clock; a human-readable label that can
    jump under NTP/DST adjustments) and ``mono`` (monotonic seconds;
    the one to subtract when computing durations). ``docs/SERVICE.md``
    documents both.

    Parameters
    ----------
    path:
        File to append events to; None keeps events in memory only.
    resume:
        Append to an existing file instead of truncating it (used by
        ``--resume`` so one campaign's history stays in one log).
    clock:
        Wall-timestamp source (injectable for tests); defaults to
        :func:`repro.obs.clock.wall`.
    monotonic:
        Duration-safe timestamp source; defaults to
        :func:`repro.obs.clock.monotonic`.
    """

    def __init__(self, path: Optional[str] = None, resume: bool = False,
                 clock=obs_clock.wall, monotonic=obs_clock.monotonic):
        self.path = path
        self.events: List[Dict[str, Any]] = []
        self._clock = clock
        self._monotonic = monotonic
        self._handle = None
        if path:
            self._handle = open(path, "a" if resume else "w")

    def emit(self, event: str, **fields) -> Dict[str, Any]:
        """Record one event; returns the record that was written."""
        record = {
            "event": event,
            "ts": round(self._clock(), 6),
            "mono": round(self._monotonic(), 6),
        }
        record.update(fields)
        self.events.append(record)
        if self._handle is not None:
            json.dump(record, self._handle, sort_keys=True)
            self._handle.write("\n")
            self._handle.flush()
        obs_events.publish(record)
        return record

    def close(self) -> None:
        """Flush and close the underlying file (no-op when in-memory)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines telemetry log back into event records."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class CampaignMetrics:
    """Campaign-level counters the orchestrator accumulates."""

    units_planned: int = 0
    units_completed: int = 0
    units_resumed: int = 0
    units_failed: int = 0
    retries: int = 0
    #: Late duplicate unit outcomes dropped by the coordinator (the
    #: delta-merge dedup; see ``CampaignService._deliver_result``).
    duplicates_dropped: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    quarantined: Dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def record_fault(self, kind: str) -> None:
        """Count one injected/observed fault by kind."""
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON exports, the smoke benchmark)."""
        return {
            "units_planned": self.units_planned,
            "units_completed": self.units_completed,
            "units_resumed": self.units_resumed,
            "units_failed": self.units_failed,
            "retries": self.retries,
            "duplicates_dropped": self.duplicates_dropped,
            "faults": dict(self.faults),
            "quarantined": dict(self.quarantined),
            "wall_seconds": round(self.wall_seconds, 6),
        }

    def publish(self, registry=REGISTRY) -> None:
        """Fold the campaign totals into the central metrics registry.

        Called once at campaign end (the counters are already final),
        so re-running campaigns in one process accumulates, matching
        counter semantics. ``as_dict``/``summary`` are unchanged.
        """
        for name, value in (
            ("repro_service_units_planned_total", self.units_planned),
            ("repro_service_units_completed_total", self.units_completed),
            ("repro_service_units_resumed_total", self.units_resumed),
            ("repro_service_units_failed_total", self.units_failed),
            ("repro_service_retries_total", self.retries),
            ("repro_service_faults_total", sum(self.faults.values())),
            ("repro_service_quarantined_total", len(self.quarantined)),
        ):
            if value:
                registry.counter(
                    name, "orchestration-service campaign counter"
                ).inc(value)

    def summary(self) -> str:
        """Human-readable end-of-campaign report."""
        lines = [
            "-- campaign ----------------------------------------",
            f"units     {self.units_completed}/{self.units_planned} "
            f"completed ({self.units_resumed} resumed from checkpoint, "
            f"{self.units_failed} failed)",
            f"retries   {self.retries}",
        ]
        if self.faults:
            detail = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.faults.items())
            )
            lines.append(f"faults    {detail}")
        if self.quarantined:
            for module, reason in sorted(self.quarantined.items()):
                lines.append(f"quarantined  {module}: {reason}")
        lines.append(f"wall      {self.wall_seconds:.2f}s")
        return "\n".join(lines)
