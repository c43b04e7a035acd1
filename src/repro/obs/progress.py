"""Live progress reporting for long campaigns.

:class:`ProgressReporter` is an event-bus sink that renders a single
rate/ETA line -- units done/total, units per second, probe throughput,
quarantine count -- updated as ``unit_finished``-style events arrive.
The same reporter serves every campaign shape because all of them
publish the same event stream (see :mod:`repro.obs.events`): the
sequential study loop and the orchestration service (``runner
--orchestrate``/``--parallel``, ``python -m repro.service``, API jobs). Enable it with ``--progress`` on ``repro.harness.runner`` or
``python -m repro.service``.

Probe throughput comes from the metrics registry's probe counters
(folded in at unit/module completion), so the probes/s figure reflects
actual engine work, not just unit counts.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional, TextIO

from repro.obs import clock, events
from repro.obs.metrics import REGISTRY

#: Registry counters summed into the probes/s figure.
_PROBE_COUNTERS = ("repro_probes_hammer_total", "repro_probes_retention_total")


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressReporter:
    """Renders campaign progress from the observability event stream.

    Parameters
    ----------
    stream:
        Where the line goes (default stderr). On a TTY the line rewrites
        itself in place (``\\r``); when the stream is not a TTY live
        repainting is skipped entirely and only milestone lines
        (quarantine, campaign end, final state at detach) are appended,
        so piped/redirected runs aren't flooded with refreshes.
    min_interval:
        Minimum seconds between repaints (event storms coalesce).
    """

    def __init__(
        self, stream: Optional[TextIO] = None, min_interval: float = 0.5,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.total = 0
        self.done = 0
        self.quarantined = 0
        self._started = clock.monotonic()
        self._last_paint = 0.0
        self._probe_baseline = self._probes_now()
        self._painted = False
        self._dirty = False
        isatty = getattr(self.stream, "isatty", None)
        try:
            self._tty = bool(isatty()) if callable(isatty) else False
        except (ValueError, OSError):
            self._tty = False

    # -- bus wiring --------------------------------------------------------------

    def attach(self) -> "ProgressReporter":
        """Subscribe to the global event bus."""
        events.subscribe(self.handle)
        return self

    def detach(self) -> None:
        """Unsubscribe and terminate the in-place line.

        Safe on the exception path: the bus subscription is removed
        before any terminal I/O, and a closed/broken stream never masks
        the exception that unwound the campaign.
        """
        events.unsubscribe(self.handle)
        if not self._tty and self._dirty:
            # Non-TTY streams saw no live repaints; leave one final
            # state line so logs still record where the campaign ended.
            self._paint(force=True)
        self._finish_line()

    def __enter__(self) -> "ProgressReporter":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- event handling ----------------------------------------------------------

    def handle(self, record: Dict[str, Any]) -> None:
        """Event-bus sink: fold one record into the progress state."""
        event = record.get("event")
        if event == "campaign_started":
            self.total += int(record.get("units") or 0)
            if not self._painted:
                self._started = clock.monotonic()
                self._probe_baseline = self._probes_now()
            self._paint()
        elif event in ("unit_finished", "unit_resumed"):
            self.done += 1
            self._paint()
        elif event == "unit_skipped":
            self.done += 1
            self._paint()
        elif event == "module_quarantined":
            self.quarantined += 1
            self._paint(force=True)
        elif event == "campaign_finished":
            self._paint(force=True)
            self._finish_line()

    # -- rendering ---------------------------------------------------------------

    def _probes_now(self) -> float:
        values = REGISTRY.counter_values()
        return sum(values.get(name, 0.0) for name in _PROBE_COUNTERS)

    def render(self) -> str:
        """The current progress line (no side effects)."""
        elapsed = max(clock.monotonic() - self._started, 1e-9)
        rate = self.done / elapsed
        probes = self._probes_now() - self._probe_baseline
        total = max(self.total, self.done)
        if rate > 0 and total > self.done:
            eta = f"eta {_format_eta((total - self.done) / rate)}"
        elif total and self.done >= total:
            eta = "done"
        else:
            eta = "eta --:--"
        parts = [
            f"[{self.done}/{total or '?'}] units",
            f"{rate:.2f} units/s",
            f"{probes / elapsed:,.0f} probes/s",
            eta,
        ]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        return "  ".join(parts)

    def _paint(self, force: bool = False) -> None:
        self._dirty = True
        if not self._tty and not force:
            return
        now = clock.monotonic()
        if not force and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        line = self.render()
        try:
            if self._tty:
                self.stream.write("\r\x1b[2K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (ValueError, OSError):
            return
        self._painted = True
        self._dirty = False

    def _finish_line(self) -> None:
        if self._painted and self._tty:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (ValueError, OSError):
                pass
        self._painted = False
