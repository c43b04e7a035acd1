"""Campaign performance instrumentation.

A process-global :data:`PROFILER` collects per-phase wall-clock (WCDP
determination, the per-V_PP probe loops, result export) and probe
counters (:class:`ProbeCounters`, mirroring the command counters of
:class:`~repro.softmc.host.ExecutionResult`). Everything is disabled by
default and costs one attribute check per phase; the runner's
``--profile`` flag turns it on.

Since the unified observability layer (:mod:`repro.obs`) landed, this
module is a thin façade over it: phases double as tracer spans when
``--trace`` is live, and :meth:`ProbeCounters.publish` folds engine
counters into the central metrics registry at module/unit completion.

Not to be confused with :mod:`repro.core.profiling`, which implements
the paper-domain REAPER-style *retention* profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

#: ProbeCounters field -> metrics-registry counter it publishes into.
PROBE_METRIC_NAMES = {
    "hammer_probes": "repro_probes_hammer_total",
    "retention_probes": "repro_probes_retention_total",
    "commands_issued": "repro_commands_issued_total",
    "sweep_hits": "repro_sweep_hits_total",
    "sweep_misses": "repro_sweep_misses_total",
    "sweep_evictions": "repro_sweep_evictions_total",
    "sweep_saved_lookups": "repro_sweep_saved_lookups_total",
    "trcd_probes": "repro_trcd_probes_total",
    "trcd_fallbacks_per_column": "repro_trcd_fallbacks_total",
    "trcd_fallbacks_fault_injector": "repro_trcd_fallbacks_total",
    "trcd_fallbacks_retention_guard": "repro_trcd_fallbacks_total",
    "probe_fallbacks_hammer_sensing": "repro_probe_fallbacks_total",
    "probe_fallbacks_retention_sensing": "repro_probe_fallbacks_total",
    "probe_fallbacks_program_sensing": "repro_probe_fallbacks_total",
}

#: ProbeCounters fields published as one child of a labeled family.
PROBE_METRIC_LABELS = {
    "trcd_fallbacks_per_column": {"reason": "per_column"},
    "trcd_fallbacks_fault_injector": {"reason": "fault_injector"},
    "trcd_fallbacks_retention_guard": {"reason": "retention_guard"},
    "probe_fallbacks_hammer_sensing": {"kind": "hammer", "reason": "sensing"},
    "probe_fallbacks_retention_sensing": {
        "kind": "retention", "reason": "sensing",
    },
    "probe_fallbacks_program_sensing": {"kind": "program", "reason": "sensing"},
}

_PROBE_METRIC_HELP = {
    "repro_probes_hammer_total": "Alg. 1 double-sided hammer probes",
    "repro_probes_retention_total": "Alg. 3 write-wait-read probes",
    "repro_commands_issued_total":
        "SoftMC-equivalent DRAM commands issued",
    "repro_sweep_hits_total": "sweep-LRU cache hits",
    "repro_sweep_misses_total": "sweep-LRU cache misses",
    "repro_sweep_evictions_total": "sweep-LRU capacity evictions",
    "repro_sweep_saved_lookups_total":
        "probes that reused an in-session sweep",
    "repro_trcd_probes_total":
        "Alg. 2 WRITE/READ probes, executed or replayed",
    "repro_trcd_fallbacks_total":
        "Alg. 2 sessions a kernel engine ran on the command path, by reason",
    "repro_probe_fallbacks_total":
        "Alg. 1/3 kernel sessions run on the per-probe vector path, by "
        "session kind and reason",
}


@dataclass
class ProbeCounters:
    """Counts of the probes an engine executed (ExecutionResult-style).

    ``commands_issued`` follows the SoftMC host's convention: HAMMER
    counts as its unrolled ACT/PRE length, WRITE_ROW/READ_ROW as
    ACT + per-column access + PRE.
    """

    hammer_probes: int = 0
    retention_probes: int = 0
    commands_issued: int = 0
    #: Sweep-LRU traffic of the kernel engine: cache
    #: hits, misses, capacity evictions, and per-session probes that
    #: reused an already-resolved sweep instead of re-entering the LRU.
    sweep_hits: int = 0
    sweep_misses: int = 0
    sweep_evictions: int = 0
    sweep_saved_lookups: int = 0
    #: Alg. 2 WRITE/READ probes (one per program the command path runs
    #: or a kernel session replays), and the kernel engine's tRCD
    #: sessions that fell back to the command path, per reason (see
    #: :class:`repro.core.fused.KernelTrcdSession`).
    trcd_probes: int = 0
    trcd_fallbacks_per_column: int = 0
    trcd_fallbacks_fault_injector: int = 0
    trcd_fallbacks_retention_guard: int = 0
    #: Kernel hammer, retention and DSL-program sessions that opened on
    #: a sensing hazard (activation corruption could fire at this
    #: operating point) and so ran every probe on the per-probe vector
    #: path (see :mod:`repro.core.fused`).
    probe_fallbacks_hammer_sensing: int = 0
    probe_fallbacks_retention_sensing: int = 0
    probe_fallbacks_program_sensing: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (JSON exports, reports)."""
        return {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }

    def merge(self, other: "ProbeCounters") -> None:
        """Accumulate another counter set into this one.

        Field-driven so a newly added counter can never be silently
        dropped from chunk merges (``sweep_saved_lookups`` once was;
        ``tests/core/test_perf_counters.py`` pins the full roundtrip).
        """
        for spec in fields(self):
            setattr(
                self, spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )

    def publish(self, registry=REGISTRY) -> None:
        """Fold this snapshot into the central metrics registry.

        Called once per module/unit run (never per probe), mapping each
        field to its canonical ``repro_*_total`` counter (or, for the
        fields of :data:`PROBE_METRIC_LABELS`, to one labeled child).
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value:
                metric_name = PROBE_METRIC_NAMES.get(
                    spec.name, f"repro_{spec.name}_total"
                )
                labels = PROBE_METRIC_LABELS.get(spec.name)
                counter = registry.counter(
                    metric_name, _PROBE_METRIC_HELP.get(metric_name, ""),
                    labels=tuple(labels or ()),
                )
                if labels:
                    counter = counter.labels(**labels)
                counter.inc(value)


class _NullPhase:
    """No-op context manager handed out while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _Phase:
    """Accumulates one timed section into the profiler.

    When the span tracer is live, the phase doubles as a span of the
    same name, so ``--trace`` output covers every ``--profile`` phase.
    """

    __slots__ = ("_profiler", "_name", "_start", "_span")

    def __init__(self, profiler: "PhaseProfiler", name: str, span=None):
        self._profiler = profiler
        self._name = name
        self._start = 0.0
        self._span = span

    def __enter__(self) -> "_Phase":
        if self._span is not None:
            self._span.__enter__()
        self._start = clock.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._record(self._name, clock.monotonic() - self._start)
        if self._span is not None:
            self._span.__exit__(*exc)


@dataclass
class PhaseProfiler:
    """Per-phase wall-clock and probe-count aggregation.

    Disabled by default so the hot paths pay one boolean check. Phase
    times from worker processes (``run_parallel``) stay in the workers;
    the report covers the in-process portion of a run.
    """

    enabled: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def enable(self) -> None:
        """Turn profiling on (phases and counters start recording)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn profiling off."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded phases and counters."""
        self.phase_seconds.clear()
        self.phase_calls.clear()
        self.counters.clear()

    def phase(self, name: str):
        """Context manager timing one section under ``name``.

        A no-op while both the profiler and the span tracer are off;
        with only the tracer on it records a bare span, and with both
        on one context serves phase table and trace.
        """
        if not self.enabled:
            if TRACER.enabled:
                return TRACER.span(name)
            return _NULL_PHASE
        span = TRACER.span(name) if TRACER.enabled else None
        return _Phase(self, name, span)

    def _record(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (no-op while disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def record_probes(self, probe_counters: ProbeCounters) -> None:
        """Fold an engine's counters into the global tallies."""
        if self.enabled:
            for name, value in probe_counters.as_dict().items():
                if value:
                    self.counters[name] = self.counters.get(name, 0) + value

    def report(self) -> str:
        """Human-readable breakdown of phases and counters."""
        lines = ["-- profile ------------------------------------------"]
        if self.phase_seconds:
            total = sum(self.phase_seconds.values())
            width = max(len(name) for name in self.phase_seconds)
            for name in sorted(
                self.phase_seconds, key=self.phase_seconds.get, reverse=True
            ):
                seconds = self.phase_seconds[name]
                share = 100.0 * seconds / total if total else 0.0
                lines.append(
                    f"{name:<{width}}  {seconds:9.3f}s  {share:5.1f}%  "
                    f"({self.phase_calls[name]} calls)"
                )
            lines.append(f"{'total':<{width}}  {total:9.3f}s")
        else:
            lines.append("no phases recorded")
        if self.counters:
            lines.append("-- counters --")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"{name:<{width}}  {self.counters[name]}")
        return "\n".join(lines)


#: Process-global profiler used by the study loops and the runner.
PROFILER = PhaseProfiler()
