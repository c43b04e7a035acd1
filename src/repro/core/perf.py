"""Probe-engine counters.

:class:`ProbeCounters` mirrors the command counters of
:class:`~repro.softmc.host.ExecutionResult` for one probe engine, and
:meth:`ProbeCounters.publish` folds them into the central metrics
registry (:data:`repro.obs.metrics.REGISTRY`) at module/unit
completion. Phase timing is the tracer's job: campaign phases are
:data:`repro.obs.trace.TRACER` spans, and the runner's ``--profile``
report aggregates them (:func:`repro.obs.trace.profile_report`).

Not to be confused with :mod:`repro.core.profiling`, which implements
the paper-domain REAPER-style *retention* profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.obs.metrics import REGISTRY

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
