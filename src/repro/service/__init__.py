"""Campaign orchestration service.

Runs characterization campaigns as resumable, fault-tolerant,
observable jobs instead of one monolithic in-process call:

* :mod:`repro.service.jobs` -- ``(module, row-chunk)`` work-unit
  decomposition (gap-partitioned, merge-safe);
* :mod:`repro.service.orchestrator` -- :class:`CampaignService`:
  scheduling (inline or process pool), retry with backoff, module
  quarantine, bit-identical merge;
* :mod:`repro.service.checkpoint` -- atomic per-unit checkpoints and
  ``--resume``;
* :mod:`repro.service.faults` -- seedable injection of transient bench
  faults (supply droop, FPGA timeout, host disconnect);
* :mod:`repro.service.telemetry` -- JSON-lines event log plus
  campaign metrics.

CLI: ``python -m repro.service --help``; ``docs/SERVICE.md`` has the
full job model and telemetry schema.
"""

from repro.service.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.service.jobs import WorkUnit, plan_units
from repro.service.orchestrator import CampaignOutcome, CampaignService
from repro.service.telemetry import CampaignMetrics, TelemetryLog, read_events

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "WorkUnit",
    "plan_units",
    "CampaignOutcome",
    "CampaignService",
    "CampaignMetrics",
    "TelemetryLog",
    "read_events",
]
