"""Orchestration-service CLI.

Run a characterization campaign as a resumable, fault-tolerant job::

    python -m repro.service --modules A0 B3 C5 --tests rowhammer \
        --workers 4 --events campaign.jsonl --out study.json

Kill it at any point and pick up where it left off::

    python -m repro.service --modules A0 B3 C5 --tests rowhammer \
        --workers 4 --resume

Rehearse infrastructure faults (retries and quarantine included)::

    python -m repro.service --modules C5 --scale tiny \
        --fault-rate 0.3 --fault-seed 7

Exit codes: 0 success; 2 configuration error; 3 completed but with
quarantined modules (their results are missing from the output).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.scale import SCALE_PRESETS
from repro.core.serialization import save_study
from repro.core.study import TEST_TYPES
from repro.errors import ConfigurationError
from repro.harness.cache import BENCH_MODULES
from repro.harness.validation import validate_modules, validate_program
from repro.obs import ProgressReporter, build_provenance, clock
from repro.obs import context as obs_context
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.service.faults import FAULT_KINDS, FaultPlan
from repro.service.orchestrator import CampaignService
from repro.service.telemetry import TelemetryLog

#: Default base directory for checkpoints (one subdirectory per
#: campaign fingerprint).
DEFAULT_CHECKPOINT_BASE = ".service-checkpoints"


def _parse_fault_script(entries: List[str]) -> dict:
    """Parse ``UNIT:ATTEMPT:KIND`` triples (e.g. ``C5/0:0:power_droop``)."""
    scripted = {}
    for entry in entries:
        parts = entry.rsplit(":", 2)
        if len(parts) != 3:
            raise ConfigurationError(
                f"malformed --fault-script {entry!r}; expected "
                f"UNIT:ATTEMPT:KIND (e.g. C5/0:0:power_droop)"
            )
        unit_id, attempt, kind = parts
        try:
            scripted[(unit_id, int(attempt))] = kind
        except ValueError:
            raise ConfigurationError(
                f"malformed --fault-script attempt in {entry!r}"
            ) from None
    return scripted


def build_parser() -> argparse.ArgumentParser:
    """The service CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description=(
            "Run a characterization campaign as a resumable, "
            "fault-tolerant orchestrated job."
        ),
    )
    parser.add_argument(
        "--modules", nargs="*", default=list(BENCH_MODULES),
        help=f"modules to characterize (default: {' '.join(BENCH_MODULES)})",
    )
    parser.add_argument(
        "--tests", nargs="+", choices=TEST_TYPES, default=list(TEST_TYPES),
        help="test types to run (default: all three)",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALE_PRESETS), default="bench",
        help="study scale preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="root campaign seed (default 0)")
    parser.add_argument(
        "--program", default=None, metavar="NAME",
        help="registered DRAM-program DSL name the probe schedules run "
             "through (default: the paper's schedules); see "
             "docs/PROGRAMS.md",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes; 0/1 runs units in-process (default 0)",
    )
    parser.add_argument(
        "--chunks", type=int, default=None, metavar="N",
        help="target row chunks per module (default: the scale's)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per unit before its module is quarantined "
             "(default 3)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.1, metavar="SECONDS",
        help="base retry backoff; attempt n waits backoff*2^(n-1) "
             "(default 0.1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline for pool-mode work units; a hung "
             "worker is reaped and the unit retried (default: none)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=DEFAULT_CHECKPOINT_BASE, metavar="DIR",
        help=(
            "base directory for per-campaign checkpoints "
            f"(default: {DEFAULT_CHECKPOINT_BASE})"
        ),
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="disable checkpointing for this run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed units from the campaign's checkpoints",
    )
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="write the JSON-lines telemetry event log to PATH",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the merged study as JSON to PATH",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="probability a unit's first attempt suffers an injected "
             "bench fault (default 0)",
    )
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-plan seed (default 0)")
    parser.add_argument(
        "--fault-kinds", nargs="+", choices=FAULT_KINDS,
        default=list(FAULT_KINDS),
        help="fault kinds the random draw chooses between",
    )
    parser.add_argument(
        "--fault-attempts", type=int, default=1, metavar="N",
        help="random faults strike only attempts < N (default 1: "
             "retries always succeed)",
    )
    parser.add_argument(
        "--fault-script", action="append", default=[], metavar="U:A:K",
        help="script one fault: UNIT:ATTEMPT:KIND "
             "(e.g. C5/0:0:power_droop); repeatable",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress live progress output")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record hierarchical spans and write Chrome-trace JSON "
             "(load in Perfetto / chrome://tracing) to PATH",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text to PATH",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live rate/ETA progress line on stderr",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="keep a bounded in-memory flight recorder and dump it to "
             "DIR on faults, reaped timeouts, and quarantine",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        validate_modules(args.modules)
        validate_program(args.program)
        scripted = _parse_fault_script(args.fault_script)
        fault_plan = None
        if scripted or args.fault_rate > 0:
            fault_plan = FaultPlan(
                seed=args.fault_seed,
                rate=args.fault_rate,
                kinds=tuple(args.fault_kinds),
                faulty_attempts=args.fault_attempts,
                scripted=scripted,
            )
        progress = (lambda message: None) if args.quiet else (
            lambda message: print(message, file=sys.stderr)
        )
        if args.trace:
            TRACER.enable()
        reporter = ProgressReporter() if args.progress else None
        if reporter is not None:
            reporter.attach()
        started = clock.monotonic()
        try:
            with TelemetryLog(args.events, resume=args.resume) as telemetry:
                service = CampaignService(
                    modules=args.modules,
                    tests=tuple(args.tests),
                    scale=SCALE_PRESETS[args.scale](),
                    seed=args.seed,
                    chunks_per_module=args.chunks,
                    max_workers=args.workers,
                    max_attempts=args.max_attempts,
                    backoff=args.backoff,
                    unit_timeout=args.timeout,
                    fault_plan=fault_plan,
                    checkpoint_base=(
                        None if args.no_checkpoint else args.checkpoint_dir
                    ),
                    telemetry=telemetry,
                    progress=progress,
                    program=args.program,
                    flight_dir=args.flight_dir,
                )
                outcome = service.run(resume=args.resume)
        finally:
            if reporter is not None:
                reporter.detach()
    except ConfigurationError as error:
        TRACER.disable()
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(outcome.metrics.summary())
    for name in sorted(outcome.study.modules):
        module = outcome.study.modules[name]
        print(
            f"{name}: {len(module.vpp_levels)} V_PP levels, "
            f"{len(module.rowhammer)} rowhammer / {len(module.trcd)} tRCD "
            f"/ {len(module.retention)} retention records"
        )
    if args.out:
        outcome.study.provenance = build_provenance(
            fingerprint=service.fingerprint,
            seed=args.seed,
            cache="off",
            wall_seconds=clock.monotonic() - started,
            counters=REGISTRY.counter_values(),
            tests=list(args.tests),
            modules=list(args.modules),
            scale=args.scale,
        )
        save_study(outcome.study, args.out)
        print(f"study saved: {args.out}")
    if args.trace:
        if obs_context.fragments():
            # Pool workers returned fragments: stitch them with the
            # coordinator's spans into one cross-process document.
            obs_context.write_stitched_trace(args.trace)
        else:
            TRACER.write_chrome_trace(args.trace)
        # Leave the process-global tracer clean for in-process callers
        # (tests, notebooks) that invoke main() repeatedly.
        TRACER.disable()
        obs_context.clear_fragments()
        print(f"trace written: {args.trace}", file=sys.stderr)
    if args.metrics_out:
        REGISTRY.write_prometheus(args.metrics_out)
        print(f"metrics written: {args.metrics_out}", file=sys.stderr)
    if outcome.metrics.quarantined:
        print(
            "warning: quarantined modules missing from the output: "
            + ", ".join(sorted(outcome.metrics.quarantined)),
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
