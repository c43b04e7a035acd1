"""Experiment runner CLI.

Run any registered experiment (or all of them) and optionally export
CSV/JSON to a results directory::

    python -m repro.harness.runner fig3 fig5 --out results/
    python -m repro.harness.runner --all --modules A0 B3 C5
    python -m repro.harness.runner --list

Completed campaigns persist in a disk cache (``.study-cache/`` by
default) keyed by scale/seed/modules/tests, so repeated invocations
skip straight to the analysis; ``--no-cache`` opts out and
``--cache-dir`` relocates it. ``--profile`` records spans and prints
one per-phase table (WCDP / probe loops / export) over the stitched
trace -- pool workers' phases included -- then the non-zero counters.

``--orchestrate N`` (also spelled ``--parallel N``) pre-runs the
campaigns the experiments declare (one :class:`~repro.harness.plan.
PreloadPlan`) through the orchestration service, so the pre-run always
matches what the experiments actually fetch.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import List, Optional

from repro.harness.cache import DEFAULT_CACHE_DIR, set_study_cache_dir
from repro.harness.export import export_output
from repro.harness.plan import build_plan
from repro.errors import ConfigurationError
from repro.harness.registry import all_specs, get_spec, run_experiment
from repro.harness.validation import (
    validate_experiments,
    validate_modules,
    validate_program,
)
from repro.obs import ProgressReporter, build_provenance, clock
from repro.obs import context as obs_context
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER, profile_report

#: Study-cache counters consulted to label an experiment's provenance
#: block with how its campaign was satisfied.
_CACHE_HIT_COUNTERS = (
    "repro_study_cache_memory_hits_total",
    "repro_study_cache_disk_hits_total",
)


def build_parser() -> argparse.ArgumentParser:
    """The runner's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="ID",
        help="experiment ids to run (--list shows them)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list every registered experiment (id, campaign needs, "
             "title) and exit",
    )
    parser.add_argument(
        "--modules", nargs="*", default=None,
        help="module subset (default: the benchmark subset)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    parser.add_argument(
        "--program", default=None, metavar="NAME",
        help="registered DRAM-program DSL name the campaigns' probe "
             "schedules run through (default: the paper's schedules); "
             "see docs/PROGRAMS.md",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="export CSV/JSON results into DIR",
    )
    parser.add_argument(
        "--orchestrate", "--parallel", dest="orchestrate", type=int,
        default=None, metavar="N",
        help=(
            "pre-run the characterization campaigns the requested "
            "experiments declare through the orchestration service "
            "(repro.service) before dispatching the experiments: "
            "(module, row-chunk) units over N worker processes (0/1 "
            "runs in-process), checkpointed under --service-dir, "
            "resumable with --resume, fault-tolerant, with structured "
            "telemetry; campaigns already cached are skipped"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="with --orchestrate: restore completed work units from the "
             "campaign checkpoints",
    )
    parser.add_argument(
        "--service-dir", default=".service-checkpoints", metavar="DIR",
        help="with --orchestrate: base directory for campaign "
             "checkpoints (default: .service-checkpoints)",
    )
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="with --orchestrate: write the JSON-lines telemetry event "
             "log to PATH",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=(
            "directory of the persistent study cache "
            f"(default: {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent study cache for this run",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a per-phase span table (pool workers included) "
             "and the non-zero counters",
    )
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
    return parser


def _experiment_provenance(
    experiment_id: str, seed: int, modules, wall_seconds: float,
    counters_before, counters_after, cache_enabled: bool,
):
    """The provenance block embedded in one experiment's JSON export.

    The fingerprint hashes the experiment request (id, seed, module
    subset); the cache label reflects what the study cache actually did
    while the experiment ran.
    """
    canonical = (
        f"{experiment_id}|seed={seed}|modules={sorted(modules or ())}"
    )
    if not cache_enabled:
        cache_state = "off"
    elif any(
        counters_after.get(name, 0.0) > counters_before.get(name, 0.0)
        for name in _CACHE_HIT_COUNTERS
    ):
        cache_state = "hit"
    else:
        cache_state = "miss"
    spent = {
        name: value - counters_before.get(name, 0.0)
        for name, value in counters_after.items()
        if value - counters_before.get(name, 0.0)
    }
    return build_provenance(
        fingerprint=hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()[:32],
        seed=seed,
        cache=cache_state,
        wall_seconds=wall_seconds,
        counters=spent,
        experiment=experiment_id,
    )


def list_experiments() -> str:
    """The ``--list`` report: one line per experiment with its id, the
    campaigns its spec declares, and its title."""
    specs = all_specs()
    id_width = max(len(spec.id) for spec in specs.values())
    needs = {
        spec.id: ", ".join("+".join(r.tests) for r in spec.studies) or "-"
        for spec in specs.values()
    }
    needs_width = max(len(text) for text in needs.values())
    lines = [
        f"{spec.id:<{id_width}}  {needs[spec.id]:<{needs_width}}  "
        f"{spec.title}"
        for spec in specs.values()
    ]
    header = (
        f"{'id':<{id_width}}  {'campaigns':<{needs_width}}  title"
    )
    return "\n".join([header, "-" * len(header)] + lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        print(list_experiments())
        return 0
    ids = list(all_specs()) if args.all else args.experiments
    if not ids:
        build_parser().print_help()
        return 2
    try:
        validate_experiments(ids)
        if args.modules:
            validate_modules(args.modules)
        validate_program(args.program)
        if args.orchestrate is not None and args.orchestrate < 0:
            raise ConfigurationError(
                f"--orchestrate must be >= 0: {args.orchestrate}"
            )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.modules:
        for experiment_id in ids:
            if not get_spec(experiment_id).module_scoped:
                print(
                    f"warning: {experiment_id} is not module-scoped; "
                    "--modules has no effect on it",
                    file=sys.stderr,
                )
    set_study_cache_dir(None if args.no_cache else args.cache_dir)
    if args.profile or args.trace:
        TRACER.enable()
    reporter = ProgressReporter() if args.progress else None
    if reporter is not None:
        reporter.attach()
    try:
        kwargs = {"seed": args.seed}
        if args.modules:
            kwargs["modules"] = tuple(args.modules)
        if args.program:
            kwargs["program"] = args.program
        if args.orchestrate is not None:
            plan = build_plan(
                ids, modules=kwargs.get("modules"), seed=args.seed,
                program=args.program,
            )
            if not plan:
                print("no shared campaigns needed; skipping orchestration")
            else:
                from repro.service.telemetry import TelemetryLog

                with TelemetryLog(
                    args.events, resume=args.resume
                ) as telemetry:
                    quarantined = plan.orchestrate(
                        max_workers=args.orchestrate,
                        checkpoint_base=args.service_dir,
                        telemetry=telemetry, resume=args.resume,
                    )
                if quarantined:
                    print(
                        "warning: quarantined modules: "
                        + ", ".join(quarantined),
                        file=sys.stderr,
                    )
        for experiment_id in ids:
            started = clock.monotonic()
            counters_before = REGISTRY.counter_values()
            with TRACER.span("experiment", experiment=experiment_id):
                output = run_experiment(experiment_id, **kwargs)
            elapsed = clock.monotonic() - started
            print(output.render())
            print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
            if args.out:
                provenance = _experiment_provenance(
                    experiment_id, args.seed, args.modules, elapsed,
                    counters_before, REGISTRY.counter_values(),
                    cache_enabled=not args.no_cache,
                )
                with TRACER.span("export"):
                    written = export_output(
                        output, args.out, provenance=provenance
                    )
                print("exported: " + ", ".join(written) + "\n")
    finally:
        # The reporter must detach even when an experiment raises:
        # leaving its bus subscription behind would have the *next*
        # in-process main() call (tests, notebooks) painting progress
        # for a reporter whose output stream is long gone.
        if reporter is not None:
            reporter.detach()
    if args.profile:
        # Built from the stitched trace, so the phases that ran inside
        # --orchestrate pool workers are counted too.
        print(profile_report())
    if args.trace:
        if obs_context.fragments():
            # Stitched: the local document plus the fragments deposited
            # by --orchestrate pool workers, on one timeline with flow
            # arrows.
            obs_context.write_stitched_trace(args.trace)
        else:
            TRACER.write_chrome_trace(args.trace)
        print(f"trace written: {args.trace}", file=sys.stderr)
    if args.profile or args.trace:
        # Leave the process-global tracer clean for in-process callers
        # (tests, notebooks) that invoke main() repeatedly.
        TRACER.disable()
        obs_context.clear_fragments()
    if args.metrics_out:
        REGISTRY.write_prometheus(args.metrics_out)
        print(f"metrics written: {args.metrics_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
