#!/usr/bin/env python3
"""Perf-regression guard against the committed BENCH_probe.json.

Three layers, any of which fails the check (exit 1):

* deterministic acceptance gates on the *committed* baseline itself:
  the fused engine's ladder-campaign speedup over batch must hold the
  3x target and its single-probe hammer rate must beat the fast
  engine's (asserted on the committed numbers, so a noisy check
  machine cannot flake the gate);
* a differential bit-identity gate: a tiny-scale study runs on the
  batch and fused engines and every experiment family (rowhammer,
  tRCD, retention) must match record-for-record; the ``trcd`` family
  additionally runs on the command engine (Alg. 2's oracle) down to
  A0's V_PPmin, and both kernel engines' tRCD records must match it;
* a perf-regression guard: re-measures the probe-throughput rates and
  the acceptance campaigns (``make bench`` writes them; see
  ``bench_probe.py``) and fails when any metric falls below its
  committed value by more than the tolerance band. Ratios (the
  campaign speedups) are compared with a tighter band than absolute
  probes/sec, which swing with machine load.

``--smoke`` runs only the first two, machine-speed-independent layers
(the CI entry point; ``make bench-smoke``).

Tolerances are fractions of the committed value and can be widened on
noisy machines:

    REPRO_BENCH_TOLERANCE=0.5 make bench-check

Run:  PYTHONPATH=src python benchmarks/bench_check.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_probe  # noqa: E402  (sibling script, not a package)

#: Default fractional tolerance for absolute rates (probes/sec).
RATE_TOLERANCE = 0.5
#: Default fractional tolerance for speedup ratios; load cancels out
#: of a ratio, so the band is tighter.
SPEEDUP_TOLERANCE = 0.3

RATE_KEYS = (
    "hammer_probes_per_sec_batch",
    "hammer_probes_per_sec_fused",
    "hammer_probes_per_sec_fast",
    "hammer_probes_per_sec_command",
    "retention_probes_per_sec_batch",
    "retention_probes_per_sec_fused",
    "retention_probes_per_sec_fast",
    "retention_probes_per_sec_command",
    "program_probes_per_sec_batch",
    "program_probes_per_sec_command",
    "trcd_probes_per_sec_batch",
    "trcd_probes_per_sec_command",
)
SPEEDUP_KEYS = (
    "campaign_speedup",
    "campaign_speedup_batch_over_fast",
    "campaign_speedup_fused_over_batch",
    "program_probe_speedup",
)

#: Experiment families covered by the differential bit-identity gate.
FAMILIES = ("rowhammer", "trcd", "retention")
#: V_PP points of the tRCD kernel-vs-command leg: nominal, and A0's
#: V_PPmin, where rows walk up from the nominal tRCD.
TRCD_VPP_LEVELS = (2.5, 1.4)


def _tolerances():
    override = os.environ.get("REPRO_BENCH_TOLERANCE")
    if override is None:
        return RATE_TOLERANCE, SPEEDUP_TOLERANCE
    try:
        value = float(override)
    except ValueError:
        raise SystemExit(
            f"REPRO_BENCH_TOLERANCE must be a float, got {override!r}"
        )
    if not 0 <= value < 1:
        raise SystemExit("REPRO_BENCH_TOLERANCE must be in [0, 1)")
    return value, value


def gate_baseline(committed):
    """Acceptance floors asserted on the committed baseline itself.

    These are properties of the committed numbers, not of this run's
    machine, so they never flake: if someone regenerates
    BENCH_probe.json on a machine where the fused engine no longer
    clears its targets, the commit fails here deterministically.
    """
    failures = []
    speedup = committed.get("campaign_speedup_fused_over_batch")
    if speedup is not None and speedup < 3.0:
        failures.append(
            f"committed campaign_speedup_fused_over_batch {speedup:.2f} "
            "below the 3x acceptance target"
        )
    program = committed.get("program_probe_speedup")
    if program is not None and program < 3.0:
        failures.append(
            f"committed program_probe_speedup {program:.2f} below the "
            "3x acceptance target (compiled DSL path vs command fallback)"
        )
    fused = committed.get("hammer_probes_per_sec_fused")
    fast = committed.get("hammer_probes_per_sec_fast")
    if fused is not None and fast is not None and fused <= fast:
        failures.append(
            f"committed hammer_probes_per_sec_fused {fused:.2f} does not "
            f"beat the fast engine's {fast:.2f}"
        )
    return failures


def differential_check():
    """Return the experiment families where a tiny-scale fused study
    diverges from the batch reference, plus ``trcd (<engine> vs
    command)`` where a kernel engine's Alg. 2 records diverge from the
    command engine's (bit-identity gate)."""
    from repro.core.scale import StudyScale
    from repro.core.study import CharacterizationStudy

    def run(engine, tests=FAMILIES, vpp_levels=(2.5, 2.2)):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine=engine
        )
        return study.run_module("A0", tests=tests, vpp_levels=vpp_levels)

    batch, fused = run("batch"), run("fused")
    mismatches = [
        family for family in FAMILIES
        if getattr(batch, family) != getattr(fused, family)
    ]
    command = run("command", ("trcd",), TRCD_VPP_LEVELS).trcd
    for engine in ("batch", "fused"):
        if run(engine, ("trcd",), TRCD_VPP_LEVELS).trcd != command:
            mismatches.append(f"trcd ({engine} vs command)")
    return mismatches


def check(committed, measured, rate_tol, speedup_tol):
    """Return a list of human-readable regression descriptions."""
    failures = []
    for keys, tolerance in ((RATE_KEYS, rate_tol), (SPEEDUP_KEYS, speedup_tol)):
        for key in keys:
            if key not in committed:
                continue  # older baseline: nothing to guard yet
            floor = committed[key] * (1.0 - tolerance)
            if measured[key] < floor:
                failures.append(
                    f"{key}: measured {measured[key]:.2f} < floor "
                    f"{floor:.2f} (committed {committed[key]:.2f}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_baseline = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_probe.json"
    )
    parser.add_argument("--baseline", default=default_baseline)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the machine-speed-independent layers (committed-"
             "baseline gates + fused-vs-batch and tRCD kernel-vs-command "
             "bit-identity), skipping the timing re-measurement (the CI "
             "entry point)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        committed = json.load(handle)
    rate_tol, speedup_tol = _tolerances()

    from repro.harness.cache import set_study_cache_dir

    set_study_cache_dir(None)

    gate_failures = gate_baseline(committed)
    if gate_failures:
        print("committed baseline fails its acceptance gates:",
              file=sys.stderr)
        for failure in gate_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    print("checking fused-vs-batch bit-identity (tiny scale, all "
          "experiment families) and tRCD kernel-vs-command...")
    mismatches = differential_check()
    if mismatches:
        print("kernel engines diverge from their reference on: "
              + ", ".join(mismatches), file=sys.stderr)
        return 1
    print("fused records match the batch reference and kernel tRCD "
          "records match the command engine bit-for-bit")

    if args.smoke:
        print("\nsmoke mode: skipping timing re-measurement")
        return 0

    print("re-measuring probe throughput...")
    measured = dict(bench_probe.bench_probe_rates())
    print("re-measuring DSL-program probe throughput...")
    measured.update(bench_probe.bench_program_rates())
    print("re-measuring Alg. 2 (tRCD) probe throughput...")
    measured.update(bench_probe.bench_trcd_rates())
    print("re-measuring one-module bench campaign (fast vs command)...")
    measured.update(bench_probe.bench_campaign())
    print("re-measuring characterization campaign (fast/batch/fused)...")
    measured.update(bench_probe.bench_characterization_campaign(runs=2))
    print("re-measuring V_PP-ladder campaign (batch vs fused)...")
    # Ladder rounds are cheap (~4 s) and the speedup ratio is what the
    # acceptance gate rides on, so spend full interleaved minima here.
    measured.update(bench_probe.bench_vpp_ladder_campaign(runs=3))

    for key in RATE_KEYS + SPEEDUP_KEYS:
        committed_value = committed.get(key)
        committed_text = (
            f"{committed_value:.2f}" if committed_value is not None else "--"
        )
        print(f"{key:>36}: {measured[key]:>10.2f}  (committed "
              f"{committed_text})")

    failures = check(committed, measured, rate_tol, speedup_tol)
    if failures:
        print("\nperformance regression against committed baseline:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno regression against the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
