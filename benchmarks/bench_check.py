#!/usr/bin/env python3
"""Perf-regression guard against the committed BENCH_probe.json.

Three layers, any of which fails the check (exit 1):

* deterministic acceptance gates on the *committed* baseline itself:
  every kernel-over-oracle speedup (fused vs command: hammer,
  retention, DSL-program and tRCD probes, the bench campaign) must hold
  its floor (``bench_probe.SPEEDUP_FLOORS``; asserted on the committed
  numbers, so a noisy check machine cannot flake them);
* a differential bit-identity gate: a tiny-scale study runs on the
  fused kernel and the command oracle and every experiment family
  (rowhammer, tRCD, retention) must match record-for-record; the
  ``trcd`` family additionally runs down to A0's V_PPmin, where rows
  walk up from the nominal tRCD;
* a perf-regression guard: re-measures the probe-throughput rates and
  the campaigns (``make bench`` writes them; see ``bench_probe.py``)
  and fails when a rate or speedup falls below its committed value, or
  a fused campaign time (the characterization and the V_PP ladder)
  rises above it, by more than the tolerance band.
  Ratios (the speedups) are compared with a tighter band than absolute
  rates and times, which swing with machine load.

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
from repro.core.probe import ENGINE_NAMES  # noqa: E402

#: Default fractional tolerance for absolute rates (probes/sec) and
#: campaign wall-clock.
RATE_TOLERANCE = 0.5
#: Default fractional tolerance for speedup ratios; load cancels out
#: of a ratio, so the band is tighter.
SPEEDUP_TOLERANCE = 0.3

RATE_KEYS = tuple(
    f"{family}_probes_per_sec_{engine}"
    for family in ("hammer", "retention", "program", "trcd")
    for engine in ENGINE_NAMES
)
SPEEDUP_KEYS = tuple(bench_probe.SPEEDUP_FLOORS)
#: Wall-clock keys: lower is better, so their band is a ceiling.
SECONDS_KEYS = ("characterization_seconds_fused", "ladder_seconds_fused")

#: Experiment families covered by the differential bit-identity gate.
FAMILIES = ("rowhammer", "trcd", "retention")
#: V_PP points of the differential: nominal and a reduced level for
#: every family, then nominal and A0's V_PPmin for the tRCD family,
#: where rows walk up from the nominal tRCD.
VPP_LEVELS = (2.5, 2.2)
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
    BENCH_probe.json on a machine where the kernel no longer clears its
    floors, the commit fails here deterministically.
    """
    failures = []
    for key, floor in bench_probe.SPEEDUP_FLOORS.items():
        value = committed.get(key)
        if value is not None and value < floor:
            failures.append(
                f"committed {key} {value:.2f} below its {floor:g}x floor "
                "(fused kernel vs command oracle)"
            )
    return failures


def differential_check():
    """Return the experiment families where a tiny-scale fused study
    diverges from the command oracle (bit-identity gate)."""
    from repro.core.scale import StudyScale
    from repro.core.study import CharacterizationStudy

    def run(engine, tests, vpp_levels):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine=engine
        )
        return study.run_module("A0", tests=tests, vpp_levels=vpp_levels)

    mismatches = []
    for tests, levels in ((FAMILIES, VPP_LEVELS), (("trcd",), TRCD_VPP_LEVELS)):
        fused = run("fused", tests, levels)
        command = run("command", tests, levels)
        mismatches.extend(
            f"{family} (V_PP {levels})" for family in tests
            if getattr(fused, family) != getattr(command, family)
        )
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
    for key in SECONDS_KEYS:
        if key not in committed:
            continue
        ceiling = committed[key] * (1.0 + rate_tol)
        if measured[key] > ceiling:
            failures.append(
                f"{key}: measured {measured[key]:.3f} s > ceiling "
                f"{ceiling:.3f} s (committed {committed[key]:.3f} s, "
                f"tolerance {rate_tol:.0%})"
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
             "baseline gates + fused-vs-command bit-identity), skipping "
             "the timing re-measurement (the CI entry point)",
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

    print("checking fused-vs-command bit-identity (tiny scale, all "
          "experiment families)...")
    mismatches = differential_check()
    if mismatches:
        print("the fused kernel diverges from the command oracle on: "
              + ", ".join(mismatches), file=sys.stderr)
        return 1
    print("fused records match the command oracle bit-for-bit")

    if args.smoke:
        print("\nsmoke mode: skipping timing re-measurement")
        return 0

    print("re-measuring probe throughput...")
    measured = dict(bench_probe.bench_probe_rates())
    print("re-measuring DSL-program probe throughput...")
    measured.update(bench_probe.bench_program_rates())
    print("re-measuring Alg. 2 (tRCD) probe throughput...")
    measured.update(bench_probe.bench_trcd_rates())
    print("re-measuring one-module bench campaign (fused vs command)...")
    measured.update(bench_probe.bench_campaign())
    print("re-measuring characterization campaign (fused)...")
    measured.update(bench_probe.bench_characterization_campaign(runs=2))
    print("re-measuring V_PP-ladder campaign (fused)...")
    measured.update(bench_probe.bench_vpp_ladder_campaign(runs=3))

    for key in RATE_KEYS + SPEEDUP_KEYS + SECONDS_KEYS:
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
