#!/usr/bin/env python3
"""Perf-regression guard against the committed BENCH_probe.json.

Seven layers, any of which fails the check (exit 1):

* deterministic acceptance gates on the *committed* baseline itself:
  every kernel-over-oracle speedup (fused vs command: hammer,
  retention, DSL-program and tRCD probes, the bench campaign) must hold
  its floor (``bench_probe.SPEEDUP_FLOORS``; asserted on the committed
  numbers, so a noisy check machine cannot flake them);
* a differential bit-identity gate: a tiny-scale study runs on the
  fused kernel and the command oracle and every experiment family
  (rowhammer, tRCD, retention) must match record-for-record; the
  ``trcd`` family additionally runs down to A0's V_PPmin, where rows
  walk up from the nominal tRCD, and rowhammer and retention rerun at
  the paper's 65536-bit rows, where float32 tolerance ties occur; that
  rerun must also answer every probe from the per-row layout heads
  (``repro_layout_extensions_total`` stays 0), so heads made too small
  fail here rather than silently slowing studies down, and must clear
  every sensing check on its bound, generating no tRCD cell vector
  (``repro_cell_vector_generations_total{family="trcd"}`` stays 0),
  and must read only jitter its hammer passes' warm-up derived
  (``repro_jitter_draws_total{path="block"}``, the per-row fallback
  windows, stays 0);
* a perf-regression guard: re-measures the probe-throughput rates and
  the campaigns (``make bench`` writes them; see ``bench_probe.py``)
  and fails when a rate or speedup falls below its committed value, or
  a fused campaign time (the characterization, the V_PP ladder and
  the WCDP phase) rises above it, by more than the tolerance band.
  Ratios (the speedups) are compared with a tighter band than absolute
  rates and times, which swing with machine load;
* a memory gate: the preheat's ``tracemalloc`` peak
  (``preheat_peak_mib_fused``) must not exceed its committed value by
  more than :data:`PEAK_TOLERANCE`. It measures allocation sizes, not
  speed, so it runs in both modes with a fixed band;
* a study-store gate: the A0 ``ladder`` study's decoded size
  (``study_decoded_mib``, ``tracemalloc``) must not exceed its committed
  value by more than :data:`PEAK_TOLERANCE`, and ``StudyStore.load``
  (the column file) must be ``store_load_speedup``'s floor times
  faster than ``StudyStore.load_dict`` (the JSON document), the two
  measured alternately in one process, in both modes, so a ``load``
  that parses the document again fails CI; full mode also guards its
  load and publish times (``study_load_ms``, ``study_publish_ms``)
  with the timing band;
* a cold-start gate: a fresh interpreter importing the service and CLI
  entry points (``bench_probe.bench_cold_import``) must load no
  ``scipy`` module and no ``repro.harness.experiments`` module (the
  registry discovers experiments on first use), and its peak RSS
  (``cold_import_peak_mib``) must not exceed the committed value by
  more than :data:`PEAK_TOLERANCE`.
  Both run in both modes; full mode also guards
  ``cold_import_seconds`` with the timing band;
* a jitter-kernel gate: the measurement-jitter prefetch's speedups over
  per-key generator draws (``jitter_block_speedup``,
  ``jitter_small_block_speedup``) are re-measured and must hold their
  ``SPEEDUP_FLOORS`` in one of :data:`JITTER_ATTEMPTS` measurements.
  Both paths run alternately in one process, so the ratio is
  machine-speed independent; it runs in both modes, so a prefetch that
  stops vectorizing fails CI.

``--smoke`` runs every layer but the timing re-measurement (the CI
entry point; ``make bench-smoke``).

Tolerances are fractions of the committed value and can be widened on
noisy machines:

    REPRO_BENCH_TOLERANCE=0.5 make bench-check

Run:  PYTHONPATH=src python benchmarks/bench_check.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

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
#: Speedups the jitter-kernel gate re-measures in both modes, and the
#: measurements it makes before failing: a loaded machine can depress
#: one measurement, a per-key prefetch (speedup ~1) fails all of them.
JITTER_SPEEDUP_KEYS = ("jitter_block_speedup", "jitter_small_block_speedup")
JITTER_ATTEMPTS = 3
#: Wall-clock keys (seconds, or ms for the study store): lower is
#: better, so their band is a ceiling.
SECONDS_KEYS = (
    "characterization_seconds_fused", "ladder_seconds_fused",
    "wcdp_seconds_fused", "preheat_seconds_fused", "cold_import_seconds",
    "study_load_ms", "study_publish_ms",
)

#: Fractional ceiling on the preheat's traced peak and the cold
#: import's peak RSS over their committed values (machine-speed
#: independent, so not widened by
#: ``REPRO_BENCH_TOLERANCE``).
PEAK_TOLERANCE = 0.25
PEAK_KEY = "preheat_peak_mib_fused"
#: The cold-import peak RSS, held to the same band.
COLD_PEAK_KEY = "cold_import_peak_mib"
#: The decoded study's traced size, held to the same band.
STUDY_SIZE_KEY = "study_decoded_mib"
#: The store's load-over-parse speedup, held to its floor in both modes.
STORE_SPEEDUP_KEY = "store_load_speedup"

#: Experiment families covered by the differential bit-identity gate.
FAMILIES = ("rowhammer", "trcd", "retention")
#: V_PP points of the differential: nominal and a reduced level for
#: every family, then nominal and A0's V_PPmin for the tRCD family,
#: where rows walk up from the nominal tRCD.
VPP_LEVELS = (2.5, 2.2)
TRCD_VPP_LEVELS = (2.5, 1.4)
#: The paper modules' physical row size (8 KiB), and the families the
#: differential also runs there.
PAPER_ROW_BITS = 65536
PAPER_ROW_FAMILIES = ("rowhammer", "retention")


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
    """Return ``(families, extensions, trcd_vectors, jitter_windows)``:
    the experiment families where a fused study diverges from the
    command oracle (bit-identity gate), and the lazy layout extensions,
    tRCD cell vector generations and per-row fallback jitter-window
    lanes the fused paper-row-size study made, printing each case's
    time.

    Every family runs at tiny scale; rowhammer and retention also run
    over the tiny row sample at the paper's row size, where float32
    tolerance ties occur (the tiny 2048-bit rows have almost none)."""
    from repro.core.scale import StudyScale
    from repro.core.study import CharacterizationStudy
    from repro.dram.bank import LAYOUT_EXTENSIONS_METRIC
    from repro.dram.cell import (
        CELL_VECTOR_GENERATIONS_METRIC,
        JITTER_DRAWS_METRIC,
    )
    from repro.obs.metrics import REGISTRY

    def extensions():
        return REGISTRY.counter_values().get(LAYOUT_EXTENSIONS_METRIC, 0.0)

    def trcd_vectors():
        return REGISTRY.counter(
            CELL_VECTOR_GENERATIONS_METRIC, labels=("family",)
        ).labels(family="trcd").value

    def jitter_windows():
        return REGISTRY.counter(
            JITTER_DRAWS_METRIC, labels=("path",)
        ).labels(path="block").value

    tiny = StudyScale.tiny()
    paper_rows = dataclasses.replace(
        tiny,
        geometry=dataclasses.replace(tiny.geometry, row_bits=PAPER_ROW_BITS),
    )

    def run(engine, scale, tests, vpp_levels):
        study = CharacterizationStudy(
            scale=scale, seed=3, probe_engine=engine
        )
        return study.run_module("A0", tests=tests, vpp_levels=vpp_levels)

    mismatches = []
    paper_extensions = paper_trcd_vectors = paper_windows = 0.0
    for scale, tests, levels in (
        (tiny, FAMILIES, VPP_LEVELS),
        (tiny, ("trcd",), TRCD_VPP_LEVELS),
        (paper_rows, PAPER_ROW_FAMILIES, VPP_LEVELS),
    ):
        started = time.monotonic()
        before = extensions(), trcd_vectors(), jitter_windows()
        fused = run("fused", scale, tests, levels)
        if scale is paper_rows:
            paper_extensions = extensions() - before[0]
            paper_trcd_vectors = trcd_vectors() - before[1]
            paper_windows = jitter_windows() - before[2]
        command = run("command", scale, tests, levels)
        row_bits = scale.geometry.row_bits
        print(f"  {'/'.join(tests)} at V_PP {levels}, {row_bits}-bit "
              f"rows: {time.monotonic() - started:.1f} s")
        mismatches.extend(
            f"{family} (V_PP {levels}, {row_bits}-bit rows)"
            for family in tests
            if getattr(fused, family) != getattr(command, family)
        )
    return mismatches, paper_extensions, paper_trcd_vectors, paper_windows


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
                f"{key}: measured {measured[key]:.3f} > ceiling "
                f"{ceiling:.3f} (committed {committed[key]:.3f}, "
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

    print("measuring the entry points' cold import...")
    cold = bench_probe.bench_cold_import()
    print(f"cold import {cold['cold_import_seconds']:.2f} s, peak "
          f"{cold[COLD_PEAK_KEY]:.1f} MiB, "
          f"{cold['cold_import_scipy_modules']} scipy modules, "
          f"{cold['cold_import_experiment_modules']} experiment modules")
    if cold["cold_import_scipy_modules"]:
        print("importing repro.api.server and repro.harness.runner loaded "
              "scipy: it is a test-only dependency and must stay out of "
              "the runtime import graph", file=sys.stderr)
        return 1
    if cold["cold_import_experiment_modules"]:
        print("importing repro.api.server and repro.harness.runner loaded "
              "experiment modules: the registry must import one only "
              "when it is looked up", file=sys.stderr)
        return 1
    if COLD_PEAK_KEY in committed:
        ceiling = committed[COLD_PEAK_KEY] * (1.0 + PEAK_TOLERANCE)
        if cold[COLD_PEAK_KEY] > ceiling:
            print(f"{COLD_PEAK_KEY}: measured {cold[COLD_PEAK_KEY]:.1f} MiB "
                  f"> ceiling {ceiling:.1f} MiB (committed "
                  f"{committed[COLD_PEAK_KEY]:.1f} MiB, tolerance "
                  f"{PEAK_TOLERANCE:.0%})", file=sys.stderr)
            return 1

    print("checking fused-vs-command bit-identity (tiny scale, all "
          "experiment families; rowhammer/retention also at "
          f"{PAPER_ROW_BITS}-bit rows)...")
    mismatches, extensions, trcd_vectors, windows = differential_check()
    if mismatches:
        print("the fused kernel diverges from the command oracle on: "
              + ", ".join(mismatches), file=sys.stderr)
        return 1
    print("fused records match the command oracle bit-for-bit")
    if extensions:
        print(f"the {PAPER_ROW_BITS}-bit-row studies extended "
              f"{extensions:g} per-row layout heads to the full sort "
              "(repro_layout_extensions_total must stay 0 there): the "
              "head bounds in repro.dram.bank are too small",
              file=sys.stderr)
        return 1
    print(f"every {PAPER_ROW_BITS}-bit-row probe was answered from the "
          "layout heads")
    if trcd_vectors:
        print(f"the {PAPER_ROW_BITS}-bit-row RowHammer + retention study "
              f"generated {trcd_vectors:g} tRCD cell vectors "
              "(repro_cell_vector_generations_total{family=\"trcd\"} "
              "must stay 0 there): a sensing check no longer clears on "
              "its bound (repro.dram.cell.TRCD_CELL_FACTOR_BOUND)",
              file=sys.stderr)
        return 1
    print("every sensing check cleared on its bound (no tRCD cell vector)")
    if windows:
        print(f"the {PAPER_ROW_BITS}-bit-row RowHammer + retention study "
              f"derived {windows:g} jitter lanes in per-row fallback "
              "windows (repro_jitter_draws_total{path=\"block\"} must "
              "stay 0 there): the hammer passes' warm-up "
              "(repro.dram.bank.Bank.preheat_jitter) no longer predicts "
              "the double-sided schedule's reads", file=sys.stderr)
        return 1
    print("the hammer passes' warm-up predicted every jitter read (no "
          "fallback window)")

    if PEAK_KEY in committed:
        peak = bench_probe.bench_preheat_peak()[PEAK_KEY]
        ceiling = committed[PEAK_KEY] * (1.0 + PEAK_TOLERANCE)
        print(f"preheat traced peak {peak:.1f} MiB (committed "
              f"{committed[PEAK_KEY]:.1f} MiB)")
        if peak > ceiling:
            print(f"{PEAK_KEY}: measured {peak:.1f} MiB > ceiling "
                  f"{ceiling:.1f} MiB (committed {committed[PEAK_KEY]:.1f}"
                  f" MiB, tolerance {PEAK_TOLERANCE:.0%})", file=sys.stderr)
            return 1

    print("measuring the study store (A0 ladder document)...")
    store = bench_probe.bench_study_store()
    store_floor = bench_probe.SPEEDUP_FLOORS[STORE_SPEEDUP_KEY]
    print(f"study load {store['study_load_ms']:.1f} ms, publish "
          f"{store['study_publish_ms']:.1f} ms, decoded "
          f"{store[STUDY_SIZE_KEY]:.2f} MiB, {STORE_SPEEDUP_KEY} "
          f"{store[STORE_SPEEDUP_KEY]:.1f} (floor {store_floor:g}x)")
    if store[STORE_SPEEDUP_KEY] < store_floor:
        print(f"{STORE_SPEEDUP_KEY}: measured {store[STORE_SPEEDUP_KEY]:.1f}"
              f" < floor {store_floor:g}x: StudyStore.load no longer "
              "decodes only the column file", file=sys.stderr)
        return 1
    if STUDY_SIZE_KEY in committed:
        ceiling = committed[STUDY_SIZE_KEY] * (1.0 + PEAK_TOLERANCE)
        if store[STUDY_SIZE_KEY] > ceiling:
            print(f"{STUDY_SIZE_KEY}: measured {store[STUDY_SIZE_KEY]:.2f} "
                  f"MiB > ceiling {ceiling:.2f} MiB (committed "
                  f"{committed[STUDY_SIZE_KEY]:.2f} MiB, tolerance "
                  f"{PEAK_TOLERANCE:.0%})", file=sys.stderr)
            return 1

    print("measuring the jitter prefetch against per-key draws...")
    for _ in range(JITTER_ATTEMPTS):
        jitter = bench_probe.bench_jitter_rates()
        short = [
            key for key in JITTER_SPEEDUP_KEYS
            if jitter[key] < bench_probe.SPEEDUP_FLOORS[key]
        ]
        for key in JITTER_SPEEDUP_KEYS:
            print(f"{key} {jitter[key]:.2f} (floor "
                  f"{bench_probe.SPEEDUP_FLOORS[key]:g}x)")
        if not short:
            break
    else:
        print(f"{', '.join(short)} below the floor in all "
              f"{JITTER_ATTEMPTS} attempts: the jitter prefetch is not "
              "vectorized", file=sys.stderr)
        return 1

    if args.smoke:
        print("\nsmoke mode: skipping timing re-measurement")
        return 0

    print("re-measuring probe throughput...")
    measured = dict(bench_probe.bench_probe_rates())
    measured.update(jitter)
    measured.update(cold)
    measured.update(store)
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
    print("re-measuring the WCDP phase (fused)...")
    measured.update(bench_probe.bench_wcdp_phase())
    print("re-measuring the preheat (fused)...")
    measured.update(bench_probe.bench_preheat())

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
