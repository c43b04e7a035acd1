#!/usr/bin/env python3
"""Probe-kernel and campaign benchmark -> BENCH_probe.json.

Measures, with both cache layers disabled:

* single-probe throughput (probes/sec) of the batch, fast and
  command-level engines, for the Alg. 1 hammer probe and the Alg. 3
  retention probe, and of the batch and command engines for the Alg. 2
  tRCD probe (over whole ``find_trcd_min`` sweeps);
* wall-clock of a bench-scale one-module RowHammer campaign
  (``get_study(("rowhammer",))``) on the fast and command engines --
  the acceptance metric of the probe-kernel PR (fast >= 3x command);
* wall-clock of the *characterization campaign* -- Alg. 1 bisections
  plus Alg. 3 retention ladders over the bench row set at the paper
  modules' physical row size (8 KiB) -- on the fast, batch and fused
  engines: the acceptance metric of the row-batched study kernels
  (batch >= 3x fast). Engines are timed interleaved (min of several
  alternating runs) because the batch engine's advantage would
  otherwise be polluted by machine-load drift;
* wall-clock of the *V_PP-grid ladder phases* of that campaign --
  Alg. 1 and Alg. 3 re-run at every operating point of the V_PP grid
  -- on the batch and fused engines: the acceptance metric of the
  fused sweep kernels (fused >= 3x batch). Setup, preheat and WCDP
  determination run once per engine as an untimed prologue: those
  phases execute at a single operating point, so cross-operating-point
  fusion cannot apply to them and timing them would only dilute the
  metric identically on both sides.

The JSON is written next to this script (override with ``--out``) so
future PRs have a perf trajectory to compare against;
``benchmarks/bench_check.py`` (``make bench-check``) guards it.

Run:  PYTHONPATH=src python benchmarks/bench_probe.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.core import retention as retention_test
from repro.core import rowhammer as rowhammer_test
from repro.core.context import TestContext
from repro.core.rowhammer import measure_ber
from repro.core.retention import measure_retention
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.trcd import find_trcd_min
from repro.core.wcdp import retention_wcdp, rowhammer_wcdp
from repro.dram import constants
from repro.dram.calibration import ModuleGeometry
from repro.dram.patterns import STANDARD_PATTERNS
from repro.harness.cache import clear_cache, get_study, set_study_cache_dir
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.softmc.infrastructure import TestInfrastructure

GEOMETRY = ModuleGeometry(rows_per_bank=4096, banks=1, row_bits=8192)
MODULE = "B3"
CAMPAIGN_MODULE = "A0"
CAMPAIGN_TESTS = ("rowhammer", "retention")
#: The characterization campaign runs the bench row set against the
#: paper modules' physical row size (8 KiB = 65536 cells; the default
#: bench geometry's 8192-bit rows are a deliberately small stand-in).
CHARACTERIZATION_SCALE = dataclasses.replace(
    StudyScale.bench(),
    geometry=ModuleGeometry(row_bits=65536),
)
#: The V_PP-ladder campaign keeps the paper-realistic row size on an
#: explicit two-bank module geometry (the probed bank behaves the
#: same; the second bank keeps module generation honest about size).
LADDER_SCALE = dataclasses.replace(
    StudyScale.bench(),
    geometry=ModuleGeometry(rows_per_bank=4096, banks=2, row_bits=65536),
)


def _context(probe_engine, program=None):
    scale = StudyScale(rows_per_module=8, iterations=1,
                       hcfirst_min_step=8000, geometry=GEOMETRY)
    infra = TestInfrastructure.for_module(MODULE, geometry=GEOMETRY, seed=1)
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    return TestContext(
        infra, scale, probe_engine=probe_engine, program=program
    )


def _probe_rate(probe, warmup=3, seconds=1.0):
    """Steady-state probes/sec of a zero-argument probe callable."""
    for _ in range(warmup):
        probe()
    count = 0
    started = time.monotonic()
    while True:
        probe()
        count += 1
        elapsed = time.monotonic() - started
        if elapsed >= seconds:
            return count / elapsed


def bench_probe_rates():
    rates = {}
    hammer_pattern = STANDARD_PATTERNS[0]
    retention_pattern = STANDARD_PATTERNS[2]
    for engine in ("batch", "fused", "fast", "command"):
        ctx = _context(engine)
        rates[f"hammer_probes_per_sec_{engine}"] = _probe_rate(
            lambda: measure_ber(ctx, 100, hammer_pattern, 300_000)
        )
        ctx = _context(engine)
        rates[f"retention_probes_per_sec_{engine}"] = _probe_rate(
            lambda: measure_retention(ctx, 100, retention_pattern, 0.256)
        )
    rates["hammer_probe_speedup"] = (
        rates["hammer_probes_per_sec_fast"]
        / rates["hammer_probes_per_sec_command"]
    )
    rates["retention_probe_speedup"] = (
        rates["retention_probes_per_sec_fast"]
        / rates["retention_probes_per_sec_command"]
    )
    return rates


def bench_program_rates():
    """DSL-program probe throughput: the compiled path (a non-default
    4-sided program lowered onto the batch kernels) vs the fallback
    path (the same program emitted as an instruction stream on the
    command engine) -- the program-DSL PR's acceptance metric
    (compiled >= 3x command)."""
    from repro.core.probe import one_shot_hammer_ber
    from repro.progdsl import compile_program

    program = compile_program("quad-sided")
    pattern = STANDARD_PATTERNS[0]
    rates = {}
    for engine in ("batch", "command"):
        ctx = _context(engine, program=program)
        rates[f"program_probes_per_sec_{engine}"] = _probe_rate(
            lambda: one_shot_hammer_ber(ctx, 100, pattern, 300_000)
        )
    rates["program_probe_speedup"] = (
        rates["program_probes_per_sec_batch"]
        / rates["program_probes_per_sec_command"]
    )
    return rates


def _trcd_probe_rate(ctx, pattern, seconds=1.0):
    """Steady-state Alg. 2 probes/sec over whole ``find_trcd_min``
    sweeps (session set-up included), counted by the engine."""
    find_trcd_min(ctx, 100, pattern)  # warmup
    counters = ctx.engine.counters
    before = counters.trcd_probes
    started = time.monotonic()
    while True:
        find_trcd_min(ctx, 100, pattern)
        elapsed = time.monotonic() - started
        if elapsed >= seconds:
            return (counters.trcd_probes - before) / elapsed


def bench_trcd_rates():
    """Alg. 2 (tRCD sweep) probe throughput: the kernel session on the
    batch engine vs the command engine's SoftMC programs."""
    pattern = STANDARD_PATTERNS[0]
    return {
        f"trcd_probes_per_sec_{engine}": _trcd_probe_rate(
            _context(engine), pattern
        )
        for engine in ("batch", "command")
    }


def _timed_campaign(engine, tests, scale=None):
    os.environ["REPRO_PROBE_ENGINE"] = engine
    try:
        clear_cache()
        started = time.monotonic()
        get_study(tests, modules=(CAMPAIGN_MODULE,), scale=scale)
        return time.monotonic() - started
    finally:
        os.environ.pop("REPRO_PROBE_ENGINE", None)
        clear_cache()


def bench_campaign():
    """The probe-kernel PR's acceptance campaign: fast vs command on
    the default bench scale (kept for the perf trajectory)."""
    results = {}
    for engine in ("fast", "command"):
        results[f"campaign_seconds_{engine}"] = _timed_campaign(
            engine, ("rowhammer",)
        )
    results["campaign_speedup"] = (
        results["campaign_seconds_command"] / results["campaign_seconds_fast"]
    )
    return results


def bench_characterization_campaign(runs=2):
    """The row-batched kernel PR's acceptance campaign: batch vs fast,
    both Alg. 1 and Alg. 3, at the paper-realistic row size. The fused
    engine rides along for the end-to-end trajectory (its acceptance
    metric is the ladder-phase campaign below, where the single-
    operating-point prologue does not dilute the comparison)."""
    engines = ("fast", "batch", "fused")
    for engine in engines:  # warmup: module generation, import costs
        _timed_campaign(engine, CAMPAIGN_TESTS, CHARACTERIZATION_SCALE)
    times = {engine: [] for engine in engines}
    for _ in range(runs):
        for engine in engines:
            times[engine].append(_timed_campaign(
                engine, CAMPAIGN_TESTS, CHARACTERIZATION_SCALE
            ))
    results = {
        f"characterization_seconds_{engine}": min(times[engine])
        for engine in engines
    }
    results["campaign_speedup_batch_over_fast"] = (
        results["characterization_seconds_fast"]
        / results["characterization_seconds_batch"]
    )
    return results


def _ladder_state(engine):
    """Untimed prologue of the ladder campaign: context, row sample,
    preheat and both WCDP maps at nominal V_PP, shared by every timed
    run of that engine."""
    scale = LADDER_SCALE
    infra = TestInfrastructure.for_module(
        CAMPAIGN_MODULE, geometry=scale.geometry, seed=1
    )
    ctx = TestContext(infra, scale, probe_engine=engine)
    rows = sample_rows(
        scale.geometry.rows_per_bank, scale.rows_per_module,
        scale.row_chunks,
    )
    preheat = getattr(ctx.engine, "preheat", None)
    if preheat is not None:
        preheat(ctx, rows)
    infra.set_vpp(constants.NOMINAL_VPP)
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    wcdp_rh = {row: rowhammer_wcdp(ctx, row) for row in rows}
    infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
    wcdp_ret = {row: retention_wcdp(ctx, row) for row in rows}
    return ctx, rows, wcdp_rh, wcdp_ret, infra.vpp_levels(scale.vpp_step)


def _timed_ladder(state):
    """One pass over the V_PP grid: Alg. 1 then Alg. 3 at every level
    (the exact phase order of ``CharacterizationStudy.run_module``)."""
    ctx, rows, wcdp_rh, wcdp_ret, levels = state
    infra = ctx.infra
    started = time.monotonic()
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    for vpp in levels:
        infra.set_vpp(vpp)
        rowhammer_test.characterize_rows(ctx, rows, wcdp_rh, vpp)
    infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
    for vpp in levels:
        infra.set_vpp(vpp)
        retention_test.characterize_rows(ctx, rows, wcdp_ret, vpp)
    return time.monotonic() - started


def bench_vpp_ladder_campaign(runs=3):
    """The fused-kernel PR's acceptance campaign: batch vs fused over
    the V_PP-grid ladder phases (Alg. 1 worst-BER ladders + bisections
    and Alg. 3 retention ladders, re-run at every operating point).

    The ladder phases are exactly where the batch engine re-enters one
    bisection per operating point while the fused engine resolves the
    whole grid against one resolved sweep; the single-operating-point
    prologue (setup, preheat, WCDP) runs once per engine, untimed --
    cross-operating-point fusion cannot apply there, so timing it
    would only shift both sides by the same constant.
    """
    engines = ("batch", "fused")
    states = {engine: _ladder_state(engine) for engine in engines}
    for engine in engines:  # warmup: sweep resolution, lazy imports
        _timed_ladder(states[engine])
    times = {engine: [] for engine in engines}
    for _ in range(runs):
        for engine in engines:
            times[engine].append(_timed_ladder(states[engine]))
    results = {
        f"ladder_seconds_{engine}": min(times[engine]) for engine in engines
    }
    results["campaign_speedup_fused_over_batch"] = (
        results["ladder_seconds_batch"] / results["ladder_seconds_fused"]
    )
    return results


REPORT_KEYS = (
    "hammer_probes_per_sec_batch", "hammer_probes_per_sec_fused",
    "hammer_probes_per_sec_fast", "hammer_probes_per_sec_command",
    "retention_probes_per_sec_batch", "retention_probes_per_sec_fused",
    "retention_probes_per_sec_fast", "retention_probes_per_sec_command",
    "hammer_probe_speedup", "retention_probe_speedup",
    "program_probes_per_sec_batch", "program_probes_per_sec_command",
    "program_probe_speedup",
    "trcd_probes_per_sec_batch", "trcd_probes_per_sec_command",
    "campaign_seconds_fast", "campaign_seconds_command",
    "campaign_speedup", "characterization_seconds_fast",
    "characterization_seconds_batch", "characterization_seconds_fused",
    "campaign_speedup_batch_over_fast",
    "ladder_seconds_batch", "ladder_seconds_fused",
    "campaign_speedup_fused_over_batch",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(os.path.dirname(__file__), "BENCH_probe.json")
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record spans during the benchmark and write Chrome-trace "
             "JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text to PATH",
    )
    args = parser.parse_args(argv)

    if args.trace:
        TRACER.enable()
    counters_before = REGISTRY.counter_values()
    set_study_cache_dir(None)
    print("measuring single-probe throughput...")
    payload = {"scope": {
        "probe_module": MODULE,
        "campaign_module": CAMPAIGN_MODULE,
        "campaign": "bench-scale get_study(('rowhammer',))",
        "characterization_campaign": (
            "bench-scale get_study(('rowhammer', 'retention')) at 65536-bit"
            " physical rows, interleaved min-of-2"
        ),
        "ladder_campaign": (
            "V_PP-grid ladder phases (Alg. 1 + Alg. 3 at every level) at"
            " 65536-bit physical rows, batch vs fused, interleaved"
            " min-of-3; setup/preheat/WCDP run untimed at a single"
            " operating point"
        ),
        "trcd_probes": (
            "find_trcd_min sweeps of one B3 row (8192-bit rows), batch vs"
            " command"
        ),
    }}
    payload.update(bench_probe_rates())
    print("measuring DSL-program probe throughput (compiled vs command)...")
    payload.update(bench_program_rates())
    print("measuring Alg. 2 (tRCD) probe throughput (batch vs command)...")
    payload.update(bench_trcd_rates())
    print("measuring one-module bench campaigns (fast vs command)...")
    payload.update(bench_campaign())
    print("measuring characterization campaigns (fast vs batch vs fused)...")
    payload.update(bench_characterization_campaign())
    print("measuring V_PP-ladder campaigns (batch vs fused)...")
    payload.update(bench_vpp_ladder_campaign())

    # The registry counters spent producing these numbers travel with
    # them, so BENCH_probe.json entries are self-describing.
    counters_after = REGISTRY.counter_values()
    payload["counters"] = {
        name: value - counters_before.get(name, 0.0)
        for name, value in sorted(counters_after.items())
        if value - counters_before.get(name, 0.0)
    }

    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    if args.trace:
        TRACER.write_chrome_trace(args.trace)
        print(f"trace written: {args.trace}")
    if args.metrics_out:
        REGISTRY.write_prometheus(args.metrics_out)
        print(f"metrics written: {args.metrics_out}")

    for key in REPORT_KEYS:
        print(f"{key:>36}: {payload[key]:.2f}")
    print(f"wrote {args.out}")
    failed = False
    if payload["campaign_speedup"] < 3.0:
        print("WARNING: fast-over-command campaign speedup below the 3x "
              "acceptance target", file=sys.stderr)
        failed = True
    if payload["campaign_speedup_batch_over_fast"] < 3.0:
        print("WARNING: batch-over-fast characterization speedup below the "
              "3x acceptance target", file=sys.stderr)
        failed = True
    if payload["campaign_speedup_fused_over_batch"] < 3.0:
        print("WARNING: fused-over-batch ladder speedup below the 3x "
              "acceptance target", file=sys.stderr)
        failed = True
    if payload["program_probe_speedup"] < 3.0:
        print("WARNING: compiled-program-over-command probe speedup below "
              "the 3x acceptance target", file=sys.stderr)
        failed = True
    if (payload["hammer_probes_per_sec_fused"]
            <= payload["hammer_probes_per_sec_fast"]):
        print("WARNING: fused single-probe hammer rate does not beat the "
              "fast engine", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
