#!/usr/bin/env python3
"""Probe-kernel and campaign benchmark -> BENCH_probe.json.

Measures the fused kernel engine against the command-engine oracle,
with both cache layers disabled:

* single-probe throughput (probes/sec) of the Alg. 1 hammer probe, the
  Alg. 3 retention probe, a compiled DSL program's probe and the Alg. 2
  tRCD probe (over whole ``find_trcd_min`` sweeps), each with its
  kernel-over-oracle speedup;
* measurement-jitter derivation (draws/sec) of one row's block of
  restore sessions, 128 and 20 keys: the prefetch's vectorized kernel
  against per-key generator draws, with its speedups;
* wall-clock of a bench-scale one-module RowHammer campaign
  (``CharacterizationStudy(probe_engine=...).run``) on both engines,
  and its speedup;
* wall-clock of the *characterization campaign* -- Alg. 1 bisections
  plus Alg. 3 retention ladders over the bench row set at the paper
  modules' physical row size (8 KiB) -- on the kernel (min of several
  runs; the command engine would take minutes here);
* wall-clock of the *V_PP-grid ladder phases* of that campaign --
  Alg. 1 and Alg. 3 re-run at every operating point of the V_PP grid
  -- on the kernel. Setup, preheat and WCDP determination run once as
  an untimed prologue: those phases execute at a single operating
  point, so timing them would only dilute the cross-operating-point
  metric;
* wall-clock of that campaign's *WCDP phase* (six data patterns per
  row under the RowHammer and the retention rule) on the kernel, each
  run on a fresh context so the phase pays its first-visit costs;
* wall-clock of that campaign's *preheat* (per-cell generation and
  the per-row tolerance and retention layouts) on the kernel, each run
  on a fresh context, and the preheat's ``tracemalloc`` peak (MiB):
  allocation sizes, not speed, so ``bench_check --smoke`` gates it;
* the study store: ``StudyStore.load`` (decode the column file into
  column tables) and ``StudyStore.store`` (encode and write the column
  file and the document) of that campaign's A0 seed-0 study, min of
  several runs; ``load``'s speedup over ``StudyStore.load_dict``
  (parse the JSON document), which ``bench_check`` holds to its floor;
  and the ``tracemalloc`` size of the decoded study (MiB), which
  ``bench_check --smoke`` gates;
* the cold start of the service and CLI entry points: a fresh
  interpreter imports ``repro.api.server`` and ``repro.harness.runner``
  (import wall seconds, min of several runs, and the interpreter's
  peak RSS in MiB), and counts the ``scipy`` modules and the
  ``repro.harness.experiments`` modules that import loaded, which
  ``bench_check`` requires to be none.

The JSON is written next to this script (override with ``--out``) so
future changes have a perf trajectory to compare against;
``benchmarks/bench_check.py`` (``make bench-check``) guards it and
holds the speedup floors (:data:`SPEEDUP_FLOORS`).

Run:  PYTHONPATH=src python benchmarks/bench_probe.py
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

from repro.core import retention as retention_test
from repro.core import rowhammer as rowhammer_test
from repro.core.context import TestContext
from repro.core.probe import ENGINE_NAMES
from repro.core.rowhammer import measure_ber
from repro.core.retention import measure_retention
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.core.trcd import find_trcd_min
from repro.core.wcdp import (
    retention_wcdp,
    rowhammer_probe_bound,
    rowhammer_wcdp,
)
from repro.dram import constants
from repro.dram.calibration import ModuleGeometry
from repro.dram.patterns import STANDARD_PATTERNS
from repro.harness.cache import clear_cache, get_study, set_study_cache_dir
from repro.harness.store import StudyStore
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


#: Sessions per measurement-jitter block: a row's extension block and
#: its initial window (``CellParameterGenerator.JITTER_EXTEND_SPAN`` and
#: ``JITTER_WINDOW_SPAN``, on the stride-3 session lattice).
JITTER_BLOCK_KEYS = 128
JITTER_SMALL_BLOCK_KEYS = 20
#: Floors of the block prefetch over per-key ``generator(key)
#: .standard_normal()`` draws. Both sit above the ratios of the kernel
#: the vectorized one replaced (a reused PCG64 fed one state per draw:
#: 2.7-2.8x at 128 keys, 1.65-1.7x at 20 on a 2-core host; the
#: vectorized kernel measures ~7x and ~2.5x there), so a fixed-cost
#: regression to that kernel's level fails here.
JITTER_BLOCK_FLOOR = 3.5
JITTER_SMALL_BLOCK_FLOOR = 1.9
#: Floor of ``StudyStore.load`` (the column file) over
#: ``StudyStore.load_dict`` (the JSON document) on the ``ladder``
#: study: ~20x on a 2-core host, ~1x if ``load`` parses the document.
STORE_LOAD_FLOOR = 5.0

#: Kernel-over-oracle speedup floors, shared with ``bench_check``'s
#: committed-baseline gates. Each is at least the committed floor or
#: ratio of the retired tier it replaces (hammer: fast-over-command
#: 7.98; retention: 9.50; campaign and DSL program: the 3x targets).
SPEEDUP_FLOORS = {
    "hammer_probe_speedup": 8.0,
    "retention_probe_speedup": 9.5,
    "program_probe_speedup": 3.0,
    "trcd_probe_speedup": 3.0,
    "campaign_speedup": 3.0,
    "jitter_block_speedup": JITTER_BLOCK_FLOOR,
    "jitter_small_block_speedup": JITTER_SMALL_BLOCK_FLOOR,
    "store_load_speedup": STORE_LOAD_FLOOR,
}


def _speedup(rates, prefix):
    return rates[f"{prefix}_per_sec_fused"] / rates[
        f"{prefix}_per_sec_command"
    ]


def bench_probe_rates():
    rates = {}
    hammer_pattern = STANDARD_PATTERNS[0]
    retention_pattern = STANDARD_PATTERNS[2]
    for engine in ENGINE_NAMES:
        ctx = _context(engine)
        rates[f"hammer_probes_per_sec_{engine}"] = _probe_rate(
            lambda: measure_ber(ctx, 100, hammer_pattern, 300_000)
        )
        ctx = _context(engine)
        rates[f"retention_probes_per_sec_{engine}"] = _probe_rate(
            lambda: measure_retention(ctx, 100, retention_pattern, 0.256)
        )
    rates["hammer_probe_speedup"] = _speedup(rates, "hammer_probes")
    rates["retention_probe_speedup"] = _speedup(rates, "retention_probes")
    return rates


def bench_program_rates():
    """DSL-program probe throughput: the compiled path (a non-default
    4-sided program lowered onto the kernel) vs the fallback path (the
    same program emitted as an instruction stream on the command
    engine)."""
    from repro.core.probe import one_shot_hammer_ber
    from repro.progdsl import compile_program

    program = compile_program("quad-sided")
    pattern = STANDARD_PATTERNS[0]
    rates = {}
    for engine in ENGINE_NAMES:
        ctx = _context(engine, program=program)
        rates[f"program_probes_per_sec_{engine}"] = _probe_rate(
            lambda: one_shot_hammer_ber(ctx, 100, pattern, 300_000)
        )
    rates["program_probe_speedup"] = _speedup(rates, "program_probes")
    return rates


def bench_jitter_rates(rounds=200):
    """Measurement-jitter draws/sec for one row's block of sessions:
    the prefetch (``prefetch_measurement_jitter``: seeds, the vectorized
    draw kernel, exp and caching) against per-key
    ``generator(key).standard_normal()``, at the extension block and
    the initial window. The two paths alternate, each round on fresh
    sessions, and each keeps its fastest round, so machine load mostly
    cancels out of the speedups."""
    from repro.dram.calibration import calibrate
    from repro.dram.cell import CellParameterGenerator
    from repro.dram.profiles import module_profile
    from repro.rng import RngHub

    calibration = calibrate(module_profile(MODULE), GEOMETRY)
    hub = RngHub(5)
    rates = {}
    for name, keys in (("block", JITTER_BLOCK_KEYS),
                       ("small_block", JITTER_SMALL_BLOCK_KEYS)):
        cells = CellParameterGenerator(calibration, hub, bank_index=0)
        prefix = "bank/0/row/7/jitter/"
        block = per_key = float("inf")
        for round_index in range(rounds + 1):
            sessions = range(
                3 * keys * round_index, 3 * keys * (round_index + 1), 3
            )
            started = time.perf_counter()
            cells.prefetch_measurement_jitter(7, sessions)
            middle = time.perf_counter()
            for session in sessions:
                hub.generator(prefix + str(session)).standard_normal()
            ended = time.perf_counter()
            if round_index:  # the first round warms both paths
                block = min(block, middle - started)
                per_key = min(per_key, ended - middle)
        rates[f"jitter_{name}_draws_per_sec"] = keys / block
        rates[f"jitter_{name}_draws_per_sec_per_key"] = keys / per_key
        rates[f"jitter_{name}_speedup"] = per_key / block
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
    """Alg. 2 (tRCD sweep) probe throughput: the kernel session vs the
    command engine's SoftMC programs."""
    pattern = STANDARD_PATTERNS[0]
    rates = {
        f"trcd_probes_per_sec_{engine}": _trcd_probe_rate(
            _context(engine), pattern
        )
        for engine in ENGINE_NAMES
    }
    rates["trcd_probe_speedup"] = _speedup(rates, "trcd_probes")
    return rates


def _timed_campaign(engine, tests, scale=None):
    started = time.monotonic()
    CharacterizationStudy(scale=scale, probe_engine=engine).run(
        modules=(CAMPAIGN_MODULE,), tests=tuple(tests)
    )
    return time.monotonic() - started


def bench_campaign():
    """The one-module bench campaign on the kernel and the oracle."""
    results = {
        f"campaign_seconds_{engine}": _timed_campaign(engine, ("rowhammer",))
        for engine in ENGINE_NAMES
    }
    results["campaign_speedup"] = (
        results["campaign_seconds_command"] / results["campaign_seconds_fused"]
    )
    return results


def bench_characterization_campaign(runs=2):
    """Alg. 1 and Alg. 3 at the paper-realistic row size on the kernel
    (min of ``runs`` after one warmup run: module generation, import
    costs)."""
    _timed_campaign("fused", CAMPAIGN_TESTS, CHARACTERIZATION_SCALE)
    return {"characterization_seconds_fused": min(
        _timed_campaign("fused", CAMPAIGN_TESTS, CHARACTERIZATION_SCALE)
        for _ in range(runs)
    )}


def _ladder_context(engine):
    """A fresh ladder-geometry context and its row sample."""
    scale = LADDER_SCALE
    infra = TestInfrastructure.for_module(
        CAMPAIGN_MODULE, geometry=scale.geometry, seed=1
    )
    ctx = TestContext(infra, scale, probe_engine=engine)
    rows = sample_rows(
        scale.geometry.rows_per_bank, scale.rows_per_module,
        scale.row_chunks,
    )
    return ctx, rows


def _study_preheat(ctx, rows):
    """The study's first preheat: the campaign tests' layouts and the
    RowHammer WCDP pass's measurement jitter."""
    ctx.engine.preheat(
        ctx, rows, CAMPAIGN_TESTS,
        hammer_probes=rowhammer_probe_bound(ctx.scale),
    )


def _preheated_context(engine):
    """A fresh ladder-geometry context and its row sample, preheated
    for the campaign's tests."""
    ctx, rows = _ladder_context(engine)
    _study_preheat(ctx, rows)
    return ctx, rows


def _wcdp_maps(ctx, rows):
    """The study's WCDP phase at nominal V_PP: the RowHammer then the
    retention WCDP of every row."""
    infra = ctx.infra
    infra.set_vpp(constants.NOMINAL_VPP)
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    wcdp_rh = {row: rowhammer_wcdp(ctx, row) for row in rows}
    infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
    wcdp_ret = {row: retention_wcdp(ctx, row) for row in rows}
    return wcdp_rh, wcdp_ret


def _ladder_state(engine):
    """Untimed prologue of the ladder campaign: context, row sample,
    preheat and both WCDP maps at nominal V_PP, shared by every timed
    run of that engine."""
    ctx, rows = _preheated_context(engine)
    wcdp_rh, wcdp_ret = _wcdp_maps(ctx, rows)
    levels = ctx.infra.vpp_levels(LADDER_SCALE.vpp_step)
    return ctx, rows, wcdp_rh, wcdp_ret, levels


def _timed_ladder(state):
    """One pass over the V_PP grid: Alg. 1 (after its jitter warm-up)
    then Alg. 3 at every level (the exact phase order of
    ``CharacterizationStudy.run_module``)."""
    ctx, rows, wcdp_rh, wcdp_ret, levels = state
    infra = ctx.infra
    probes = rowhammer_test.probe_bound(ctx.scale)
    started = time.monotonic()
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    for vpp in levels:
        infra.set_vpp(vpp)
        ctx.engine.preheat(ctx, rows, (), hammer_probes=probes)
        rowhammer_test.characterize_rows(ctx, rows, wcdp_rh, vpp)
    infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
    for vpp in levels:
        infra.set_vpp(vpp)
        retention_test.characterize_rows(ctx, rows, wcdp_ret, vpp)
    return time.monotonic() - started


def bench_vpp_ladder_campaign(runs=3):
    """The V_PP-grid ladder phases (Alg. 1 worst-BER ladders +
    bisections and Alg. 3 retention ladders, re-run at every operating
    point) on the kernel: min of ``runs`` after one warmup pass (sweep
    resolution, lazy imports). The single-operating-point prologue
    (setup, preheat, WCDP) runs once, untimed."""
    state = _ladder_state("fused")
    _timed_ladder(state)
    return {"ladder_seconds_fused": min(
        _timed_ladder(state) for _ in range(runs)
    )}


def bench_wcdp_phase(runs=5):
    """The WCDP phase (six patterns per row under the RowHammer and the
    retention rule) on the kernel: min of ``runs``, each on a fresh
    context whose build and preheat run untimed, so every run pays the
    phase's first-visit costs as a study does."""
    timings = []
    for _ in range(runs):
        ctx, rows = _preheated_context("fused")
        started = time.monotonic()
        _wcdp_maps(ctx, rows)
        timings.append(time.monotonic() - started)
    return {"wcdp_seconds_fused": min(timings)}


def bench_preheat(runs=5):
    """The study's first preheat (the per-row tolerance and retention
    layouts of the campaign's tests, and the RowHammer WCDP pass's
    jitter) on the kernel: min of ``runs``, each on a fresh context
    whose build runs untimed, so every run generates the per-cell
    vectors and lays out every row as a study does."""
    timings = []
    for _ in range(runs):
        ctx, rows = _ladder_context("fused")
        started = time.monotonic()
        _study_preheat(ctx, rows)
        timings.append(time.monotonic() - started)
    return {"preheat_seconds_fused": min(timings)}


def bench_preheat_peak():
    """Peak traced allocation (MiB) of the study's preheat on a fresh
    context: the transient per-cell vectors and stacked partitions of
    the layout passes on top of what the rows keep. A property of the
    code, not of the machine's speed."""
    ctx, rows = _ladder_context("fused")
    tracemalloc.start()
    try:
        _study_preheat(ctx, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"preheat_peak_mib_fused": peak / 2**20}


def bench_study_store(runs=7):
    """The study store's read and publish of the A0 seed-0 RowHammer +
    retention document at 65536-bit rows (the benchmark's ``ladder``
    study, 1,152 RowHammer and 12,672 retention records): ``load``
    (decode the column file into column tables) and ``store`` (encode
    and write the column file and the document) in ms, min of
    ``runs``, each after a ``gc.collect()``; ``store_load_speedup``,
    the min ``load_dict`` (parse the document) time over the min
    ``load`` time, the two alternating so machine load mostly cancels
    out; and the ``tracemalloc`` size (MiB) of the decoded study, a
    property of the code, not of the machine's speed."""
    clear_cache()
    study = get_study(
        CAMPAIGN_TESTS, modules=(CAMPAIGN_MODULE,),
        scale=CHARACTERIZATION_SCALE, seed=0, use_disk=False,
    )
    fingerprint = study.provenance["fingerprint"]
    load_ms, publish_ms, parse_ms = [], [], []
    with tempfile.TemporaryDirectory() as directory:
        store = StudyStore(directory)
        for _ in range(runs):
            store.delete(fingerprint)
            gc.collect()
            started = time.perf_counter()
            store.store(study, fingerprint)
            publish_ms.append((time.perf_counter() - started) * 1e3)
            gc.collect()
            started = time.perf_counter()
            store.load(fingerprint)
            load_ms.append((time.perf_counter() - started) * 1e3)
            gc.collect()
            started = time.perf_counter()
            store.load_dict(fingerprint)
            parse_ms.append((time.perf_counter() - started) * 1e3)
        gc.collect()
        tracemalloc.start()
        try:
            decoded = store.load(fingerprint)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    clear_cache()
    if decoded.modules != study.modules:
        raise AssertionError("the store returned a different study")
    return {
        "study_load_ms": min(load_ms),
        "study_publish_ms": min(publish_ms),
        "store_load_speedup": min(parse_ms) / min(load_ms),
        "study_decoded_mib": size / 2**20,
    }


#: What a fresh interpreter runs for :func:`bench_cold_import`: the
#: service and CLI entry points' imports, timed, then the process's
#: peak RSS and the ``scipy`` and experiment modules the imports
#: loaded. The peak is ``VmHWM``, which exec resets: ``ru_maxrss``
#: would carry over the forking benchmark process's RSS.
COLD_IMPORT_SCRIPT = """
import json, resource, sys, time
started = time.perf_counter()
import repro.api.server, repro.harness.runner
seconds = time.perf_counter() - started
try:
    with open("/proc/self/status") as status:
        peak_kib = next(
            int(line.split()[1]) for line in status
            if line.startswith("VmHWM:")
        )
except OSError:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "seconds": seconds,
    "peak_kib": peak_kib,
    "scipy": sum(name.startswith("scipy") for name in sys.modules),
    "experiments": sum(
        name.startswith("repro.harness.experiments.") for name in sys.modules
    ),
}))
"""


def bench_cold_import(runs=3):
    """Cold start of the service and CLI entry points, each run in a
    fresh interpreter: import wall seconds and peak RSS (MiB), min of
    ``runs``, and the number of ``scipy`` modules and of experiment
    modules loaded (the entry points need neither). Runs from the
    source tree ``repro`` is imported from."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    samples = []
    for _ in range(runs):
        completed = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        samples.append(json.loads(completed.stdout.splitlines()[-1]))
    return {
        "cold_import_seconds": min(s["seconds"] for s in samples),
        "cold_import_peak_mib": min(s["peak_kib"] for s in samples) / 1024,
        "cold_import_scipy_modules": max(s["scipy"] for s in samples),
        "cold_import_experiment_modules": max(
            s["experiments"] for s in samples
        ),
    }


REPORT_KEYS = (
    "hammer_probes_per_sec_fused", "hammer_probes_per_sec_command",
    "hammer_probe_speedup",
    "retention_probes_per_sec_fused", "retention_probes_per_sec_command",
    "retention_probe_speedup",
    "program_probes_per_sec_fused", "program_probes_per_sec_command",
    "program_probe_speedup",
    "trcd_probes_per_sec_fused", "trcd_probes_per_sec_command",
    "trcd_probe_speedup",
    "jitter_block_draws_per_sec", "jitter_block_draws_per_sec_per_key",
    "jitter_block_speedup",
    "jitter_small_block_draws_per_sec",
    "jitter_small_block_draws_per_sec_per_key",
    "jitter_small_block_speedup",
    "campaign_seconds_fused", "campaign_seconds_command",
    "campaign_speedup",
    "characterization_seconds_fused", "ladder_seconds_fused",
    "wcdp_seconds_fused", "preheat_seconds_fused", "preheat_peak_mib_fused",
    "cold_import_seconds", "cold_import_peak_mib",
    "study_load_ms", "study_publish_ms", "study_decoded_mib",
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
    print("measuring single-probe throughput (fused vs command)...")
    payload = {"scope": {
        "engines": "fused kernel vs command oracle, measured in one run",
        "probe_module": MODULE,
        "campaign_module": CAMPAIGN_MODULE,
        "campaign": "bench-scale CharacterizationStudy ('rowhammer',)",
        "characterization_campaign": (
            "bench-scale CharacterizationStudy ('rowhammer', 'retention')"
            " at 65536-bit"
            " physical rows, fused, min-of-2"
        ),
        "ladder_campaign": (
            "V_PP-grid ladder phases (Alg. 1 after its jitter warm-up +"
            " Alg. 3 at every level) at 65536-bit physical rows, fused,"
            " min-of-3; setup/preheat/WCDP run untimed at a single"
            " operating point"
        ),
        "wcdp_phase": (
            "WCDP phase (RowHammer + retention rules, six patterns per"
            " row) over the bench row set at 65536-bit physical rows,"
            " fused, min-of-5, each on a fresh context; build/preheat"
            " untimed"
        ),
        "preheat": (
            "preheat of the bench row set's RowHammer and retention"
            " layouts (per-cell generation included) and of the RowHammer"
            " WCDP pass's jitter at 65536-bit physical rows, fused,"
            " min-of-5, each on a fresh context; build untimed"
        ),
        "preheat_peak": (
            "tracemalloc peak (MiB) of that preheat, fused, on a fresh"
            " context"
        ),
        "trcd_probes": (
            "find_trcd_min sweeps of one B3 row (8192-bit rows)"
        ),
        "cold_import": (
            "fresh interpreter importing repro.api.server and"
            " repro.harness.runner: import wall seconds and peak RSS (MiB),"
            " min-of-3, and the scipy and experiment modules loaded"
        ),
        "study_store": (
            "StudyStore.load (column file) and .store (column file and"
            " document) of the A0 seed-0 RowHammer + retention study at"
            " 65536-bit physical rows (ms, min-of-7, each after"
            " gc.collect()), load's speedup over load_dict (the JSON"
            " document), alternating, and the tracemalloc size (MiB) of"
            " the decoded study"
        ),
        "jitter_blocks": (
            "measurement-jitter prefetch of one row's 128- and 20-session"
            " blocks vs per-key generator draws, fastest of 200 alternating"
            " rounds"
        ),
    }}
    payload.update(bench_probe_rates())
    print("measuring DSL-program probe throughput (compiled vs command)...")
    payload.update(bench_program_rates())
    print("measuring Alg. 2 (tRCD) probe throughput (fused vs command)...")
    payload.update(bench_trcd_rates())
    print("measuring jitter-block derivation (prefetch vs per-key)...")
    payload.update(bench_jitter_rates())
    print("measuring one-module bench campaigns (fused vs command)...")
    payload.update(bench_campaign())
    print("measuring the characterization campaign (fused)...")
    payload.update(bench_characterization_campaign())
    print("measuring the V_PP-ladder campaign (fused)...")
    payload.update(bench_vpp_ladder_campaign())
    print("measuring the WCDP phase (fused)...")
    payload.update(bench_wcdp_phase())
    print("measuring the preheat (fused)...")
    payload.update(bench_preheat())
    payload.update(bench_preheat_peak())
    print("measuring the entry points' cold import...")
    payload.update(bench_cold_import())
    print("measuring the study store's load and publish...")
    payload.update(bench_study_store())

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
    for key, floor in SPEEDUP_FLOORS.items():
        if payload[key] < floor:
            print(f"WARNING: {key} {payload[key]:.2f} below its "
                  f"{floor:g}x floor", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
