"""Alg. 2: row activation latency (tRCD_min) measurement.

The sweep starts at the 13.5 ns nominal and moves in 1.5 ns steps (the
SoftMC command-clock granularity, footnote 10): down while the row reads
back clean, up while it is faulty, until both a faulty and a reliable
latency have been seen; ``tRCD_min`` is the smallest reliable one.

Each trial asks the probe engine's tRCD session
(:meth:`~repro.core.probe.ProbeEngine.trcd_session`) whether the trial
latency is faulty: whether *any* of ``iterations`` probes -- initialize
the row with its worst-case pattern, activate it with the trial tRCD,
read it back -- shows *any* flipped bit. Two implementations answer:

* **the oracle** (:class:`~repro.core.probe.CommandProbeEngine`, and
  every fallback) runs each probe as a SoftMC program through the host;
* **the kernel** (:class:`~repro.core.fused.KernelTrcdSession`, on the
  fused engine) resolves each trial arithmetically:
  the freshly written row is faulty at a latency iff that latency
  undercuts the largest activation requirement among the pattern's
  charged cells, a constant per (row, pattern, V_PP).

Bookkeeping contract: the kernel replays every program the oracle would
have run -- one for a faulty trial, ``iterations`` for a clean one --
with the same restores, neighbor disturbance, activation counts and
``env.advance`` sequence, and leaves the same row data and flip guard.
Results *and* device state are therefore bit-identical across engines
(``tests/core/test_probe_equivalence.py``). Alg. 2's probes are counted
in ``trcd_probes``, not in ``commands_issued``.

The device model evaluates activation corruption per cell at activation
time, so reading the full row under one activation is exactly
equivalent to Alg. 2's per-column loop (each column of the paper's loop
re-initializes and re-activates; our fused read observes the same
per-cell pass/fail set) while being ~128x cheaper. The per-column mode
(``per_column=True``) is kept for fidelity checks and always runs on
the oracle.
"""

from __future__ import annotations

from repro.core.context import TestContext
from repro.core.results import TrcdRowResult
from repro.dram.constants import NOMINAL_TRCD, SOFTMC_COMMAND_CLOCK
from repro.dram.patterns import DataPattern
from repro.errors import AnalysisError, ConfigurationError
from repro.units import ns

#: Upper bound of the sweep; a row needing more than this is recorded at
#: the bound (the paper's offenders top out at 24 ns).
TRCD_SWEEP_MAX = ns(36.0)
#: Lower bound of the sweep (one command slot).
TRCD_SWEEP_MIN = SOFTMC_COMMAND_CLOCK


def find_trcd_min(
    ctx: TestContext, row: int, pattern: DataPattern,
    iterations: int = None, per_column: bool = False,
) -> float:
    """Alg. 2's search for the minimum reliable activation latency.

    A latency counts as faulty if *any* of the ``iterations`` repetitions
    shows *any* flipped bit. ``iterations`` defaults to the study scale's
    and must be at least 1.
    """
    if iterations is None:
        iterations = ctx.scale.iterations
    elif iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    step = SOFTMC_COMMAND_CLOCK

    trcd = NOMINAL_TRCD
    found_faulty = False
    found_reliable = False
    trcd_min = None
    with ctx.engine.trcd_session(ctx, row, pattern, per_column) as session:
        while not (found_faulty and found_reliable):
            if session.faulty(trcd, iterations):
                found_faulty = True
                trcd += step
                if trcd > TRCD_SWEEP_MAX:
                    # Even the sweep ceiling fails: record the ceiling.
                    return TRCD_SWEEP_MAX
            else:
                found_reliable = True
                trcd_min = trcd
                trcd -= step
                if trcd < TRCD_SWEEP_MIN:
                    break
    if trcd_min is None:
        raise AnalysisError(f"tRCD sweep failed to converge for row {row}")
    return trcd_min


def characterize_row(
    ctx: TestContext, row: int, pattern: DataPattern, vpp: float,
) -> TrcdRowResult:
    """Full Alg. 2 characterization of one row at the current V_PP."""
    trcd_min = find_trcd_min(ctx, row, pattern)
    return TrcdRowResult(
        module=ctx.module_name,
        bank=ctx.bank,
        row=row,
        vpp=vpp,
        wcdp_index=pattern.index,
        trcd_min=trcd_min,
    )
