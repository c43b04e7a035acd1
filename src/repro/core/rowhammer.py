"""Alg. 1: RowHammer BER and HC_first measurement.

``measure_ber`` is the paper's ``measure_BER``: initialize the victim
with its worst-case data pattern and the two physically-adjacent
aggressors with the bitwise inverse, hammer double-sided, read back and
count flips. ``find_hcfirst`` wraps it in the bisection loop of Alg. 1
(initial hammer count 300K, initial step 150K, step halving until the
termination step), taking the worst case over iterations exactly as
Section 4.2 prescribes: the *smallest* observed HC_first and the
*largest* observed BER.

The bisection control flow lives in :func:`bisect_hcfirst`, shared by
both probe engines: they differ only in how a single "did anything
flip at this hammer count?" probe is answered (the kernel engine
resolves a whole bisection inside one probe session; see
:mod:`repro.core.fused`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.context import TestContext
from repro.core.probe import (
    HammerSession,
    one_shot_hammer_ber,
    open_hammer_session,
)
from repro.core.results import RowHammerRow
from repro.core.scale import StudyScale
from repro.dram.patterns import DataPattern
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

#: Bucket layout of the probes-per-bisection histogram (counts, not
#: seconds: a bisection issues at most rounds x iterations probes).
BISECTION_PROBE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def measure_ber(
    ctx: TestContext, row: int, pattern: DataPattern, hammer_count: int
) -> float:
    """One double-sided RowHammer measurement (Alg. 1's ``measure_BER``).

    Returns the fraction of the victim row's cells that flipped. The
    probe runs on the context's engine (the batched kernel by default,
    the SoftMC command path as the validated reference), through the
    context's compiled DSL program when one is attached.
    """
    return one_shot_hammer_ber(ctx, row, pattern, hammer_count)


def measure_worst_ber(
    ctx: TestContext, row: int, pattern: DataPattern, hammer_count: int,
    iterations: int,
) -> Tuple[float, Tuple[float, ...]]:
    """Worst (largest) BER over ``iterations`` repetitions, plus the
    per-iteration values (Section 4.6's CV input).

    Runs as one probe session, so the engine resolves the row's sweep
    once for all repetitions instead of re-entering its cache per
    iteration (the ``sweep_saved_lookups`` counter tracks the savings).
    """
    with open_hammer_session(ctx, row, pattern) as probe:
        return _worst_ber(probe, hammer_count, iterations)


def _worst_ber(
    probe: HammerSession, hammer_count: int, iterations: int
) -> Tuple[float, Tuple[float, ...]]:
    values = tuple(probe.ber_ladder(hammer_count, iterations))
    return max(values), values


def bisect_hcfirst(
    scale: StudyScale, iterations: int, any_flip: Callable[[int], bool],
) -> Optional[int]:
    """Alg. 1's bisection control flow over an any-flip probe.

    Starting at the scale's initial hammer count and step, the count
    moves up while no flip occurs and down once one does, the step
    halving each round until it falls below the termination step; a
    non-positive count resets to the termination step. Any flip in any
    of the ``iterations`` repetitions counts (the short-circuit on the
    first flip makes the probe count data-dependent, which is why the
    engines resolve probes one at a time). Returns the smallest flipping count,
    or None when nothing ever flipped (censored row).
    """
    hc = scale.hcfirst_initial
    step = scale.hcfirst_step
    lowest_flipping: Optional[int] = None
    while step >= scale.hcfirst_min_step:
        flipped = False
        for _ in range(iterations):
            if any_flip(hc):
                flipped = True
                break
        if flipped:
            lowest_flipping = hc if lowest_flipping is None else min(
                lowest_flipping, hc
            )
            hc -= step
        else:
            hc += step
        step //= 2
        if hc <= 0:
            hc = scale.hcfirst_min_step
    return lowest_flipping


def bisection_rounds(step: int, floor: int) -> int:
    """Rounds of a bisection whose step starts at ``step`` and halves
    while it stays at or above ``floor``."""
    rounds = 0
    while step >= floor:
        rounds += 1
        step //= 2
    return rounds


def probe_bound(scale: StudyScale) -> int:
    """Most probes :func:`characterize_row` issues on one row: the
    worst-BER repetitions plus up to ``iterations`` any-flip probes per
    bisection round (24 at bench scale, 12 at tiny)."""
    rounds = bisection_rounds(scale.hcfirst_step, scale.hcfirst_min_step)
    return scale.iterations * (1 + rounds)


def _traced_bisection(
    scale: StudyScale, iterations: int, row: int, probe: HammerSession,
) -> Optional[int]:
    """:func:`bisect_hcfirst` on an open session, as one ``bisection``
    span, its probe count observed in ``repro_bisection_probes``."""
    with TRACER.span("bisection", row=row) as span:
        probes = 0

        def counted_any_flip(hammer_count: int) -> bool:
            nonlocal probes
            probes += 1
            return probe.any_flip(hammer_count)

        hcfirst = bisect_hcfirst(scale, iterations, counted_any_flip)
        span.set(probes=probes, hcfirst=hcfirst)
    REGISTRY.histogram(
        "repro_bisection_probes",
        "any-flip probes issued per Alg. 1 bisection",
        buckets=BISECTION_PROBE_BUCKETS,
    ).observe(probes)
    return hcfirst


def find_hcfirst(
    ctx: TestContext, row: int, pattern: DataPattern,
    iterations: int = None,
) -> Optional[int]:
    """Alg. 1's bisection for the minimum flip-inducing hammer count.

    Returns None when even the bisection's maximum reach produces no
    flip (censored: extremely strong row, cf. module A5). The whole
    bisection runs as one engine probe session.
    """
    scale = ctx.scale
    with open_hammer_session(ctx, row, pattern) as probe:
        return _traced_bisection(
            scale, iterations or scale.iterations, row, probe
        )


def characterize_row(
    ctx: TestContext, row: int, pattern: DataPattern, vpp: float,
) -> RowHammerRow:
    """Full Alg. 1 characterization of one row at the current V_PP: the
    worst-BER repetitions and the bisection share one probe session
    (one sweep lookup), with the same probes and results as
    :func:`measure_worst_ber` then :func:`find_hcfirst`."""
    scale = ctx.scale
    with open_hammer_session(ctx, row, pattern) as probe:
        ber, iterations_values = _worst_ber(
            probe, scale.ber_hammer_count, scale.iterations
        )
        hcfirst = _traced_bisection(scale, scale.iterations, row, probe)
    return RowHammerRow(
        bank=ctx.bank,
        row=row,
        vpp=vpp,
        wcdp_index=pattern.index,
        hcfirst=hcfirst,
        ber=ber,
        ber_iterations=iterations_values,
    )


def characterize_rows(
    ctx: TestContext, rows: Sequence[int],
    patterns: Dict[int, DataPattern], vpp: float,
) -> List[RowHammerRow]:
    """Alg. 1 over a whole row set at the current V_PP (the campaign
    loop's batch entry point; probe order matches the per-row loop)."""
    return [
        _profiled_row(ctx, row, patterns[row], vpp) for row in rows
    ]


def _profiled_row(ctx, row, pattern, vpp) -> RowHammerRow:
    with TRACER.span("rowhammer"):
        return characterize_row(ctx, row, pattern, vpp)
