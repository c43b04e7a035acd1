"""Alg. 3: data-retention measurement.

For each refresh window in the 16 ms ... 16 s powers-of-two sweep
(Section 4.4), each tested row is written with its retention WCDP, left
unrefreshed for the full window, then read back and compared. Retention
BER is the fraction of flipped cells; the per-64-bit-word flip histogram
feeds the ECC and selective-refresh analyses (Observations 14/15,
Figure 11).

The worst case over iterations (largest BER) is recorded, consistent
with the paper's methodology. A row's whole window ladder runs as one
engine probe session -- and one ``worst_ladder`` call, so the
schedule-level engines resolve all ``trefw`` levels against one sorted
threshold vector in a single bookkeeping pass.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.context import TestContext
from repro.core.results import RetentionRowResult
from repro.dram.patterns import DataPattern
from repro.obs.trace import TRACER


def measure_retention(
    ctx: TestContext, row: int, pattern: DataPattern, trefw: float,
) -> Tuple[float, Dict[int, int]]:
    """One write-wait-read retention probe.

    Returns (BER, word-flip histogram) where the histogram maps
    flips-per-64-bit-word to the number of such words (zero-flip words
    omitted). Runs on the context's probe engine.
    """
    return ctx.engine.retention_probe(ctx, row, pattern, trefw)


def characterize_row(
    ctx: TestContext, row: int, pattern: DataPattern, vpp: float,
    windows: List[float] = None,
) -> List[RetentionRowResult]:
    """Full Alg. 3 characterization of one row at the current V_PP.

    Measures every refresh window in the scale's sweep (or the
    context's compiled retention program's override), keeping the worst
    iteration per window.
    """
    program = getattr(ctx, "program", None)
    if program is not None and program.kind == "retention":
        if windows is None:
            windows = list(program.windows(ctx.scale))
        iterations = program.iterations(ctx.scale)
    else:
        iterations = ctx.scale.iterations
    if windows is None:
        windows = list(ctx.scale.retention_windows)
    with TRACER.span(
        "retention-ladder", row=row, windows=len(windows),
    ), ctx.engine.retention_session(ctx, row, pattern) as session:
        worst = session.worst_ladder(windows, iterations)
    return [
        RetentionRowResult(
            module=ctx.module_name,
            bank=ctx.bank,
            row=row,
            vpp=vpp,
            trefw=trefw,
            wcdp_index=pattern.index,
            ber=ber,
            word_flip_histogram=histogram,
        )
        for trefw, (ber, histogram) in zip(windows, worst)
    ]


def characterize_rows(
    ctx: TestContext, rows: Sequence[int],
    patterns: Dict[int, DataPattern], vpp: float,
) -> List[RetentionRowResult]:
    """Alg. 3 over a whole row set at the current V_PP (the campaign
    loop's batch entry point; probe order matches the per-row loop)."""
    results: List[RetentionRowResult] = []
    for row in rows:
        with TRACER.span("retention"):
            results.extend(characterize_row(ctx, row, patterns[row], vpp))
    return results
