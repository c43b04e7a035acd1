"""Worst-case data pattern (WCDP) determination (Section 4.1).

The paper identifies, per row and per test type, which of the six
standard data patterns is worst:

* **RowHammer** (Section 4.2): the pattern with the lowest HC_first;
  ties broken by the largest BER at the fixed 300K hammer count.
* **tRCD** (Section 4.3): the pattern with the largest tRCD_min.
* **Retention** (Section 4.4): the pattern that flips at the smallest
  refresh window; ties broken by the largest BER at the longest window.

WCDPs are determined once at nominal V_PP and reused at reduced V_PP
levels (footnote 9 reports the WCDP rarely changes with V_PP -- the WCDP
sensitivity benchmark reproduces that check).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.context import TestContext
from repro.core.probe import open_hammer_session
from repro.core.scale import StudyScale
from repro.dram.patterns import STANDARD_PATTERNS, DataPattern


def _coarse_floor(scale: StudyScale) -> int:
    """The coarse bisection's termination step."""
    return max(scale.hcfirst_min_step, scale.hcfirst_initial // 32)


def rowhammer_probe_bound(scale: StudyScale) -> int:
    """Most probes :func:`rowhammer_wcdp` issues on one row: a coarse
    bisection per pattern plus, on a tie, one BER probe per pattern."""
    from repro.core.rowhammer import bisection_rounds

    rounds = bisection_rounds(scale.hcfirst_step, _coarse_floor(scale))
    return len(STANDARD_PATTERNS) * (rounds + 1)


def _coarse_hcfirst(
    ctx: TestContext, row: int, pattern: DataPattern
) -> float:
    """Cheap HC_first estimate for pattern ranking: a short bisection
    with one iteration per probe, run as one engine probe session.
    Returns +inf when nothing flips."""
    hc = ctx.scale.hcfirst_initial
    step = ctx.scale.hcfirst_step
    floor = _coarse_floor(ctx.scale)
    lowest = math.inf
    with open_hammer_session(ctx, row, pattern) as probe:
        while step >= floor:
            if probe.any_flip(hc):
                lowest = min(lowest, hc)
                hc -= step
            else:
                hc += step
            step //= 2
            if hc <= 0:
                break
    return lowest


def rowhammer_wcdp(ctx: TestContext, row: int) -> DataPattern:
    """RowHammer WCDP of a row (Section 4.2's rule)."""
    from repro.core.rowhammer import measure_ber

    estimates = [
        (_coarse_hcfirst(ctx, row, pattern), pattern)
        for pattern in STANDARD_PATTERNS
    ]
    best = min(e[0] for e in estimates)
    tied = [pattern for value, pattern in estimates if value == best]
    if len(tied) == 1:
        return tied[0]
    # Tie break: largest BER at the fixed hammer count.
    bers = [
        (measure_ber(ctx, row, pattern, ctx.scale.ber_hammer_count), pattern.index, pattern)
        for pattern in tied
    ]
    bers.sort(key=lambda item: (-item[0], item[1]))
    return bers[0][2]


def trcd_wcdp(ctx: TestContext, row: int) -> DataPattern:
    """tRCD WCDP of a row: the pattern with the largest tRCD_min."""
    from repro.core.trcd import find_trcd_min

    estimates = [
        (find_trcd_min(ctx, row, pattern, iterations=1), pattern.index, pattern)
        for pattern in STANDARD_PATTERNS
    ]
    estimates.sort(key=lambda item: (-item[0], item[1]))
    return estimates[0][2]


def retention_wcdp(ctx: TestContext, row: int) -> DataPattern:
    """Retention WCDP of a row (Section 4.4's rule)."""
    windows: Sequence[float] = ctx.scale.retention_windows
    first_failures: List[tuple] = []
    for pattern in STANDARD_PATTERNS:
        failing = math.inf
        with ctx.engine.retention_session(ctx, row, pattern) as session:
            for window in windows:
                if session.ber(window) > 0:
                    failing = window
                    break
        first_failures.append((failing, pattern))
    best = min(f[0] for f in first_failures)
    tied = [pattern for value, pattern in first_failures if value == best]
    if len(tied) == 1:
        return tied[0]
    longest = windows[-1]
    bers = [
        (_retention_ber(ctx, row, pattern, longest), pattern.index, pattern)
        for pattern in tied
    ]
    bers.sort(key=lambda item: (-item[0], item[1]))
    return bers[0][2]


def _retention_ber(
    ctx: TestContext, row: int, pattern: DataPattern, window: float
) -> float:
    """One write-wait-read retention probe (BER only)."""
    return ctx.engine.retention_ber(ctx, row, pattern, window)
