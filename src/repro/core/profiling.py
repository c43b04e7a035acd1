"""Retention profiling (the REAPER-style pass behind Observation 15).

Selective refresh needs to know *which* rows fail at the nominal window
when the module runs at reduced V_PP. Deployments obtain that list by
profiling: write, wait one refresh window without refreshing, read, and
record the failing rows -- at conditions at least as aggressive as the
operating point (the paper cites REAPER [77] and retention-profiling
practice [74] for why profiling margin matters).

:func:`profile_weak_rows` runs that pass on the bench;
:func:`profile_for_policy` packages the result as the
``selective_refresh_rows`` set a
:class:`~repro.system.policy.ControllerPolicy` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from repro.core.context import TestContext
from repro.core.scale import safe_timings
from repro.dram import constants
from repro.dram.patterns import STANDARD_PATTERNS
from repro.errors import ConfigurationError
from repro.softmc.program import Program


@dataclass(frozen=True)
class RetentionProfile:
    """Outcome of one profiling pass."""

    module: str
    vpp: float
    window: float
    temperature: float
    rows_tested: int
    weak_rows: Tuple[int, ...]


def _charged_pattern(ctx: TestContext, row: int):
    physical = ctx.infra.module.bank(ctx.bank).mapping.to_physical(row)
    return STANDARD_PATTERNS[1 if physical % 2 else 0]


def profile_weak_rows(
    ctx: TestContext,
    rows: Sequence[int],
    window: float = constants.NOMINAL_TREFW,
    vpp: float = None,
    temperature: float = constants.RETENTION_TEST_TEMPERATURE,
    passes: int = 1,
) -> RetentionProfile:
    """Find the rows that flip within ``window`` at the profiling point.

    Each row is written with its charged stripe, left unrefreshed for
    the window, and read back; ``passes`` repetitions union the failing
    sets (profiling margin against borderline cells).
    """
    if passes < 1:
        raise ConfigurationError(f"passes must be >= 1: {passes}")
    infra = ctx.infra
    if vpp is None:
        vpp = infra.module.vppmin
    infra.set_vpp(vpp)
    infra.set_temperature(temperature)
    row_bits = ctx.row_bits
    weak: set = set()
    for _ in range(passes):
        for row in rows:
            pattern = _charged_pattern(ctx, row)
            program = Program(safe_timings())
            program.initialize_row(ctx.bank, row, pattern, row_bits)
            program.wait(window)
            read_index = program.read_row(ctx.bank, row)
            result = infra.host.execute(program)
            expected = pattern.row_bits(row_bits)
            if np.any(result.data(read_index) != expected):
                weak.add(row)
    return RetentionProfile(
        module=ctx.module_name,
        vpp=vpp,
        window=window,
        temperature=temperature,
        rows_tested=len(rows),
        weak_rows=tuple(sorted(weak)),
    )


def profile_for_policy(
    ctx: TestContext,
    rows: Sequence[int],
    vpp: float = None,
    window: float = constants.NOMINAL_TREFW,
    passes: int = 2,
) -> FrozenSet[Tuple[int, int]]:
    """The ``selective_refresh_rows`` set for a controller policy:
    (bank, row) pairs needing the doubled refresh rate at ``vpp``."""
    profile = profile_weak_rows(
        ctx, rows, window=window, vpp=vpp, passes=passes
    )
    return frozenset((ctx.bank, row) for row in profile.weak_rows)
