"""The oracles the fused kernels and Alg. 1 are checked against.

:class:`HammerCounts` derives its populations independently of the
probe engine's kernel (:class:`repro.dram.bank._FusedHammerCounts`,
which reads the shared per-row layouts): it masks the sweep's charged
and outlier cells, sorts them, and owns the result.
:func:`victim_damage` replays one probe's damage deposits,
:func:`retention_flip_mask` evaluates a retention probe's decays on full
vectors, and :func:`measure_worst_ber` runs the worst-BER ladder in a
probe session of its own. No engine or analysis path uses them; the
kernel tests in ``test_fused_engine.py`` build them per operating point
and compare flip counts and sets, and the Alg. 1 tests check
:func:`repro.core.rowhammer.characterize_row` against the split
session.
"""

from typing import List, Tuple

import numpy as np

from repro.core.probe import open_hammer_session
from repro.core.rowhammer import _worst_ber
from repro.dram.bank import HammerSweep, RetentionSweep, _flip_prefix


def victim_damage(sweep: HammerSweep, count: int) -> Tuple[float, float]:
    """(bulk, outlier) damage one probe deposits on the sweep's victim.

    Accumulated in the command path's order -- one activation per
    aggressor initialization, then ``count`` hammers per aggressor --
    with the same scalar expressions, so the floating-point result is
    bit-identical to ``RowState.damage_*`` after the real commands.
    """
    _, damage_bulk, damage_outlier, terms = sweep.damage_terms()
    for weight, scale_bulk, scale_outlier in terms:
        damage_bulk += count * weight / scale_bulk
        damage_outlier += count * weight / scale_outlier
    return damage_bulk, damage_outlier


def retention_flip_mask(sweep: RetentionSweep, elapsed: float) -> np.ndarray:
    """Cells of a retention sweep's victim that decay within ``elapsed``
    seconds of the restore: the full-vector rule the retention kernel
    (:class:`repro.dram.bank._FusedRetentionCounts`) resolves by needle
    inversion."""
    charged = sweep.charged
    flips = np.zeros_like(charged)
    if elapsed > 0:
        flips |= charged & (sweep.effective_retention_times() < elapsed)
    return flips


def measure_worst_ber(ctx, row, pattern, hammer_count, iterations):
    """Worst (largest) BER over ``iterations`` repetitions, plus the
    per-iteration values, in one probe session of their own (the
    engine resolves the row's sweep once for all repetitions)."""
    with open_hammer_session(ctx, row, pattern) as probe:
        return _worst_ber(probe, hammer_count, iterations)


class HammerCounts:
    """Exact hammer-probe flip *counts* from scalar reductions -- the
    kernel-level reference.

    A probe's flip set is ``R | D`` where ``R`` (retention decays) and
    ``D`` (damage flips, per bulk/outlier population) are both prefix
    sets of presorted threshold vectors, so

    ``|R | D| = |R| + sum_pop |D_pop| - sum_pop |R & D_pop|``

    needs one ``searchsorted``, one binary search per population, and a
    small overlap count -- no full-row vector work. Every comparison
    replays the exact scalar operations of :meth:`HammerSweep.
    flip_mask` (float64 products of the float32 tolerances, strict /
    non-strict directions preserved), so the counts are bit-consistent
    with ``np.count_nonzero(flip_mask(...))``.
    """

    def __init__(self, sweep: HammerSweep):
        bank = sweep._bank
        state = sweep.state
        self._cells = bank._cells
        self._physical = sweep.physical
        tolerance = bank._cached(state, sweep.physical, "cell_tolerances")
        populations = []
        for mask in (
            sweep.charged & ~sweep._outlier_mask,
            sweep.charged & sweep._outlier_mask,
        ):
            indices = np.flatnonzero(mask)
            indices = indices[np.argsort(tolerance[indices])]
            populations.append(
                (indices, tolerance[indices].astype(np.float64))
            )
        self._bulk, self._outlier = populations
        self._hammer_pattern = bank._cached(
            state, sweep.physical, "pattern_factors"
        )[sweep.pattern_index]
        self._sweep = sweep
        self._retention_sorted = None
        self._effective_retention = None
        # Per-population retention slices, materialized only if a probe
        # actually needs the decay/damage overlap correction.
        self._pop_retention = [None, None]

    def _factor(self, session: int):
        jitter = self._cells.measurement_jitter(self._physical, session)
        return self._hammer_pattern * jitter

    def _decayed(self, elapsed: float) -> int:
        """Exact decayed-cell count; materializes the sorted charged
        retention thresholds on first use."""
        if elapsed <= 0:
            return 0
        if self._retention_sorted is None:
            self._effective_retention = (
                self._sweep.effective_retention_times()
            )
            self._retention_sorted = np.sort(
                self._effective_retention[self._sweep.charged]
            )
        return int(self._retention_sorted.searchsorted(elapsed, "left"))

    def any_decay(self, elapsed: float) -> bool:
        """True when the probe's wait decays at least one charged cell
        (``flip_mask``'s retention term is nonzero)."""
        return self._decayed(elapsed) > 0

    def _population_retention(self, index: int) -> np.ndarray:
        retention = self._pop_retention[index]
        if retention is None:
            indices = (self._bulk, self._outlier)[index][0]
            retention = self._effective_retention[indices]
            self._pop_retention[index] = retention
        return retention

    def count(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> int:
        """``np.count_nonzero(flip_mask(...))``, without the vectors."""
        factor = self._factor(session)
        decayed = self._decayed(elapsed)
        total = decayed
        for index, damage in ((0, damage_bulk), (1, damage_outlier)):
            tol64 = (self._bulk, self._outlier)[index][1]
            prefix = _flip_prefix(tol64, factor, damage)
            total += prefix
            if prefix and decayed:
                retention = self._population_retention(index)
                total -= int(np.count_nonzero(retention[:prefix] < elapsed))
        return total

    def any_flip(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> bool:
        """``flip_mask(...).any()``: probes only the population minima.

        Skipping the jitter draw when a retention decay already decides
        the probe is exact -- the RNG is stateless (see the sweep
        docstrings).
        """
        if self.any_decay(elapsed):
            return True
        factor = self._factor(session)
        for (_, tol64), damage in (
            (self._bulk, damage_bulk), (self._outlier, damage_outlier)
        ):
            if tol64.shape[0] and tol64[0] * factor <= damage:
                return True
        return False

    def flip_populations(
        self, damage_bulk: float, damage_outlier: float, session: int
    ) -> List[np.ndarray]:
        """Per-population index arrays of the damage-flipped cells.

        The prefix form of ``flip_mask``'s damage term: monotone
        float64 products make each population's flip set a prefix of
        its presorted index array. Without retention decay these
        indices *are* the complete flip set.
        """
        factor = self._factor(session)
        parts = []
        for (indices, tol64), damage in (
            (self._bulk, damage_bulk), (self._outlier, damage_outlier)
        ):
            prefix = _flip_prefix(tol64, factor, damage)
            if prefix:
                parts.append(indices[:prefix])
        return parts
