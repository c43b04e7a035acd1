"""The eager hammer-count oracle the fused kernel is checked against.

:class:`HammerCounts` derives its populations independently of the
probe engine's kernel (:class:`repro.dram.bank._FusedHammerCounts`,
which reads the shared per-row layouts): it masks the sweep's charged
and outlier cells, sorts them, and owns the result. No engine or
analysis path uses it; the kernel tests in ``test_fused_engine.py``
build one per operating point and compare flip counts and sets.
"""

from typing import List

import numpy as np

from repro.dram.bank import HammerSweep, _flip_prefix


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
