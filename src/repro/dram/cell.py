"""Per-row cell state and lazily-generated cell parameters.

A simulated bank holds billions of cells; materializing them all would be
absurd when a study touches a few thousand rows. Rows are therefore
created on first touch, and each row's per-cell parameter vectors
(hammer tolerances, retention times, activation-latency factors) are
drawn deterministically from RNG substreams keyed by the row's physical
address -- so the same cell always has the same weakness, which is what
makes RowHammer bit flips land "at consistently predictable bit
locations" (Section 1) and retention profiling meaningful.

Cell polarity: DRAM arrays alternate *true* and *anti* cell rows with the
sense-amplifier orientation; a true cell stores logical 1 as charge, an
anti cell stores logical 0 as charge (see e.g. the paper's references
[55, 74]). All three error mechanisms modeled here -- RowHammer
disturbance, retention decay, and under-latency activation -- discharge a
cell, so only cells currently holding their *charged* value can flip, and
they flip toward the discharged value. Data-pattern dependence
(Section 4.1) emerges from this polarity structure plus a per-row,
per-pattern coupling factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.dram.calibration import ModuleCalibration
from repro.rng import RngHub
from repro.stats import normal_ppf

#: Number of data patterns distinguished by the coupling-factor table
#: (the six patterns of Section 4.1), plus one "other data" slot.
PATTERN_SLOTS = 7
#: Index used for data that matches none of the six standard patterns.
OTHER_PATTERN_INDEX = 6


@dataclass
class RowState:
    """Mutable state of one materialized physical row."""

    #: Stored bits, one uint8 (0/1) per cell; None until first write.
    data: Optional[np.ndarray] = None
    #: Simulated time of the last full restoration (write/refresh) [s].
    last_restore_time: float = 0.0
    #: Wordline voltage during the last restoration [V].
    vpp_at_restore: float = 2.5
    #: Accumulated RowHammer damage on the bulk cell population, in units
    #: of nominal-V_PP hammers.
    damage_bulk: float = 0.0
    #: Accumulated RowHammer damage on the outlier cell population.
    damage_outlier: float = 0.0
    #: Pattern slot of the stored data (set on full-row writes).
    pattern_index: int = OTHER_PATTERN_INDEX
    #: Count of restorations; salts the per-measurement jitter stream.
    session: int = 0
    #: Cached per-cell parameter vectors, keyed by field name.
    cache: Dict[str, np.ndarray] = field(default_factory=dict)


class CellParameterGenerator:
    """Deterministic per-row cell parameter factory for one bank.

    All draws are keyed by ``(bank, physical_row, field)`` through the
    module's :class:`~repro.rng.RngHub`, so touching rows in any order --
    or twice -- yields identical parameters.
    """

    def __init__(self, calibration: ModuleCalibration, hub: RngHub, bank_index: int):
        self._cal = calibration
        self._hub = hub
        self._bank = bank_index
        geometry = calibration.geometry
        self._cells = geometry.row_bits
        # Normalizer so the expected per-row max of the cell tRCD factors
        # is ~1.0 (the row factor carries the row-to-row variation).
        self._trcd_cell_sigma = 0.02
        self._trcd_cell_norm = float(
            np.exp(
                self._trcd_cell_sigma
                * normal_ppf(self._cells / (self._cells + 1.0))
            )
        )
        # Prefetched measurement-jitter values, keyed (physical_row,
        # session). Populated by prefetch_measurement_jitter (batch
        # probe engine); consulted first by measurement_jitter. Values
        # are bit-identical to the direct draw, so a hit and a miss are
        # indistinguishable to callers.
        self._jitter_cache: Dict[Tuple[int, int], float] = {}
        # Per-row high-water mark of the prefetched session lattice
        # (see ensure_jitter_window).
        self._jitter_horizon: Dict[int, int] = {}
        # Externally supplied per-cell vectors, keyed (physical_row,
        # fieldname). Populated by adopt_preloaded (the shared-memory
        # struct-of-arrays device state of :mod:`repro.core.soa`);
        # consulted before any RNG derivation. Preloaded vectors were
        # produced by an identical generator, so a hit and a fresh draw
        # are bit-identical.
        self._preload: Dict[Tuple[int, str], np.ndarray] = {}

    def _rng(self, physical_row: int, fieldname: str) -> np.random.Generator:
        return self._hub.generator(
            f"bank/{self._bank}/row/{physical_row}/{fieldname}"
        )

    # -- row-level scalars -----------------------------------------------------

    def row_weakness(self, physical_row: int) -> float:
        """Bulk-population weakness ``w`` of the row: the row's BER at a
        hammer count HC is ``Phi((ln HC - ln w) / bulk_sigma)``."""
        rng = self._rng(physical_row, "row_weakness")
        return float(
            np.exp(
                self._cal.bulk_log_weakness
                + self._cal.vendor.row_sigma * rng.standard_normal()
            )
        )

    def row_gammas(self, physical_row: int) -> "tuple[float, float]":
        """The row's V_PP coupling exponents ``(bulk, outlier)``.

        The bulk exponent drives the row's BER response to V_PP, the
        outlier exponent its HC_first response; the two populations are
        calibrated independently (see :mod:`repro.dram.calibration`).
        A vendor-dependent fraction of rows draws near-zero exponents,
        making them V_PP-insensitive (Observation 3).
        """
        rng = self._rng(physical_row, "gamma")
        if rng.random() < self._cal.vendor.gamma_insensitive_fraction:
            return (
                abs(float(rng.normal(0.0, 0.05))),
                abs(float(rng.normal(0.0, 0.05))),
            )
        sigma = self._cal.vendor.gamma_sigma
        bulk = max(-1.5, float(rng.normal(self._cal.gamma_bulk_mean, sigma)))
        outlier = max(
            -1.5, float(rng.normal(self._cal.gamma_outlier_mean, sigma))
        )
        return bulk, outlier

    def pattern_factors(self, physical_row: int) -> np.ndarray:
        """Per-pattern tolerance multipliers (>= 1; the worst-case pattern
        has factor 1.0). Index :data:`OTHER_PATTERN_INDEX` covers
        non-standard data."""
        rng = self._rng(physical_row, "pattern")
        spread = self._cal.vendor.pattern_spread
        factors = 1.0 + spread * rng.random(PATTERN_SLOTS)
        factors[int(np.argmin(factors[:6]))] = 1.0
        return factors

    def retention_pattern_factors(self, physical_row: int) -> np.ndarray:
        """Per-pattern retention-time multipliers (>= 1; the retention
        worst-case pattern has factor 1.0, i.e. the shortest retention)."""
        rng = self._rng(physical_row, "retention_pattern")
        spread = 0.5 * self._cal.vendor.pattern_spread
        factors = 1.0 + spread * rng.random(PATTERN_SLOTS)
        factors[int(np.argmin(factors[:6]))] = 1.0
        return factors

    def trcd_pattern_factors(self, physical_row: int) -> np.ndarray:
        """Per-pattern activation-requirement multipliers (<= 1; the tRCD
        worst-case pattern has factor 1.0, i.e. the longest requirement)."""
        rng = self._rng(physical_row, "trcd_pattern")
        spread = 0.10
        factors = 1.0 - spread * rng.random(PATTERN_SLOTS)
        factors[int(np.argmax(factors[:6]))] = 1.0
        return factors

    def trcd_row_factor(self, physical_row: int) -> float:
        """Lognormal row-to-row activation-latency factor."""
        rng = self._rng(physical_row, "trcd_row")
        return float(np.exp(self._cal.trcd_row_sigma * rng.standard_normal()))

    def measurement_jitter(self, physical_row: int, session: int) -> float:
        """Per-restoration multiplicative jitter on the row's tolerances.

        Models the iteration-to-iteration variation behind the paper's
        coefficient-of-variation analysis (Section 4.6).
        """
        cached = self._jitter_cache.get((physical_row, session))
        if cached is not None:
            return cached
        rng = self._hub.generator(
            f"bank/{self._bank}/row/{physical_row}/jitter/{session}"
        )
        return float(np.exp(self._cal.measurement_sigma * rng.standard_normal()))

    def prefetch_measurement_jitter(
        self, physical_row: int, sessions: Iterable[int]
    ) -> int:
        """Bulk-derive the jitter values of a set of restore sessions.

        The kernel probe engine knows its deterministic probe schedule --
        and therefore the session numbers whose jitter it will consume
        -- ahead of time, so the per-session generator constructions can
        be replaced by one vectorized derivation
        (:meth:`repro.rng.RngHub.standard_normals`, bit-identical per
        key). Returns the number of newly cached values.
        """
        cache = self._jitter_cache
        missing = [
            session for session in sessions
            if (physical_row, session) not in cache
        ]
        if not missing:
            return 0
        if len(cache) > 262_144:
            cache.clear()
        prefix = f"bank/{self._bank}/row/{physical_row}/jitter/"
        draws = self._hub.standard_normals(
            [prefix + str(session) for session in missing]
        )
        # One vectorized exp over the block (bit-identical to the
        # per-draw scalar exp: same ufunc, same float64 inputs).
        sigma = self._cal.measurement_sigma
        values = np.exp(np.asarray(draws) * sigma)
        for session, value in zip(missing, values.tolist()):
            cache[(physical_row, session)] = value
        return len(missing)

    #: Sessions per initial prefetched jitter block. A hammer probe
    #: advances the victim's session by 3 (+2 before the evaluation,
    #: +1 after), so a block covers 20 consecutive probes -- one Alg. 1
    #: bisection per operating point (worst-BER repetitions plus the
    #: ~16 bisection rounds).
    JITTER_WINDOW_SPAN = 3 * 19
    #: Sessions per extension block once a row is past its initial
    #: window. Every probe schedule advances a row's session by a
    #: multiple of 3, so in practice the stride-3 lattice persists for
    #: a row's entire campaign and almost all prefetches are extends --
    #: a V_PP ladder walks one row through hundreds of probes. The
    #: derivation kernel's cost is dominated by a fixed per-call term
    #: (:meth:`repro.rng.RngHub.standard_normals` batches arbitrarily
    #: wide), so extends are sized to cover several operating points
    #: per call; the stranded tail, at most one block per row per
    #: campaign, is noise by comparison.
    JITTER_EXTEND_SPAN = 3 * 127

    def ensure_jitter_window(self, physical_row: int, session: int) -> None:
        """Guarantee the jitter block covering ``session`` is prefetched.

        Tracks, per row, the stride-3 session lattice already derived:
        because sessions only ever increase and each prefetch covers a
        contiguous stride-3 block up to its horizon, ``session`` is
        covered exactly when it lies on the horizon's lattice at or
        below it. External session bumps (a restore between probes)
        shift the row onto a new lattice; the next call then derives a
        fresh block, and any overlap with previously cached sessions is
        filtered out by :meth:`prefetch_measurement_jitter`.
        """
        horizon = self._jitter_horizon.get(physical_row)
        span = self.JITTER_WINDOW_SPAN
        if horizon is not None:
            delta = horizon - session
            if delta % 3 == 0:
                if delta >= 0:
                    return
                span = self.JITTER_EXTEND_SPAN
        horizon = session + span
        self._jitter_horizon[physical_row] = horizon
        self.prefetch_measurement_jitter(
            physical_row, range(session, horizon + 1, 3)
        )

    def is_anti_row(self, physical_row: int) -> bool:
        """True cell rows store 1 as charge; anti rows store 0."""
        return bool(physical_row % 2)

    # -- preloaded (shared-memory) vectors ---------------------------------------

    def adopt_preloaded(
        self, vectors: Dict[Tuple[int, str], np.ndarray]
    ) -> int:
        """Install externally generated per-cell vectors.

        ``vectors`` maps ``(physical_row, fieldname)`` to an ndarray --
        typically read-only views into a shared-memory struct-of-arrays
        block built by :func:`repro.core.soa.build_device_state`. The
        vectors must come from a generator with the same calibration,
        seed and bank index; they then shadow the RNG derivation
        bit-identically. Returns the number of vectors adopted.
        """
        self._preload.update(vectors)
        return len(vectors)

    def _preloaded(
        self, physical_row: int, fieldname: str
    ) -> Optional[np.ndarray]:
        if not self._preload:
            return None
        return self._preload.get((physical_row, fieldname))

    # -- per-cell vectors --------------------------------------------------------

    def cell_tolerances(self, physical_row: int) -> np.ndarray:
        """Per-cell hammer tolerances at nominal V_PP (float32).

        Two populations (see :mod:`repro.dram.calibration`): a bulk
        lognormal around the row's weakness ``w`` (whose lower tail is
        the 300K-hammer BER), overlaid with a Poisson-sparse set of
        outlier defect cells whose much lower tolerances set HC_first.
        """
        preloaded = self._preloaded(physical_row, "cell_tolerances")
        if preloaded is not None:
            return preloaded
        rng = self._rng(physical_row, "tolerance")
        weakness = self.row_weakness(physical_row)
        draws = rng.standard_normal(self._cells).astype(np.float32)
        tolerances = (
            weakness * np.exp(self._cal.bulk_sigma * draws)
        ).astype(np.float32)

        outlier_rng = self._rng(physical_row, "tolerance_outliers")
        count = int(outlier_rng.poisson(self._cal.outlier_rate))
        if count:
            count = min(count, self._cells)
            positions = outlier_rng.choice(self._cells, size=count, replace=False)
            outliers = np.exp(
                self._cal.outlier_log_median
                + self._cal.outlier_sigma * outlier_rng.standard_normal(count)
            ).astype(np.float32)
            replace = outliers < tolerances[positions]
            tolerances[positions[replace]] = outliers[replace]
        return tolerances

    def cell_outlier_mask(self, physical_row: int) -> np.ndarray:
        """Boolean mask of the row's outlier (defect) cells.

        Derived from the same RNG stream as :meth:`cell_tolerances`, so
        the mask marks exactly the cells whose tolerance was replaced by
        an outlier draw.
        """
        preloaded = self._preloaded(physical_row, "cell_outlier_mask")
        if preloaded is not None:
            return preloaded
        # Reproduce the outlier placement deterministically.
        rng = self._rng(physical_row, "tolerance")
        weakness = self.row_weakness(physical_row)
        draws = rng.standard_normal(self._cells).astype(np.float32)
        bulk = (weakness * np.exp(self._cal.bulk_sigma * draws)).astype(np.float32)

        mask = np.zeros(self._cells, dtype=bool)
        outlier_rng = self._rng(physical_row, "tolerance_outliers")
        count = int(outlier_rng.poisson(self._cal.outlier_rate))
        if count:
            count = min(count, self._cells)
            positions = outlier_rng.choice(self._cells, size=count, replace=False)
            outliers = np.exp(
                self._cal.outlier_log_median
                + self._cal.outlier_sigma * outlier_rng.standard_normal(count)
            ).astype(np.float32)
            mask[positions[outliers < bulk[positions]]] = True
        return mask

    def _retention_structure(self, physical_row: int):
        """Per-cell (retention times, V_PP sensitivity) at 80 degC and
        nominal V_PP.

        The bulk population is lognormal around the vendor-calibrated
        median with sensitivity 1; rows assigned to a weak tier (see
        :class:`~repro.dram.profiles.RetentionTier`) additionally carry a
        Poisson-sized cluster of much weaker, much more V_PP-sensitive
        cells, placed in distinct 64-bit words (which is why the paper's
        Observation 14 finds every failing word single-error-
        correctable).
        """
        rng = self._rng(physical_row, "retention")
        draws = rng.standard_normal(self._cells).astype(np.float32)
        times = np.exp(
            self._cal.retention_mu + self._cal.retention_sigma * draws
        ).astype(np.float32)
        sensitivity = np.ones(self._cells, dtype=np.float32)

        tier_rng = self._rng(physical_row, "retention_tier")
        available_words = np.arange(self._cells // 64)
        for tier in self._cal.profile.retention_tiers:
            if tier_rng.random() >= tier.row_fraction:
                continue
            count = int(tier_rng.poisson(tier.mean_weak_cells))
            count = min(count, available_words.size)
            if count == 0:
                continue
            # Weak cells land in distinct 64-bit words, including across
            # tiers: the physical defect clusters the paper observes are
            # word-sparse (Observation 14 finds every word singly flipped).
            chosen = tier_rng.choice(available_words.size, size=count,
                                     replace=False)
            words = available_words[chosen]
            available_words = np.delete(available_words, chosen)
            offsets = tier_rng.integers(0, 64, size=count)
            positions = words * 64 + offsets
            # Place the tier median so the cells fail tier.failing_window
            # at V_PPmin (effective threshold = window / margin**s) with
            # ~0.9 probability, which leaves them comfortably clean at
            # nominal V_PP and at the next-smaller window.
            margin_at_vppmin = self._cal.retention.margin_factor(
                self._cal.profile.vppmin
            ) ** tier.vpp_sensitivity
            effective_threshold = tier.failing_window / max(
                1e-6, margin_at_vppmin
            )
            median = effective_threshold * float(
                np.exp(-1.35 * tier.retention_sigma)
            )
            weak = np.exp(
                np.log(median)
                + tier.retention_sigma * tier_rng.standard_normal(count)
            ).astype(np.float32)
            replace = weak < times[positions]
            times[positions[replace]] = weak[replace]
            sensitivity[positions[replace]] = tier.vpp_sensitivity
        return times, sensitivity

    def retention_structure_pair(self, physical_row: int):
        """``(retention times, V_PP sensitivity)`` in one generation pass.

        The two vectors come from the same RNG replay, so callers that
        need both (the fused probe engine's preheat, the SoA device-state
        builder) should use this accessor instead of the two single-field
        ones -- it halves the generation cost.
        """
        times = self._preloaded(physical_row, "cell_retention_times")
        sensitivity = self._preloaded(
            physical_row, "cell_retention_vpp_sensitivity"
        )
        if times is not None and sensitivity is not None:
            return times, sensitivity
        return self._retention_structure(physical_row)

    def cell_retention_times(self, physical_row: int) -> np.ndarray:
        """Per-cell retention times at 80 degC and nominal V_PP [s]."""
        preloaded = self._preloaded(physical_row, "cell_retention_times")
        if preloaded is not None:
            return preloaded
        return self._retention_structure(physical_row)[0]

    def cell_retention_vpp_sensitivity(self, physical_row: int) -> np.ndarray:
        """Per-cell margin-exponent multipliers (1 for bulk cells)."""
        preloaded = self._preloaded(
            physical_row, "cell_retention_vpp_sensitivity"
        )
        if preloaded is not None:
            return preloaded
        return self._retention_structure(physical_row)[1]

    def cell_trcd_factors(self, physical_row: int) -> np.ndarray:
        """Per-cell activation-latency factors, normalized so the row's
        worst cell sits at ~1.0 relative to the row factor."""
        preloaded = self._preloaded(physical_row, "cell_trcd_factors")
        if preloaded is not None:
            return preloaded
        rng = self._rng(physical_row, "trcd_cell")
        draws = rng.standard_normal(self._cells).astype(np.float32)
        factors = np.exp(self._trcd_cell_sigma * draws) / self._trcd_cell_norm
        return factors.astype(np.float32)

    def powerup_bits(self, physical_row: int) -> np.ndarray:
        """Pseudo-random content of a never-written row."""
        rng = self._rng(physical_row, "powerup")
        return rng.integers(0, 2, size=self._cells, dtype=np.uint8)
