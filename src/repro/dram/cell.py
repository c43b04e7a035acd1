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

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.calibration import ModuleCalibration
from repro.rng import RngHub, standard_normal_draws
from repro.stats import normal_ppf

#: Number of data patterns distinguished by the coupling-factor table
#: (the six patterns of Section 4.1), plus one "other data" slot.
PATTERN_SLOTS = 7
#: Index used for data that matches none of the six standard patterns.
OTHER_PATTERN_INDEX = 6

#: Log-sigma of the per-cell activation-latency factors around the row
#: factor (:meth:`CellParameterGenerator.cell_trcd_factors`).
TRCD_CELL_SIGMA = 0.02

#: numpy's ziggurat ``standard_normal`` base-strip edge ``r``
#: (``ziggurat_nor_r`` in ``numpy/random/src/distributions``).
_ZIGGURAT_R = 3.6541528853610088
#: A magnitude no draw of numpy's ziggurat ``standard_normal`` exceeds.
#: Layer and wedge draws stay below ``r``; the tail branch returns
#: ``r + (-ln(1 - U)) / r`` with ``U <= 1 - 2**-53`` (a 53-bit double),
#: so at most ``r + 53 ln 2 / r`` (~13.708).
ZIGGURAT_Z_MAX = _ZIGGURAT_R + 53 * math.log(2) / _ZIGGURAT_R
#: Upper bound on the un-normalized cell tRCD factor
#: ``exp(TRCD_CELL_SIGMA * z)`` over every draw ``z`` the generator can
#: make, rounded up by 1e-4 relative. The float32 pipeline of
#: :meth:`CellParameterGenerator.cell_trcd_factors` (cast of ``z``,
#: product, ``exp``, division by the normalizer) rounds by a few float32
#: ulps, under 1e-6 relative, so the slack covers it 100-fold. A
#: derived constant, not a setting: the sensing checks compare this
#: bound (over the normalizer) against tRCD before reading a row's
#: factors (:meth:`repro.dram.bank.Bank.sensing_certainly_clean`). A
#: bound of 0 disables that shortcut: every check reads the factors.
TRCD_CELL_FACTOR_BOUND = (
    math.exp(TRCD_CELL_SIGMA * ZIGGURAT_Z_MAX) * (1.0 + 1e-4)
)

#: Counter of full per-cell vector generations (RNG replays), by family
#: (``tolerance``, ``retention`` or ``trcd``).
CELL_VECTOR_GENERATIONS_METRIC = "repro_cell_vector_generations_total"


def _count_generation(family: str) -> None:
    from repro.obs.metrics import REGISTRY  # local: keep obs optional

    REGISTRY.counter(
        CELL_VECTOR_GENERATIONS_METRIC,
        "full per-cell vector generations (RNG replays of a row's "
        "tolerance, retention or tRCD vectors), by family",
        labels=("family",),
    ).labels(family=family).inc()


#: Counter of measurement-jitter draws, by ``path``: ``preheat`` for the
#: lanes a hammer pass's warm-up resolved vectorized
#: (:meth:`CellParameterGenerator.preheat_jitter`), ``block`` for those
#: a per-row window resolved vectorized (the fallback for reads the
#: warm-up did not predict, and direct one-row prefetches), ``single``
#: for the ones drawn one generator at a time (rejected lanes and
#: :meth:`CellParameterGenerator.measurement_jitter` misses, which
#: include every command-path draw).
JITTER_DRAWS_METRIC = "repro_jitter_draws_total"


def _count_jitter_draws(path: str, amount: int) -> None:
    from repro.obs.metrics import REGISTRY  # local: keep obs optional

    REGISTRY.counter(
        JITTER_DRAWS_METRIC,
        "measurement-jitter draws, by path (preheat: resolved by a "
        "hammer pass's vectorized warm-up; block: by a per-row "
        "vectorized window; single: one generator per draw)",
        labels=("path",),
    ).labels(path=path).inc(amount)


class RowState:
    """Mutable state of one materialized physical row.

    ``data`` is built on first read. A row's stored bits are often
    overwritten before anything reads them: a never-written row's
    power-up content under its first WRITE_ROW, a fused probe session's
    final flips under the next session's write. :meth:`defer_data`
    installs a producer that builds the bits when ``data`` is first
    read; assigning ``data`` cancels a pending producer. In-place
    writers read ``data`` first, which runs the producer. A producer
    must be a pure function of state fixed when it is installed.
    """

    __slots__ = (
        "_data", "_producer", "last_restore_time", "vpp_at_restore",
        "damage_bulk", "damage_outlier", "pattern_index", "session", "cache",
        "__weakref__",
    )

    def __init__(
        self, last_restore_time: float = 0.0, vpp_at_restore: float = 2.5
    ):
        self._data: Optional[np.ndarray] = None
        self._producer: Optional[Callable[[], np.ndarray]] = None
        #: Simulated time of the last full restoration (write/refresh) [s].
        self.last_restore_time = last_restore_time
        #: Wordline voltage during the last restoration [V].
        self.vpp_at_restore = vpp_at_restore
        #: Accumulated RowHammer damage on the bulk cell population, in
        #: units of nominal-V_PP hammers.
        self.damage_bulk = 0.0
        #: Accumulated RowHammer damage on the outlier cell population.
        self.damage_outlier = 0.0
        #: Pattern slot of the stored data (set on full-row writes).
        self.pattern_index = OTHER_PATTERN_INDEX
        #: Count of restorations; salts the per-measurement jitter stream.
        self.session = 0
        #: Per-row derived data, keyed by name. The durable entries are
        #: small: the per-row layouts and residue tables the probe
        #: kernels read (``_tol_layout``, ``_ret_layout``,
        #: ``_tol_residues``, ``_ret_residues``), the per-pattern factor
        #: tables and scalar caches (``_row_gammas``,
        #: ``_trcd_row_factor``). The full per-cell vectors
        #: (``cell_tolerances``, ``cell_outlier_mask``,
        #: ``cell_retention_times``, ``cell_retention_vpp_sensitivity``,
        #: ``cell_trcd_factors``), the ``_retention_base`` vector and the
        #: ``_trcd_residues`` table are cached only on rows a full-vector
        #: reader touched: the command path, the per-probe fallbacks and
        #: checks (a sensing check whose bound does not clear, Alg. 2),
        #: and layout extensions.
        self.cache: Dict[str, np.ndarray] = {}

    @property
    def data(self) -> Optional[np.ndarray]:
        """Stored bits, one uint8 (0/1) per cell, built on first read
        (None while nothing is stored or deferred)."""
        producer = self._producer
        if producer is not None:
            self._data = producer()
            self._producer = None
        return self._data

    @data.setter
    def data(self, bits: Optional[np.ndarray]) -> None:
        self._data = bits
        self._producer = None

    def defer_data(self, producer: Callable[[], np.ndarray]) -> None:
        """Replace the stored bits with ``producer()``, run on the first
        read of ``data`` (never, if ``data`` is assigned first)."""
        self._data = None
        self._producer = producer


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
        self._trcd_cell_norm = float(
            np.exp(
                TRCD_CELL_SIGMA
                * normal_ppf(self._cells / (self._cells + 1.0))
            )
        )
        #: Upper bound on every cell tRCD factor of every row (1.21 at
        #: 65536-bit rows, 1.23 at 2048), against a typical row maximum
        #: near 1.0; 0 when TRCD_CELL_FACTOR_BOUND is.
        self.trcd_cell_factor_bound = (
            TRCD_CELL_FACTOR_BOUND / self._trcd_cell_norm
        )
        # Prefetched measurement-jitter values, keyed
        # ``session << 32 | physical_row`` (an int key allocates no
        # container, so tens of thousands of entries add no garbage-
        # collector work; rows are < 2**32). Populated by
        # prefetch_measurement_jitter (kernel probe engine); consulted
        # first by measurement_jitter. Values are bit-identical to the
        # direct draw, so a hit and a miss are indistinguishable to
        # callers.
        self._jitter_cache: Dict[int, float] = {}
        # Per-row high-water mark of the prefetched session lattice
        # (see ensure_jitter_window).
        self._jitter_horizon: Dict[int, int] = {}

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
        cached = self._jitter_cache.get(session << 32 | physical_row)
        if cached is not None:
            return cached
        rng = self._hub.generator(
            f"bank/{self._bank}/row/{physical_row}/jitter/{session}"
        )
        _count_jitter_draws("single", 1)
        return float(np.exp(self._cal.measurement_sigma * rng.standard_normal()))

    def prefetch_measurement_jitter(
        self, physical_row: int, sessions: Iterable[int]
    ) -> int:
        """Bulk-derive the jitter values of a set of one row's restore
        sessions (the one-row case of :meth:`_derive_jitter`; its lanes
        count as ``block``). Returns the number of newly cached values.
        """
        return self._derive_jitter(((physical_row, sessions),), "block")

    def preheat_jitter(self, lattices: Sequence[Tuple[int, int, int]]) -> int:
        """Derive a whole hammer pass's jitter in one vectorized pass.

        Each ``(physical_row, first_session, lanes)`` lattice covers the
        sessions ``first_session, first_session + 3, ...`` (``lanes`` of
        them) and becomes its row's horizon (see
        :meth:`ensure_jitter_window`), so the pass's on-lattice reads
        derive nothing more. Lanes count as ``preheat``. Returns the
        number of newly cached values.
        """
        derived = self._derive_jitter(
            [
                (row, range(first, first + 3 * lanes, 3))
                for row, first, lanes in lattices
            ],
            "preheat",
        )
        # Recorded after the derivation, which may clear every horizon.
        for row, first, lanes in lattices:
            self._jitter_horizon[row] = first + 3 * (lanes - 1)
        return derived

    def _derive_jitter(
        self, windows: Sequence[Tuple[int, Iterable[int]]], path: str
    ) -> int:
        """Derive and cache the jitter of ``(physical_row, sessions)``
        windows not cached yet: one per-row key prefix hashed
        (:meth:`~repro.rng.RngHub.suffix_seeds`), then one vectorized
        draw (:func:`repro.rng.standard_normal_draws`, bit-identical per
        key) and one ``exp`` over every lane of every row. Returns the
        number of newly cached values; the lanes count under ``path``
        (the ziggurat's rejected lanes under ``single``)."""
        cache = self._jitter_cache
        if len(cache) > self.JITTER_CACHE_LIMIT:
            # The horizons describe what the cache holds: drop them with
            # it, or rows would skip their prefetch and draw every
            # session's jitter one generator at a time.
            cache.clear()
            self._jitter_horizon.clear()
        keys: List[int] = []
        seeds = []
        for row, sessions in windows:
            missing = [
                session for session in sessions
                if session << 32 | row not in cache
            ]
            if missing:
                seeds.append(self._hub.suffix_seeds(
                    f"bank/{self._bank}/row/{row}/jitter/", missing
                ))
                keys += [session << 32 | row for session in missing]
        if not keys:
            return 0
        draws, singles = standard_normal_draws(
            seeds[0] if len(seeds) == 1 else np.concatenate(seeds)
        )
        _count_jitter_draws(path, len(keys) - singles)
        if singles:
            _count_jitter_draws("single", singles)
        # One vectorized exp over the block (bit-identical to the
        # per-draw scalar exp: same ufunc, same float64 inputs).
        values = np.exp(draws * self._cal.measurement_sigma)
        cache.update(zip(keys, values.tolist()))
        return len(keys)

    #: Sessions per fallback jitter window. A hammer probe advances the
    #: victim's session by 3 (+2 before the evaluation, +1 after), so a
    #: window covers 20 consecutive probes.
    JITTER_WINDOW_SPAN = 3 * 19
    #: Sessions per extension window once a row's reads run past its
    #: horizon on the same lattice. The derivation costs ~1-2 us per
    #: lane plus a fixed per-call term, so wide windows beat narrow ones
    #: that would need more calls.
    JITTER_EXTEND_SPAN = 3 * 127
    #: Cached jitter values past which the cache (and every row's
    #: horizon) is cleared before the next derivation.
    JITTER_CACHE_LIMIT = 262_144

    def ensure_jitter_window(self, physical_row: int, session: int) -> None:
        """Guarantee the jitter of ``session`` is derived: the fallback
        for reads the pass's warm-up (:meth:`preheat_jitter`) did not
        predict.

        Tracks, per row, the stride-3 session lattice already derived:
        because sessions only ever increase and each derivation covers a
        contiguous stride-3 block up to its horizon, ``session`` is
        covered exactly when it lies on the horizon's lattice at or
        below it. A read off the lattice (a decoy program's write steps
        a row by 2) derives a fresh window; a read past the horizon on
        the lattice an extension. Any overlap with previously cached
        sessions is filtered out by :meth:`_derive_jitter`.
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
        self.prefetch_measurement_jitter(
            physical_row, range(session, horizon + 1, 3)
        )
        # Recorded after the prefetch, which may clear every horizon.
        self._jitter_horizon[physical_row] = horizon

    def is_anti_row(self, physical_row: int) -> bool:
        """True cell rows store 1 as charge; anti rows store 0."""
        return bool(physical_row % 2)

    # -- per-cell vectors --------------------------------------------------------

    def tolerance_structure_pair(self, physical_row: int):
        """Per-cell ``(hammer tolerances, outlier mask)`` at nominal V_PP,
        from one RNG replay: callers that need both (the bank's per-row
        caches and layouts) should use this instead of the two
        single-field accessors, which each replay it.

        Two populations (see :mod:`repro.dram.calibration`): a bulk
        lognormal around the row's weakness ``w`` (whose lower tail is
        the 300K-hammer BER), overlaid with a Poisson-sparse set of
        outlier defect cells whose much lower tolerances set HC_first.
        The mask marks exactly the cells whose tolerance was replaced by
        an outlier draw.
        """
        _count_generation("tolerance")
        rng = self._rng(physical_row, "tolerance")
        weakness = self.row_weakness(physical_row)
        draws = rng.standard_normal(self._cells).astype(np.float32)
        tolerances = (
            weakness * np.exp(self._cal.bulk_sigma * draws)
        ).astype(np.float32)
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
            replace = outliers < tolerances[positions]
            tolerances[positions[replace]] = outliers[replace]
            mask[positions[replace]] = True
        return tolerances, mask

    def cell_tolerances(self, physical_row: int) -> np.ndarray:
        """Per-cell hammer tolerances at nominal V_PP (float32)."""
        return self.tolerance_structure_pair(physical_row)[0]

    def cell_outlier_mask(self, physical_row: int) -> np.ndarray:
        """Boolean mask of the row's outlier (defect) cells."""
        return self.tolerance_structure_pair(physical_row)[1]

    def retention_structure_pair(self, physical_row: int):
        """Per-cell ``(retention times, V_PP sensitivity)`` at 80 degC
        and nominal V_PP, from one RNG replay (see
        :meth:`tolerance_structure_pair`; the fused probe engine's
        preheat reads both).

        The bulk population is lognormal around the vendor-calibrated
        median with sensitivity 1; rows assigned to a weak tier (see
        :class:`~repro.dram.profiles.RetentionTier`) additionally carry a
        Poisson-sized cluster of much weaker, much more V_PP-sensitive
        cells, placed in distinct 64-bit words (which is why the paper's
        Observation 14 finds every failing word single-error-
        correctable).
        """
        _count_generation("retention")
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

    def cell_retention_times(self, physical_row: int) -> np.ndarray:
        """Per-cell retention times at 80 degC and nominal V_PP [s]."""
        return self.retention_structure_pair(physical_row)[0]

    def cell_retention_vpp_sensitivity(self, physical_row: int) -> np.ndarray:
        """Per-cell margin-exponent multipliers (1 for bulk cells)."""
        return self.retention_structure_pair(physical_row)[1]

    def cell_trcd_factors(self, physical_row: int) -> np.ndarray:
        """Per-cell activation-latency factors, normalized so the row's
        worst cell sits at ~1.0 relative to the row factor."""
        _count_generation("trcd")
        rng = self._rng(physical_row, "trcd_cell")
        draws = rng.standard_normal(self._cells).astype(np.float32)
        factors = np.exp(TRCD_CELL_SIGMA * draws) / self._trcd_cell_norm
        return factors.astype(np.float32)

    def powerup_bits(self, physical_row: int) -> np.ndarray:
        """Pseudo-random content of a never-written row."""
        rng = self._rng(physical_row, "powerup")
        return rng.integers(0, 2, size=self._cells, dtype=np.uint8)
