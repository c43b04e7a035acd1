"""One DRAM bank: command state machine plus fault physics.

The bank is where the paper's three error mechanisms materialize:

* **RowHammer flips** -- aggressor activations accumulate damage on
  physically-neighboring rows (scaled by the V_PP-dependent disturbance
  model); a charged cell flips once the damage exceeds its tolerance.
* **Retention flips** -- a charged cell decays once the time since its
  last restoration exceeds its (V_PP- and temperature-scaled) retention
  time.
* **Activation flips** -- activating with a tRCD below a cell's
  V_PP-dependent requirement corrupts the sensed value of that cell.

Pending decay/hammer flips are evaluated lazily and *persisted* when a
row is next sensed (activated or refreshed) -- matching real DRAM, where
the sense amplifier latches whatever charge remains and restores it.
Activation-latency corruption, by contrast, is a sensing failure and only
affects the data read while the row is open.

Hammering is applied analytically (one vectorized update per hammer
session, never per-activation), which is what makes 300K-hammer
experiments tractable; the SoftMC layer documents this as the semantic
equivalent of its unrolled ACT/PRE loop.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.dram.calibration import ModuleCalibration
from repro.dram.cell import (
    OTHER_PATTERN_INDEX,
    CellParameterGenerator,
    RowState,
)
from repro.dram.environment import ModuleEnvironment
from repro.dram.mapping import RowMapping
from repro.dram.patterns import DataPattern, classify_row_bits
from repro.errors import DramAddressError, DramCommandError
from repro.rng import RngHub

#: Damage weight per aggressor activation on a distance-1 victim. With
#: 0.5 per side, a double-sided attack of HC activations per aggressor
#: deposits exactly HC units -- the unit in which tolerances are
#: calibrated (HC_first is defined per-aggressor for double-sided
#: attacks, Section 4.2).
_DISTANCE1_WEIGHT = 0.5

#: Row-state cache key of the pattern-independent sort statics: the
#: ascending-tolerance cell order, the float64 tolerances in that order
#: and the outlier mask in that order (pure per-row properties; see
#: :meth:`Bank.preheat_tolerance_orders`).
_TOL_ORDER_KEY = "_tol_order"

#: Row-state cache key of the retention sort statics: the ascending-
#: retention cell order and the float32 retention times in that order
#: (pure per-row properties; see :meth:`Bank.preheat_retention_orders`).
#: The probe engine's cross-operating-point kernels re-slice this
#: one order for every V_PP point instead of re-sorting per point.
_RET_ORDER_KEY = "_ret_order"


class Bank:
    """A single DRAM bank of a simulated module."""

    def __init__(
        self,
        index: int,
        calibration: ModuleCalibration,
        mapping: RowMapping,
        hub: RngHub,
        env: ModuleEnvironment,
        trr=None,
    ):
        self._index = index
        self._cal = calibration
        self._mapping = mapping
        self._env = env
        self._cells = CellParameterGenerator(calibration, hub, index)
        self._geometry = calibration.geometry
        self._rows: Dict[int, RowState] = {}
        self._open_row: Optional[int] = None  # logical address
        self._open_corrupt: Optional[np.ndarray] = None
        self._written_columns: set = set()
        self._trr = trr
        self._refresh_cursor = 0
        self._scale_cache = {}
        self.total_activations = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def index(self) -> int:
        """Bank index within the module."""
        return self._index

    @property
    def mapping(self) -> RowMapping:
        """The bank's logical-to-physical row mapping."""
        return self._mapping

    @property
    def open_row(self) -> Optional[int]:
        """Currently open logical row, if any."""
        return self._open_row

    @property
    def trr(self):
        """The bank's TRR defense model, if installed (None otherwise)."""
        return self._trr

    @property
    def cells(self) -> CellParameterGenerator:
        """The bank's deterministic per-cell parameter factory (the
        shared-memory device state of :mod:`repro.core.soa` preloads
        vectors into it)."""
        return self._cells

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._geometry.rows_per_bank:
            raise DramAddressError(
                f"row {row} out of range [0, {self._geometry.rows_per_bank})"
            )

    def _check_column(self, column: int) -> None:
        if not 0 <= column < self._geometry.columns:
            raise DramAddressError(
                f"column {column} out of range [0, {self._geometry.columns})"
            )

    def _state(self, physical_row: int) -> RowState:
        state = self._rows.get(physical_row)
        if state is None:
            state = RowState(
                data=self._cells.powerup_bits(physical_row),
                last_restore_time=self._env.now,
                vpp_at_restore=self._env.vpp,
            )
            self._rows[physical_row] = state
        return state

    def _cached(self, state: RowState, physical_row: int, fieldname: str) -> np.ndarray:
        vector = state.cache.get(fieldname)
        if vector is None:
            vector = getattr(self._cells, fieldname)(physical_row)
            state.cache[fieldname] = vector
        return vector

    # -- fault evaluation --------------------------------------------------------

    def _charged_mask(self, physical_row: int, bits: np.ndarray) -> np.ndarray:
        charged_value = 0 if self._cells.is_anti_row(physical_row) else 1
        return bits == charged_value

    def _discharged_value(self, physical_row: int) -> int:
        return 1 if self._cells.is_anti_row(physical_row) else 0

    def _retention_base(
        self, physical_row: int, state: RowState, vpp_at_restore: float
    ) -> np.ndarray:
        """Pattern-independent part of the effective retention times,
        cached for the most recent (V_PP-at-restore, temperature) pair.

        The data pattern only contributes a trailing scalar factor, so
        one base vector serves every pattern probed at an operating
        point -- and scalar multiplication being monotone, the minimum
        effective retention can be taken over the base and scaled."""
        key = (vpp_at_restore, self._env.temperature)
        cached = state.cache.get("_retention_base")
        if cached is not None and cached[0] == key:
            return cached[1]
        retention = self._cached(state, physical_row, "cell_retention_times")
        sensitivity = self._cached(
            state, physical_row, "cell_retention_vpp_sensitivity"
        )
        model = self._cal.retention
        margin = model.margin_factor(vpp_at_restore)
        thermal = model.temperature_factor(self._env.temperature)
        base = retention * thermal * np.power(margin, sensitivity)
        state.cache["_retention_base"] = (key, base)
        return base

    def _effective_retention_times(
        self,
        physical_row: int,
        state: RowState,
        pattern_index: int,
        vpp_at_restore: float,
    ) -> np.ndarray:
        """Per-cell retention thresholds at the current temperature.

        The margin factor is exponentiated by the per-cell V_PP
        sensitivity: weak-tier cells degrade much faster with reduced
        V_PP (Observation 13). Shared between the lazy persist path and
        the batched probe sweeps so both evaluate the exact same
        expression.
        """
        retention_pattern = self._cached(
            state, physical_row, "retention_pattern_factors"
        )[pattern_index]
        return self._retention_base(
            physical_row, state, vpp_at_restore
        ) * retention_pattern

    def _effective_tolerances(
        self,
        physical_row: int,
        state: RowState,
        pattern_index: int,
        session: int,
    ) -> np.ndarray:
        """Per-cell hammer tolerances for one restore session.

        Bulk and outlier cell populations carry independent V_PP
        responses (see calibration.py); the session-keyed jitter models
        the paper's iteration-to-iteration variation (Section 4.6).
        """
        tolerance = self._cached(state, physical_row, "cell_tolerances")
        hammer_pattern = self._cached(state, physical_row, "pattern_factors")[
            pattern_index
        ]
        jitter = self._cells.measurement_jitter(physical_row, session)
        return tolerance * (hammer_pattern * jitter)

    def _persist_pending_flips(self, physical_row: int, state: RowState) -> None:
        """Materialize retention and RowHammer flips into the stored bits.

        A per-session *flip guard* caches the smallest damage and the
        shortest elapsed time that could flip any still-charged cell;
        while the accumulated damage and elapsed time stay below those
        thresholds, the (vectorized) evaluation is skipped entirely.
        This is what keeps per-access system simulation -- one activate
        per read, each disturbing its neighbors -- O(1) per access.
        """
        elapsed = self._env.now - state.last_restore_time
        guard = state.cache.get("_flip_guard")
        if (
            guard is not None
            and guard["pattern"] == state.pattern_index
            and guard["temperature"] == self._env.temperature
            and guard["vpp_at_restore"] == state.vpp_at_restore
            and state.damage_bulk < guard["min_bulk"]
            and state.damage_outlier < guard["min_outlier"]
            and elapsed < guard["min_retention"]
        ):
            return

        bits = state.data
        charged = self._charged_mask(physical_row, bits)
        if not charged.any():
            state.cache["_flip_guard"] = {
                "pattern": state.pattern_index,
                "temperature": self._env.temperature,
                "vpp_at_restore": state.vpp_at_restore,
                "min_bulk": np.inf,
                "min_outlier": np.inf,
                "min_retention": np.inf,
            }
            return
        flips = np.zeros_like(charged)

        effective_retention = self._effective_retention_times(
            physical_row, state, state.pattern_index, state.vpp_at_restore
        )
        if elapsed > 0:
            flips |= charged & (effective_retention < elapsed)

        outlier_mask = self._cached(state, physical_row, "cell_outlier_mask")
        effective_tolerance = self._effective_tolerances(
            physical_row, state, state.pattern_index, state.session
        )
        damage = np.where(
            outlier_mask, state.damage_outlier, state.damage_bulk
        )
        flips |= charged & (damage >= effective_tolerance)

        if flips.any():
            bits[flips] = self._discharged_value(physical_row)
            charged = charged & ~flips
        self._store_flip_guard(
            state, charged, outlier_mask, effective_tolerance,
            effective_retention,
        )

    def _store_flip_guard(
        self,
        state: RowState,
        charged: np.ndarray,
        outlier_mask: np.ndarray,
        effective_tolerance: np.ndarray,
        effective_retention: np.ndarray,
    ) -> None:
        """Rebuild the flip guard over the cells that can still flip.

        The guard outlives the restore session, so its thresholds carry
        a conservative margin covering the per-session measurement
        jitter (sigma ~2%; 0.9 is > 4 sigma of headroom): within the
        band the full evaluation re-runs, outside it the skip is always
        safe.
        """
        def _min_over(mask: np.ndarray, values: np.ndarray) -> float:
            return float(values[mask].min()) if mask.any() else np.inf

        state.cache["_flip_guard"] = {
            "pattern": state.pattern_index,
            "temperature": self._env.temperature,
            "vpp_at_restore": state.vpp_at_restore,
            "min_bulk": 0.9 * _min_over(
                charged & ~outlier_mask, effective_tolerance
            ),
            "min_outlier": 0.9 * _min_over(
                charged & outlier_mask, effective_tolerance
            ),
            "min_retention": 0.9 * _min_over(charged, effective_retention),
        }

    def _disturbance_scales(self, physical_row: int) -> "tuple[float, float]":
        """Per-row (bulk, outlier) tolerance scales at the current V_PP,
        cached per operating point: every activation consults them, so
        the gamma draws and power evaluations must not repeat."""
        key = (physical_row, self._env.vpp, self._env.temperature)
        cached = self._scale_cache.get(key)
        if cached is None:
            model = self._cal.disturbance
            gamma_bulk, gamma_outlier = self._cells.row_gammas(physical_row)
            cached = (
                float(model.tolerance_scale(
                    self._env.vpp, gamma_bulk, self._env.temperature
                )),
                float(model.tolerance_scale(
                    self._env.vpp, gamma_outlier, self._env.temperature
                )),
            )
            if len(self._scale_cache) > 100_000:
                self._scale_cache.clear()
            self._scale_cache[key] = cached
        return cached

    def _damage_neighbors(self, physical_row: int, count: int) -> None:
        """Deposit ``count`` activations' worth of disturbance on the
        physical neighbors of ``physical_row`` (distance 1 and 2)."""
        attenuation = self._cal.disturbance.distance2_attenuation
        for distance, weight in (
            (1, _DISTANCE1_WEIGHT),
            (2, _DISTANCE1_WEIGHT * attenuation),
        ):
            for victim_physical in (
                physical_row - distance, physical_row + distance
            ):
                if not 0 <= victim_physical < self._geometry.rows_per_bank:
                    continue
                victim = self._state(victim_physical)
                scale_bulk, scale_outlier = self._disturbance_scales(
                    victim_physical
                )
                victim.damage_bulk += count * weight / scale_bulk
                victim.damage_outlier += count * weight / scale_outlier

    def _restore(self, physical_row: int, state: RowState) -> None:
        """Full charge restoration: reset damage and the retention clock."""
        state.last_restore_time = self._env.now
        state.vpp_at_restore = self._env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1

    def _trcd_worst_requirement(
        self, physical_row: int, state: RowState, pattern_index: int
    ) -> float:
        """The row's worst-case (slowest-cell) activation requirement at
        the current V_PP and pattern slot ``pattern_index``. ``inf``
        below the conduction floor. Every factor is cached, so the
        common case is a few dict hits and three multiplies."""
        base_key = ("_trcd_base", self._env.vpp)
        requirement_base = state.cache.get(base_key)
        if requirement_base is None:
            requirement_base = self._cal.activation.trcd_min(self._env.vpp)
            state.cache[base_key] = requirement_base
        if math.isinf(requirement_base):
            return requirement_base
        row_factor = state.cache.get("_trcd_row_factor")
        if row_factor is None:
            row_factor = self._cells.trcd_row_factor(physical_row)
            state.cache["_trcd_row_factor"] = row_factor
        pattern_factor = self._cached(state, physical_row, "trcd_pattern_factors")[
            pattern_index
        ]
        cell_max = state.cache.get("_trcd_cell_max")
        if cell_max is None:
            cell_max = float(
                self._cached(state, physical_row, "cell_trcd_factors").max()
            )
            state.cache["_trcd_cell_max"] = cell_max
        return requirement_base * row_factor * pattern_factor * cell_max

    def _activation_corruption(
        self, physical_row: int, state: RowState, trcd_used: float
    ) -> Optional[np.ndarray]:
        """Cells mis-sensed because ``trcd_used`` undercuts their
        requirement at the current V_PP (Alg. 2's failure mode).

        Hot path: the analytic base requirement is cached per V_PP and
        the row's worst-case requirement is cached per row, so the
        common case (ample tRCD) costs two lookups and a compare.
        """
        worst = self._trcd_worst_requirement(
            physical_row, state, state.pattern_index
        )
        if worst <= trcd_used:
            return None  # even the slowest cell is covered
        if math.isinf(worst):
            # Below the conduction floor nothing senses correctly.
            return self._charged_mask(physical_row, state.data)
        requirement = self._trcd_requirements(
            physical_row, state, state.pattern_index
        )
        corrupt = (requirement > trcd_used) & self._charged_mask(
            physical_row, state.data
        )
        return corrupt if corrupt.any() else None

    def _trcd_requirements(
        self, physical_row: int, state: RowState, pattern_index: int
    ) -> np.ndarray:
        """Per-cell activation requirements at the current V_PP and
        pattern slot (finite part only: call after
        :meth:`_trcd_worst_requirement`, which warms the scalar
        factors)."""
        requirement_base = state.cache[("_trcd_base", self._env.vpp)]
        row_factor = state.cache["_trcd_row_factor"]
        pattern_factor = self._cached(state, physical_row, "trcd_pattern_factors")[
            pattern_index
        ]
        cell_factors = self._cached(state, physical_row, "cell_trcd_factors")
        return requirement_base * row_factor * pattern_factor * cell_factors

    # -- commands -----------------------------------------------------------------

    def activate(self, logical_row: int, trcd: float = None) -> None:
        """ACT: open ``logical_row``, persisting its pending flips.

        ``trcd`` is the activation latency the controller will respect
        before the first read; if it undercuts cell requirements at the
        current V_PP, those cells read corrupted until the row is closed.
        ``None`` means "ample" (no activation corruption).
        """
        if self._open_row is not None:
            raise DramCommandError(
                f"bank {self._index}: ACT while row {self._open_row} is open"
            )
        self._check_row(logical_row)
        physical = self._mapping.to_physical(logical_row)
        state = self._state(physical)
        self._persist_pending_flips(physical, state)
        self._restore(physical, state)
        # Every activation disturbs the physical neighbors -- RowHammer
        # through the regular command path (system-level attacks issue
        # plain reads; the disturbance must not depend on which API
        # hammered the row).
        self._damage_neighbors(physical, 1)
        self._open_corrupt = (
            None
            if trcd is None
            else self._activation_corruption(physical, state, trcd)
        )
        self._open_row = logical_row
        self._written_columns = set()
        self.total_activations += 1
        if self._trr is not None:
            self._trr.observe_activation(logical_row)

    def precharge(self) -> None:
        """PRE: close the open row (idempotent, like real PRE)."""
        if self._open_row is None:
            return
        physical = self._mapping.to_physical(self._open_row)
        state = self._rows[physical]
        if len(self._written_columns) == self._geometry.columns:
            # A full-row write establishes fresh charge and a known pattern.
            pattern = classify_row_bits(state.data)
            state.pattern_index = (
                pattern.index if pattern is not None else OTHER_PATTERN_INDEX
            )
            self._restore(physical, state)
        self._open_row = None
        self._open_corrupt = None
        self._written_columns = set()

    def read_column(self, column: int) -> np.ndarray:
        """RD: return the 64 bits of ``column`` from the open row."""
        if self._open_row is None:
            raise DramCommandError(f"bank {self._index}: RD with no open row")
        self._check_column(column)
        physical = self._mapping.to_physical(self._open_row)
        state = self._rows[physical]
        lo, hi = column * 64, (column + 1) * 64
        bits = state.data[lo:hi].copy()
        if self._open_corrupt is not None:
            mask = self._open_corrupt[lo:hi]
            bits[mask] = self._discharged_value(physical)
        return bits

    def write_column(self, column: int, bits: np.ndarray) -> None:
        """WR: store 64 bits into ``column`` of the open row."""
        if self._open_row is None:
            raise DramCommandError(f"bank {self._index}: WR with no open row")
        self._check_column(column)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (64,):
            raise DramCommandError(
                f"WR payload must be 64 bits, got shape {bits.shape}"
            )
        physical = self._mapping.to_physical(self._open_row)
        state = self._rows[physical]
        state.data[column * 64 : (column + 1) * 64] = bits
        # Data changed: previously-flipped cells may be re-charged, so
        # the cached flip guard (computed over the old charged set) is
        # stale.
        state.cache.pop("_flip_guard", None)
        self._written_columns.add(column)

    def read_row(self) -> np.ndarray:
        """Convenience: all bits of the open row (column reads fused)."""
        if self._open_row is None:
            raise DramCommandError(f"bank {self._index}: read with no open row")
        physical = self._mapping.to_physical(self._open_row)
        state = self._rows[physical]
        bits = state.data.copy()
        if self._open_corrupt is not None:
            bits[self._open_corrupt] = self._discharged_value(physical)
        return bits

    def write_row(self, bits: np.ndarray) -> None:
        """Convenience: fill the open row (column writes fused)."""
        if self._open_row is None:
            raise DramCommandError(f"bank {self._index}: write with no open row")
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self._geometry.row_bits,):
            raise DramCommandError(
                f"row payload must be {self._geometry.row_bits} bits"
            )
        physical = self._mapping.to_physical(self._open_row)
        state = self._rows[physical]
        state.data = bits.copy()
        state.cache.pop("_flip_guard", None)  # see write_column
        self._written_columns = set(range(self._geometry.columns))

    # -- hammering -------------------------------------------------------------------

    def hammer(self, aggressor_rows: Sequence[int], count: int) -> None:
        """Apply ``count`` ACT/PRE cycles to each aggressor (logical) row.

        The analytic equivalent of the unrolled activation loop: damage is
        deposited on physical neighbors at distance 1 and 2, scaled by the
        V_PP-dependent disturbance model evaluated at the *current*
        operating point. Aggressor rows themselves end fully restored (each
        activation restores them).
        """
        if self._open_row is not None:
            raise DramCommandError(
                f"bank {self._index}: hammer while row {self._open_row} is open"
            )
        if count < 0:
            raise DramCommandError(f"hammer count must be >= 0: {count}")
        for logical in aggressor_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            agg_state = self._state(physical)
            self._persist_pending_flips(physical, agg_state)
            self._restore(physical, agg_state)
            self._damage_neighbors(physical, count)
            self.total_activations += count
            if self._trr is not None:
                self._trr.observe_activation(logical, count=count)

    # -- refresh ----------------------------------------------------------------------

    def refresh(self) -> List[int]:
        """REF: refresh the next chunk of rows (8192 REFs cover the bank).

        Returns the logical rows refreshed, including any victims the TRR
        defense chose to refresh alongside (Section 4.1's disabled-by-
        withholding-REF behaviour: no REF, no TRR).
        """
        if self._open_row is not None:
            raise DramCommandError(
                f"bank {self._index}: REF while row {self._open_row} is open"
            )
        chunk = max(1, self._geometry.rows_per_bank // 8192)
        start = self._refresh_cursor
        refreshed: List[int] = []
        for physical in range(start, min(start + chunk, self._geometry.rows_per_bank)):
            if physical in self._rows:
                state = self._rows[physical]
                self._persist_pending_flips(physical, state)
                self._restore(physical, state)
            refreshed.append(self._mapping.to_logical(physical))
        self._refresh_cursor = (start + chunk) % self._geometry.rows_per_bank
        if self._trr is not None:
            for victim_logical in self._trr.victims_to_refresh():
                physical = self._mapping.to_physical(victim_logical)
                if physical in self._rows:
                    state = self._rows[physical]
                    self._persist_pending_flips(physical, state)
                    self._restore(physical, state)
                refreshed.append(victim_logical)
        return refreshed

    def refresh_all(self) -> int:
        """Refresh every materialized row in one pass (the controller's
        per-tREFW sweep); returns the number of rows refreshed.

        Equivalent to cycling REF through the whole bank, without paying
        for the empty refresh slots of untouched rows.
        """
        if self._open_row is not None:
            raise DramCommandError(
                f"bank {self._index}: refresh while row {self._open_row} is open"
            )
        refreshed = 0
        for physical, state in self._rows.items():
            self._persist_pending_flips(physical, state)
            self._restore(physical, state)
            refreshed += 1
        return refreshed

    def refresh_rows(self, logical_rows: Sequence[int]) -> None:
        """Refresh specific rows (selective double-rate refresh)."""
        for logical in logical_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            state = self._rows.get(physical)
            if state is None:
                continue
            self._persist_pending_flips(physical, state)
            self._restore(physical, state)

    # -- batched probe sweeps -----------------------------------------------------------

    def hammer_sweep(
        self,
        victim_row: int,
        aggressor_rows: Sequence[int],
        pattern: DataPattern,
    ) -> "HammerSweep":
        """Precompute the flip evaluation of repeated double-sided probes.

        Returns a :class:`HammerSweep` that computes the victim's
        per-cell effective thresholds once per operating point and then
        evaluates any number of hammer counts against them -- the kernel
        behind the probe engine and Alg. 1's bisection.
        """
        return HammerSweep(self, victim_row, aggressor_rows, pattern)

    def retention_sweep(
        self, victim_row: int, pattern: DataPattern
    ) -> "RetentionSweep":
        """Precompute the flip evaluation of repeated retention probes
        (all of Alg. 3's refresh windows share one threshold vector)."""
        return RetentionSweep(self, victim_row, pattern)

    def probe_state(self, logical_row: int) -> RowState:
        """Materialize (if needed) and return a row's mutable state.

        Probe engines use this to keep restore-session bookkeeping
        aligned with the command path.
        """
        self._check_row(logical_row)
        return self._state(self._mapping.to_physical(logical_row))

    def preheat_tolerance_orders(self, logical_rows: Sequence[int]) -> int:
        """Warm the per-row tolerance sort orders for a whole row set.

        The probe engine's exact hammer counts walk each row's cells
        in ascending-tolerance order (the prefix statics of
        :class:`_FusedHammerCounts`). The order is a pure per-row property, so a
        row set can compute it in one stacked ``(rows, cells)`` argsort
        instead of one argsort per row; the per-row results are
        identical. Returns the number of rows actually warmed (rows
        whose order is already cached are skipped).
        """
        physicals: List[int] = []
        states: List[RowState] = []
        for logical in logical_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            state = self._state(physical)
            if _TOL_ORDER_KEY not in state.cache:
                physicals.append(physical)
                states.append(state)
        if not physicals:
            return 0
        stacked = np.stack([
            self._cached(state, physical, "cell_tolerances")
            for physical, state in zip(physicals, states)
        ])
        orders = np.argsort(stacked, axis=1)
        sorted64 = np.take_along_axis(stacked, orders, axis=1).astype(
            np.float64
        )
        for physical, state, order, tol_sorted in zip(
            physicals, states, orders, sorted64
        ):
            outlier = self._cached(state, physical, "cell_outlier_mask")
            state.cache[_TOL_ORDER_KEY] = (order, tol_sorted, outlier[order])
        return len(physicals)

    def preheat_retention_orders(self, logical_rows: Sequence[int]) -> int:
        """Warm the per-row retention sort orders for a whole row set.

        The probe engine's cross-operating-point reductions walk
        each row's charged cells in ascending-retention order (see
        :class:`_FusedRetentionCounts`): V_PP, temperature and data
        pattern only reparameterize monotone scalar factors on the
        presorted per-cell retention times, so one sort per row serves
        *every* operating point. Like
        :meth:`preheat_tolerance_orders`, a row set computes the orders
        in one stacked ``(rows, cells)`` argsort; the retention time /
        V_PP-sensitivity structure pair is generated in a single RNG
        replay per row (half the cost of the two single-field
        accessors). Returns the number of rows actually warmed.
        """
        physicals: List[int] = []
        states: List[RowState] = []
        for logical in logical_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            state = self._state(physical)
            if (
                "cell_retention_times" not in state.cache
                or "cell_retention_vpp_sensitivity" not in state.cache
            ):
                times, sensitivity = self._cells.retention_structure_pair(
                    physical
                )
                state.cache["cell_retention_times"] = times
                state.cache["cell_retention_vpp_sensitivity"] = sensitivity
            if _RET_ORDER_KEY not in state.cache:
                physicals.append(physical)
                states.append(state)
        if not physicals:
            return 0
        stacked = np.stack([
            state.cache["cell_retention_times"] for state in states
        ])
        orders = np.argsort(stacked, axis=1)
        sorted_times = np.take_along_axis(stacked, orders, axis=1)
        for state, order, row_sorted in zip(states, orders, sorted_times):
            state.cache[_RET_ORDER_KEY] = (order, row_sorted)
        return len(physicals)

    def sensing_corruption(
        self, logical_row: int, trcd: float
    ) -> Optional[np.ndarray]:
        """Activation-corruption mask an ACT with ``trcd`` would apply to
        the row's current content (None when every cell senses cleanly).
        """
        self._check_row(logical_row)
        physical = self._mapping.to_physical(logical_row)
        return self._activation_corruption(physical, self._state(physical), trcd)

    def sensing_certainly_clean(self, logical_row: int, trcd: float) -> bool:
        """Whether an ACT with ``trcd`` is guaranteed corruption-free for
        this row *regardless of its content*: even the slowest cell's
        requirement (at the current V_PP and the row's stored pattern
        slot) is covered. Data-independent, so the probe engine
        can cache the verdict per operating point across sessions --
        unlike :meth:`sensing_corruption`, whose ``None`` can also mean
        "the vulnerable cells happen to be uncharged right now"."""
        self._check_row(logical_row)
        physical = self._mapping.to_physical(logical_row)
        state = self._state(physical)
        worst = self._trcd_worst_requirement(
            physical, state, state.pattern_index
        )
        return worst <= trcd

    # -- introspection (testing / reverse-engineering support) --------------------------

    def materialized_rows(self) -> Iterable[int]:
        """Physical rows that currently hold state."""
        return self._rows.keys()

    def row_hammer_damage(self, logical_row: int) -> float:
        """Accumulated bulk-population damage on a row, in nominal-hammer
        units (the outlier accumulator tracks separately)."""
        self._check_row(logical_row)
        physical = self._mapping.to_physical(logical_row)
        state = self._rows.get(physical)
        return 0.0 if state is None else state.damage_bulk


class ProbeSweep:
    """Shared precomputation of one (victim row, data pattern) probe.

    Holds the victim's pattern bits, charged-cell mask and -- cached per
    (V_PP, temperature) operating point -- the per-cell effective
    retention thresholds, so repeated probes of the same row skip the
    per-probe parameter rederivation of the command path. The flip
    evaluation reuses the Bank's own threshold expressions, which is
    what keeps the sweep bit-identical to
    :meth:`Bank._persist_pending_flips`.
    """

    def __init__(self, bank: Bank, victim_row: int, pattern: DataPattern):
        bank._check_row(victim_row)
        self._bank = bank
        self.row = victim_row
        self.pattern = pattern
        self.physical = bank._mapping.to_physical(victim_row)
        self.state = bank._state(self.physical)
        # Bits, classification and charged mask are pure functions of
        # (pattern, row polarity); cache them on the row state so sweep
        # rebuilds (e.g. after an LRU eviction) cost dict hits only.
        pattern_key = ("_probe_pattern", pattern)
        cached = self.state.cache.get(pattern_key)
        if cached is None:
            bits = pattern.row_bits(bank._geometry.row_bits)
            classified = classify_row_bits(bits)
            cached = (
                bits,
                classified.index if classified is not None
                else OTHER_PATTERN_INDEX,
                bank._charged_mask(self.physical, bits),
            )
            self.state.cache[pattern_key] = cached
        self.bits, self.pattern_index, self.charged = cached
        self.discharged_value = bank._discharged_value(self.physical)
        self._outlier_mask = bank._cached(
            self.state, self.physical, "cell_outlier_mask"
        )
        self._op_key = None
        self._retention_thresholds = None
        self._counts = None
        self._counts_key = None
        self._fused = None
        self._fused_key = None
        #: Operating point at which sensing is known data-independently
        #: clean (see Bank.sensing_certainly_clean); kernel sessions key
        #: their per-session corruption verdict on this.
        self.sensing_clean_at = None

    def effective_retention_times(self) -> np.ndarray:
        """Per-cell retention thresholds at the current operating point
        (recomputed only when V_PP or temperature change)."""
        env = self._bank._env
        key = (env.vpp, env.temperature)
        if key != self._op_key:
            self._retention_thresholds = self._bank._effective_retention_times(
                self.physical, self.state, self.pattern_index, env.vpp
            )
            self._op_key = key
        return self._retention_thresholds

    def retention_groups(self) -> tuple:
        """Per-V_PP-sensitivity decomposition of the charged cells.

        Returns a tuple of ``(sensitivity, indices, times)`` groups:
        cell indices and base retention times (80 degC, nominal V_PP) of
        the charged cells sharing one sensitivity exponent, each group
        ascending in retention time. Within a group the effective
        retention threshold is the base time multiplied by *scalars*
        (thermal factor, ``margin ** sensitivity``, pattern factor), and
        positive scalar multiplication is weakly monotone in IEEE
        floats, so every operating point reuses the same presorted
        groups -- the heart of the fused cross-V_PP kernel. Cached on
        the row state per pattern; the candidate sensitivity values come
        from the calibration profile's retention tiers (plus the bulk
        value 1), which is exactly the set the cell generator assigns.
        """
        state = self.state
        key = ("_ret_groups", self.pattern)
        groups = state.cache.get(key)
        if groups is not None:
            return groups
        bank = self._bank
        row_static = state.cache.get(_RET_ORDER_KEY)
        if row_static is None:
            times = bank._cached(
                state, self.physical, "cell_retention_times"
            )
            order = np.argsort(times)
            row_static = (order, times[order])
            state.cache[_RET_ORDER_KEY] = row_static
        order, times_sorted = row_static
        charged_sorted = self.charged[order]
        indices = order[charged_sorted]
        times_charged = times_sorted[charged_sorted]
        sensitivity = bank._cached(
            state, self.physical, "cell_retention_vpp_sensitivity"
        )[indices]
        candidates = {np.float32(1.0)}
        for tier in bank._cal.profile.retention_tiers:
            candidates.add(np.float32(tier.vpp_sensitivity))
        groups = []
        covered = 0
        for value in sorted(candidates):
            member = sensitivity == value
            count = int(np.count_nonzero(member))
            if count == 0:
                continue
            covered += count
            if count == sensitivity.size:
                groups.append((value, indices, times_charged))
            else:
                groups.append(
                    (value, indices[member], times_charged[member])
                )
        if covered != sensitivity.size:  # pragma: no cover - defensive
            # A sensitivity value outside the calibration profile's tier
            # set: rebuild the candidate list from the data itself.
            groups = []
            for value in np.unique(sensitivity):
                member = sensitivity == value
                groups.append(
                    (value, indices[member], times_charged[member])
                )
        groups = tuple(groups)
        state.cache[key] = groups
        return groups

    def cache_nbytes(self) -> int:
        """Approximate bytes of per-operating-point arrays owned by this
        sweep (the effective-retention vector and the counts objects'
        sorted slices). Row-state caches are excluded: they are shared
        across sweeps and survive eviction anyway. The probe engines'
        byte-bounded LRU sums this over its residents."""
        total = 0
        if self._retention_thresholds is not None:
            total += self._retention_thresholds.nbytes
        for counts in (self._counts, self._fused):
            if counts is not None:
                total += counts.nbytes()
        return total


class HammerSweep(ProbeSweep):
    """Batched double-sided RowHammer probe evaluation for one victim.

    ``victim_damage`` replicates, deposit by deposit, the damage the
    command path accumulates on the victim over one Alg. 1 probe (one
    activation per aggressor initialization plus the hammer sessions),
    and ``flip_mask`` evaluates it against the Bank's effective
    thresholds -- so a whole bisection reuses one threshold computation
    per operating point.
    """

    def __init__(
        self,
        bank: Bank,
        victim_row: int,
        aggressor_rows: Sequence[int],
        pattern: DataPattern,
    ):
        super().__init__(bank, victim_row, pattern)
        self.aggressors = list(aggressor_rows)
        self.aggressor_states = []
        self._weights = []
        attenuation = bank._cal.disturbance.distance2_attenuation
        for logical in self.aggressors:
            bank._check_row(logical)
            physical = bank._mapping.to_physical(logical)
            distance = abs(physical - self.physical)
            if distance == 1:
                weight = _DISTANCE1_WEIGHT
            elif distance == 2:
                weight = _DISTANCE1_WEIGHT * attenuation
            else:
                weight = 0.0  # beyond the disturbance radius
            self._weights.append(weight)
            self.aggressor_states.append(bank._state(physical))
        self._damage_terms = None

    def damage_terms(self) -> tuple:
        """``(op_key, base_bulk, base_outlier, terms)`` for
        :meth:`victim_damage` at the current operating point.

        The initialization deposits (one activation per aggressor) and
        the per-aggressor ``weight / scale`` coefficients are constant
        per (V_PP, temperature), so a whole bisection reuses them; the
        base sums are accumulated once in the command path's exact
        order.
        """
        env = self._bank._env
        key = (env.vpp, env.temperature)
        cached = self._damage_terms
        if cached is None or cached[0] != key:
            scale_bulk, scale_outlier = self._bank._disturbance_scales(
                self.physical
            )
            base_bulk = 0.0
            base_outlier = 0.0
            for weight in self._weights:
                base_bulk += 1 * weight / scale_bulk
                base_outlier += 1 * weight / scale_outlier
            terms = tuple(
                (weight, scale_bulk, scale_outlier)
                for weight in self._weights
            )
            cached = (key, base_bulk, base_outlier, terms)
            self._damage_terms = cached
        return cached

    def victim_damage(self, count: int) -> "tuple[float, float]":
        """(bulk, outlier) damage one probe deposits on the victim.

        Accumulated in the command path's order -- one activation per
        aggressor initialization, then ``count`` hammers per aggressor --
        with the same scalar expressions, so the floating-point result is
        bit-identical to ``RowState.damage_*`` after the real commands.
        """
        _, damage_bulk, damage_outlier, terms = self.damage_terms()
        for weight, scale_bulk, scale_outlier in terms:
            damage_bulk += count * weight / scale_bulk
            damage_outlier += count * weight / scale_outlier
        return damage_bulk, damage_outlier

    def flip_mask(
        self,
        damage_bulk: float,
        damage_outlier: float,
        session: int,
        elapsed: float,
    ) -> np.ndarray:
        """Cells the probe flips, exactly as the persist path evaluates
        them at the read-back activation."""
        charged = self.charged
        flips = np.zeros_like(charged)
        effective_retention = self.effective_retention_times()
        if elapsed > 0:
            flips |= charged & (effective_retention < elapsed)
        effective_tolerance = self._bank._effective_tolerances(
            self.physical, self.state, self.pattern_index, session
        )
        damage = np.where(self._outlier_mask, damage_outlier, damage_bulk)
        flips |= charged & (damage >= effective_tolerance)
        return flips

    def threshold_counts(self) -> "_HammerCounts":
        """Sorted-threshold reductions at the current operating point.

        Rebuilt only when V_PP or temperature change -- the per-probe
        cost of a whole bisection then collapses to a few scalar
        multiplies (see :class:`_HammerCounts`).
        """
        env = self._bank._env
        key = (env.vpp, env.temperature)
        if self._counts is None or self._counts_key != key:
            self._counts = _HammerCounts(self)
            self._counts_key = key
        return self._counts

    def fused_counts(self) -> "_FusedHammerCounts":
        """Deferred-statics hammer reductions at the current operating
        point (the probe engine's kernel; see
        :class:`_FusedHammerCounts`). Cached separately from
        :meth:`threshold_counts` so mixing the two kernels on one sweep
        cannot alias them."""
        env = self._bank._env
        key = (env.vpp, env.temperature)
        if self._fused is None or self._fused_key != key:
            self._fused = _FusedHammerCounts(self)
            self._fused_key = key
        return self._fused


class RetentionSweep(ProbeSweep):
    """Batched retention probe evaluation for one victim row.

    A retention probe leaves the victim's accumulated damage at zero
    (the full-row write restores it and nothing activates nearby during
    the wait) and effective tolerances are strictly positive, so the
    command path's damage term can never fire; the sweep therefore only
    evaluates the retention thresholds. Skipping the jitter draw is
    exact because the RNG is stateless (keyed by row and session).
    """

    def flip_mask(self, elapsed: float) -> np.ndarray:
        """Cells that decay within ``elapsed`` seconds of the restore."""
        charged = self.charged
        flips = np.zeros_like(charged)
        if elapsed > 0:
            flips |= charged & (self.effective_retention_times() < elapsed)
        return flips

    def fused_counts(self) -> "_FusedRetentionCounts":
        """Group-decomposed retention reductions at the current
        operating point (the probe engine's kernel: exact flip counts
        for any elapsed time; see :class:`_FusedRetentionCounts`)."""
        env = self._bank._env
        key = (env.vpp, env.temperature)
        if self._fused is None or self._fused_key != key:
            self._fused = _FusedRetentionCounts(self)
            self._fused_key = key
        return self._fused


class TrcdSweep(ProbeSweep):
    """Alg. 2's tRCD trial of one row, resolved without programs.

    The command path runs each trial as a program: WRITE_ROW (ACT, full
    write, PRE) then READ_ROW with the trial tRCD (ACT, full read, PRE).
    Between the write's restore and the read's ACT only one tRP passes
    and no neighbor is activated, so when no charged cell's retention
    is that short (:meth:`decay_free`, checked by the session) the read
    senses exactly the freshly written pattern. The
    trial is then faulty iff its latency undercuts the largest
    requirement among the pattern's charged cells -- two scalars per
    (row, pattern, V_PP), compared exactly as
    :meth:`Bank._activation_corruption` compares them.

    :meth:`replay` performs the bookkeeping the programs would (three
    restores and two neighbor deposits per program, the simulated-time
    chain, activation counts); :meth:`close` materializes what the last
    program leaves on the row: its data and the flip guard that the
    last READ_ROW activation rebuilt. The write-side ACT's persist is
    skipped -- the write overwrites whatever it would flip and pops the
    guard it would rebuild -- and the RNG is stateless, so the skip
    consumes no draws.
    """

    def __init__(self, bank: Bank, row: int, pattern: DataPattern):
        super().__init__(bank, row, pattern)
        self._requirement = None
        self._deposits = None
        #: Restore session of the last replayed READ_ROW activation
        #: (None until a program is replayed, and again after close).
        self.read_session = None

    def activation_faulty(self, trcd_used: float) -> bool:
        """Whether a READ_ROW activated with ``trcd_used`` mis-senses any
        charged cell of the freshly written pattern."""
        if self._requirement is None:
            bank = self._bank
            worst = bank._trcd_worst_requirement(
                self.physical, self.state, self.pattern_index
            )
            charged_max = None
            if not math.isinf(worst) and self.charged.any():
                # Kept as a numpy scalar: it compares against the trial
                # latency with the dtype the vectorized mask uses.
                charged_max = bank._trcd_requirements(
                    self.physical, self.state, self.pattern_index
                )[self.charged].max()
            self._requirement = (worst, charged_max)
        worst, charged_max = self._requirement
        if worst <= trcd_used:
            return False
        if math.isinf(worst):
            # Below the conduction floor every charged cell mis-senses.
            return bool(self.charged.any())
        return charged_max is not None and bool(charged_max > trcd_used)

    def min_charged_retention(self) -> float:
        """Shortest effective retention among the pattern's charged
        cells at the current operating point (``inf`` when nothing is
        charged)."""
        if not self.charged.any():
            return math.inf
        return float(self.effective_retention_times()[self.charged].min())

    def decay_free(self, gap: float) -> bool:
        """Whether no charged cell can decay in the ``gap`` (one tRP)
        between a trial's write restore and its read activation.

        The read sees ``now - restore``, which rounds to within
        ulp(now) of ``gap``; while ulp(now) < ``gap`` the doubled bound
        covers it."""
        return (
            self.min_charged_retention() > 2.0 * gap
            and math.ulp(self._bank._env.now) < gap
        )

    def _neighbor_deposits(self) -> list:
        """``(row state, bulk, outlier)`` damage one activation of the
        row deposits on each physical neighbor, in
        :meth:`Bank._damage_neighbors` order and with its expressions.
        Resolved on first use so neighbors materialize at the same
        simulated time as under the command path."""
        if self._deposits is None:
            bank = self._bank
            attenuation = bank._cal.disturbance.distance2_attenuation
            deposits = []
            for distance, weight in (
                (1, _DISTANCE1_WEIGHT),
                (2, _DISTANCE1_WEIGHT * attenuation),
            ):
                for victim_physical in (
                    self.physical - distance, self.physical + distance
                ):
                    if not 0 <= victim_physical < bank._geometry.rows_per_bank:
                        continue
                    victim = bank._state(victim_physical)
                    scale_bulk, scale_outlier = bank._disturbance_scales(
                        victim_physical
                    )
                    deposits.append((
                        victim, 1 * weight / scale_bulk,
                        1 * weight / scale_outlier,
                    ))
            self._deposits = deposits
        return self._deposits

    def replay(
        self, trcd_used: float, row_io: float, trp: float, programs: int
    ) -> None:
        """Bookkeeping of ``programs`` WRITE_ROW + READ_ROW programs at
        ``trcd_used``: restores, neighbor deposits and activation counts
        at the host's exact ``env.advance`` sequence (``row_io`` is the
        full-row column time, ``trp`` the quantized precharge)."""
        bank = self._bank
        env = bank._env
        state = self.state
        deposits = self._neighbor_deposits()

        def activate() -> None:
            bank._restore(self.physical, state)
            for victim, bulk, outlier in deposits:
                victim.damage_bulk += bulk
                victim.damage_outlier += outlier

        for _ in range(programs):
            # WRITE_ROW: ACT, full-row write, PRE (the full write
            # restores the row a second time).
            activate()
            env.advance(trcd_used)
            env.advance(row_io)
            bank._restore(self.physical, state)
            env.advance(trp)
            # READ_ROW: ACT with the trial latency, full-row read, PRE.
            self.read_session = state.session
            activate()
            env.advance(trcd_used)
            env.advance(row_io)
            env.advance(trp)
        state.pattern_index = self.pattern_index
        bank.total_activations += 2 * programs

    def close(self) -> None:
        """Materialize the last replayed program's row data and the flip
        guard its READ_ROW activation rebuilt (the write popped the
        previous one)."""
        if self.read_session is None:
            return
        bank = self._bank
        state = self.state
        state.data = self.bits.copy()
        tolerance = bank._effective_tolerances(
            self.physical, state, self.pattern_index, self.read_session
        )
        bank._store_flip_guard(
            state, self.charged, self._outlier_mask, tolerance,
            self.effective_retention_times(),
        )
        self.read_session = None


_EMPTY_INDICES = np.empty(0, dtype=np.intp)


def _flip_prefix(tol64: np.ndarray, factor, damage: float) -> int:
    """Number of leading cells of an ascending-tolerance vector whose
    effective tolerance (``tol * factor``) the damage reaches.

    IEEE-754 multiplication by a positive factor is monotone, so the
    rounded products inherit the vector's ordering and the flip
    predicate ``tol64[k] * factor <= damage`` -- the scalar twin of the
    broadcast ``damage >= tolerance * factor`` in :meth:`HammerSweep.
    flip_mask` (NumPy promotes the float32 tolerances to float64 before
    multiplying, which is exactly what ``tol64`` pre-bakes) -- selects a
    prefix. A binary search finds its exact length.
    """
    n = tol64.shape[0]
    if n == 0 or tol64[0] * factor > damage:
        return 0
    if tol64[n - 1] * factor <= damage:
        return n
    low, high = 0, n - 1
    while high - low > 1:
        mid = (low + high) // 2
        if tol64[mid] * factor <= damage:
            low = mid
        else:
            high = mid
    return low + 1


def _hammer_static(sweep: "HammerSweep") -> tuple:
    """The per-(row, pattern) charged-population prefix statics:
    ``((bulk_indices, bulk_tol64), (outlier_indices, outlier_tol64))``.

    The population index arrays and presorted float64 tolerances are
    operating-point independent: they are cached on the row state (keyed
    by pattern) so V_PP steps and sweep-LRU evictions only pay dict
    hits. Shared between :class:`_HammerCounts` (which builds them
    eagerly) and :class:`_FusedHammerCounts` (which defers them until a
    probe schedule proves it needs repeated exact counts).
    """
    state = sweep.state
    static_key = ("_hammer_static", sweep.pattern)
    static = state.cache.get(static_key)
    if static is None:
        bank = sweep._bank
        # Pattern-independent row precomputation, shared across
        # pattern statics: the ascending-tolerance cell order, the
        # float64 tolerances in that order, and the outlier mask in
        # that order. Tie order within equal tolerances is
        # irrelevant (every prefix cutoff compares values only, so
        # tied cells enter or leave a flip set together) -- the
        # sorts can use the default unstable kind.
        row_static = state.cache.get(_TOL_ORDER_KEY)
        if row_static is None:
            tolerance = bank._cached(
                state, sweep.physical, "cell_tolerances"
            )
            order = np.argsort(tolerance)
            row_static = (
                order,
                tolerance[order].astype(np.float64),
                sweep._outlier_mask[order],
            )
            state.cache[_TOL_ORDER_KEY] = row_static
        order, tol_sorted, outlier_sorted = row_static
        # Filter once down to the charged cells, then split by the
        # outlier flag at half width -- relative (ascending
        # tolerance) order survives both filters.
        charged_sorted = sweep.charged[order]
        idx_charged = order[charged_sorted]
        tol_charged = tol_sorted[charged_sorted]
        out_charged = outlier_sorted[charged_sorted]
        bulk_flag = ~out_charged
        static = (
            (idx_charged[bulk_flag], tol_charged[bulk_flag]),
            (idx_charged[out_charged], tol_charged[out_charged]),
        )
        state.cache[static_key] = static
    return static


def _retention_guard(sweep: ProbeSweep) -> tuple:
    """``(min retention, min sensitivity, max sensitivity)`` over the
    charged cells, cached on the row state per pattern (``(inf, 0, 0)``
    when nothing is charged). Pure row/pattern properties -- the inputs
    of the analytic retention lower bound below."""
    state = sweep.state
    guard_key = ("_retention_guard", sweep.pattern)
    guard = state.cache.get(guard_key)
    if guard is None:
        bank = sweep._bank
        retention = bank._cached(
            state, sweep.physical, "cell_retention_times"
        )
        sensitivity = bank._cached(
            state, sweep.physical, "cell_retention_vpp_sensitivity"
        )
        if sweep.charged.any():
            charged_sensitivity = sensitivity[sweep.charged]
            guard = (
                float(retention[sweep.charged].min()),
                float(charged_sensitivity.min()),
                float(charged_sensitivity.max()),
            )
        else:
            guard = (math.inf, 0.0, 0.0)
        state.cache[guard_key] = guard
    return guard


def _retention_lower_bound(sweep: ProbeSweep) -> float:
    """A sound scalar lower bound on the charged cells' effective
    retention at the current operating point.

    Retention decay cannot fire below it (hammer probes wait micro- to
    milliseconds, retention thresholds sit orders of magnitude higher),
    so the per-cell retention evaluation is deferred -- usually forever.
    The bound is analytic:

    ``min_i r_i * thermal * margin^s_i * pattern
      >= min(r) * thermal * min(margin^min(s), margin^max(s)) * pattern``

    (``margin^s`` is monotone in ``s``), deflated by 1e-5 to absorb the
    float32 rounding of the vectorized expression."""
    retention_min, sensitivity_min, sensitivity_max = _retention_guard(sweep)
    if math.isinf(retention_min):
        return math.inf
    bank = sweep._bank
    model = bank._cal.retention
    env = bank._env
    margin = model.margin_factor(env.vpp)
    thermal = model.temperature_factor(env.temperature)
    pattern_scalar = float(bank._cached(
        sweep.state, sweep.physical, "retention_pattern_factors"
    )[sweep.pattern_index])
    return (
        retention_min * thermal
        * min(margin ** sensitivity_min, margin ** sensitivity_max)
        * pattern_scalar * (1.0 - 1e-5)
    )


class _HammerCounts:
    """Exact hammer-probe flip *counts* from scalar reductions.

    A probe's flip set is ``R | D`` where ``R`` (retention decays) and
    ``D`` (damage flips, per bulk/outlier population) are both prefix
    sets of presorted threshold vectors, so

    ``|R | D| = |R| + sum_pop |D_pop| - sum_pop |R & D_pop|``

    needs one ``searchsorted``, one binary search per population, and a
    small overlap count -- no full-row vector work. Every comparison
    replays the exact scalar operations of :meth:`HammerSweep.
    flip_mask` (float64 products of the float32 tolerances, strict /
    non-strict directions preserved), so the counts are bit-consistent
    with ``np.count_nonzero(flip_mask(...))``. The probe engine runs
    :class:`_FusedHammerCounts`, which builds the same prefix statics
    lazily; this eager variant serves analysis and the kernel tests.
    """

    def __init__(self, sweep: HammerSweep):
        bank = sweep._bank
        state = sweep.state
        self._cells = bank._cells
        self._physical = sweep.physical
        self._bulk, self._outlier = _hammer_static(sweep)
        self._hammer_pattern = bank._cached(
            state, sweep.physical, "pattern_factors"
        )[sweep.pattern_index]
        # Retention decay cannot fire below the analytic lower bound, so
        # the full per-cell retention vector is materialized lazily --
        # usually never (see _retention_lower_bound).
        self._retention_bound = _retention_lower_bound(sweep)
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
        """Exact decayed-cell count; materializes the retention vector
        on first use (callers pre-filter with ``_retention_bound``)."""
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
        return (
            elapsed > 0
            and elapsed > self._retention_bound
            and self._decayed(elapsed) > 0
        )

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
        decayed = 0
        if elapsed > 0 and elapsed > self._retention_bound:
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
        its presorted index array. When ``elapsed <= min_retention`` no
        retention decay can fire, so these indices *are* the complete
        flip set -- the probe engine materializes a session's final
        data from them without touching a full-row vector.
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

    def nbytes(self) -> int:
        """Bytes of the operating-point-specific arrays this object
        owns (the lazily sorted retention slices; the prefix statics
        live on the shared row state and are not counted)."""
        total = 0
        if self._retention_sorted is not None:
            total += self._retention_sorted.nbytes
        for retention in self._pop_retention:
            if retention is not None:
                total += retention.nbytes
        return total


def _fused_group_prefix(
    times: np.ndarray, thermal, margin_pow, scalar, factor: float,
    elapsed: float,
) -> int:
    """Decayed-cell count of one sensitivity group: the exact partition
    point of ``eff(times[k]) < elapsed`` over ascending base times,
    where ``eff`` is the rounded float32/float64 scalar chain
    ``((t * thermal) * margin_pow) * scalar``.

    Two C-speed ``searchsorted`` calls against the *base* times bracket
    the boundary -- the inverse needle ``elapsed / factor`` is exact up
    to a few float32 ulps of forward-chain rounding, and the 1e-5
    relative window dominates that by >10x -- then a binary search
    inside the bracket replays ``eff`` elementwise (numpy scalar ops
    round identically to their vector twins), so the count is
    bit-identical to ``searchsorted`` over the materialized effective
    thresholds without ever materializing them.
    """
    n = times.shape[0]
    if n == 0:
        return 0
    needle = elapsed / factor
    # float32 needles keep searchsorted on the base times' own dtype (a
    # float64 needle would upcast -- i.e. copy -- the whole array per
    # call); the cast moves each bracket by at most one float32 ulp,
    # two orders of magnitude inside the 1e-5 margin.
    lo = int(times.searchsorted(np.float32(needle * (1.0 - 1e-5)), "left"))
    hi = int(times.searchsorted(np.float32(needle * (1.0 + 1e-5)), "right"))
    while lo < hi:
        mid = (lo + hi) // 2
        if ((times[mid] * thermal) * margin_pow) * scalar < elapsed:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _FusedRetentionCounts:
    """Cross-operating-point retention reductions over the sensitivity
    group decomposition -- the probe engine's retention kernel.

    Instead of materializing and sorting a fresh effective-threshold
    vector per (row, pattern, operating point), V_PP, temperature and
    pattern only *reparameterize* the presorted per-group base
    retention times (:meth:`ProbeSweep.retention_groups`):
    each group's effective thresholds are its ascending base times
    multiplied by three positive scalars, so an operating point costs
    just the scalar chain (no per-cell work at all) and every count
    resolves against the shared base-time arrays by needle inversion
    (:func:`_fused_group_prefix`). The boundary correction replays the
    exact float32/float64 operations of the vectorized
    ``retention * thermal * margin**sensitivity * pattern`` chain
    elementwise, so counts, flip sets and histograms are bit-identical
    to :meth:`RetentionSweep.flip_mask`; the engine's differential tests
    against the command path assert exactly that. The kernel owns *no* per-operating-point
    arrays -- fused retention sweeps are weightless under the sweep
    LRU's byte budget, so V_PP ladders keep every row resident.
    """

    def __init__(self, sweep: ProbeSweep):
        bank = sweep._bank
        env = bank._env
        model = bank._cal.retention
        margin = np.float32(model.margin_factor(env.vpp))
        thermal = np.float32(model.temperature_factor(env.temperature))
        scalar = bank._cached(
            sweep.state, sweep.physical, "retention_pattern_factors"
        )[sweep.pattern_index]
        groups = sweep.retention_groups()
        self._indices = tuple(indices for _, indices, _ in groups)
        self._times = tuple(times for _, _, times in groups)
        # Word numbers of the group cells, for the histogram reduction:
        # shifted once per (row, pattern) and shared through the row
        # state's cache exactly like the group decomposition itself.
        words_key = ("_ret_words", sweep.pattern)
        words = sweep.state.cache.get(words_key)
        if words is None:
            words = tuple(indices >> 6 for indices in self._indices)
            sweep.state.cache[words_key] = words
        self._words = words
        powers = tuple(np.power(margin, value) for value, _, _ in groups)
        self._scalars = tuple(
            (thermal, margin_pow, scalar) for margin_pow in powers
        )
        self._factors = tuple(
            float(thermal) * float(margin_pow) * float(scalar)
            for margin_pow in powers
        )
        # An Alg. 3 ladder re-asks the same elapsed times many times
        # over (every iteration of a worst-probe shares one elapsed;
        # the histogram and session close re-use the winner), so the
        # resolved per-group prefixes are memoized per elapsed.
        self._memo: Dict[float, tuple] = {}

    def _resolve(self, elapsed: float) -> tuple:
        cached = self._memo.get(elapsed)
        if cached is None:
            prefixes = tuple(
                _fused_group_prefix(times, *scalars, factor, elapsed)
                for times, scalars, factor in zip(
                    self._times, self._scalars, self._factors
                )
            )
            cached = (sum(prefixes), prefixes)
            self._memo[elapsed] = cached
        return cached

    def count(self, elapsed: float) -> int:
        if elapsed <= 0:
            return 0
        return self._resolve(elapsed)[0]

    def count_many(self, elapsed_values: Sequence[float]) -> List[int]:
        """Per-value :meth:`count` for a fused probe ladder.

        Alg. 3 ladders ask one elapsed time per iteration and the
        iterations of a window share it, so consecutive repeats resolve
        once."""
        counts: List[int] = []
        last_elapsed = None
        last_count = 0
        for elapsed in elapsed_values:
            if elapsed != last_elapsed:
                last_elapsed = elapsed
                last_count = self.count(elapsed)
            counts.append(last_count)
        return counts

    def flip_indices(self, elapsed: float) -> np.ndarray:
        """The decayed cells' indices (``flip_mask``'s nonzero set, in
        group order rather than index order -- every consumer treats the
        result as a set)."""
        if elapsed <= 0:
            return _EMPTY_INDICES
        parts = []
        for indices, prefix in zip(self._indices, self._resolve(elapsed)[1]):
            if prefix == indices.size:
                parts.append(indices)
            elif prefix:
                parts.append(indices[:prefix])
        if not parts:
            return _EMPTY_INDICES
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def word_histogram(self, elapsed: float) -> "Dict[int, int]":
        """``{flips-per-64-bit-word: word count}`` over affected words,
        identical to binning ``flip_mask`` -- the Alg. 3 record's
        word-granular histogram."""
        if elapsed <= 0:
            return {}
        prefixes = self._resolve(elapsed)[1]
        parts = [
            words if prefix == words.size else words[:prefix]
            for words, prefix in zip(self._words, prefixes)
            if prefix
        ]
        if not parts:
            return {}
        flipped_words = parts[0] if len(parts) == 1 else np.concatenate(parts)
        per_word = np.bincount(flipped_words)
        histogram = np.bincount(per_word[per_word > 0])
        return {
            int(v): int(c)
            for v, c in enumerate(histogram)
            if v and c
        }

    def nbytes(self) -> int:
        """Always 0: needle inversion resolves counts against the
        state-cached base-time arrays, so the kernel owns no
        per-operating-point arrays at all."""
        return 0


class _FusedHammerCounts:
    """Hammer-probe reductions with *deferred* sort statics.

    :class:`_HammerCounts` pays an eager per-(row, pattern) charged-
    population sort the first time a pattern is probed -- dominant in
    WCDP phases, where most (row, pattern) pairs answer a handful of
    probes and never amortize it. This kernel answers

    * ``any_flip`` from two cached population minima (no vectors),
    * retention decay from the shared group decomposition
      (:class:`_FusedRetentionCounts` -- no per-point sort), and
    * exact ``count``/``flip_populations`` from a one-shot vector
      evaluation until a (row, pattern) pair has asked for
      :data:`STATIC_BUILD_THRESHOLD` of them, at which point it builds
      the same prefix statics as :class:`_HammerCounts` (shared cache
      key) and switches to scalar binary searches.

    Every path replays the scalar/broadcast expressions of
    :meth:`HammerSweep.flip_mask` exactly, so results stay bit-identical
    to the command path.
    """

    #: Exact-count/flip-set calls per (row, pattern) -- accumulated
    #: across operating points -- after which the prefix statics are
    #: built. Below it, one-shot vector evaluations are cheaper than the
    #: sort; a WCDP tie-break session (one BER probe plus its close)
    #: stays one-shot, while a grid bisection crosses the threshold on
    #: its first operating point and amortizes the sort over the rest.
    STATIC_BUILD_THRESHOLD = 3

    def __init__(self, sweep: HammerSweep):
        bank = sweep._bank
        state = sweep.state
        self._sweep = sweep
        self._bank = bank
        self._cells = bank._cells
        self._physical = sweep.physical
        self._hammer_pattern = bank._cached(
            state, sweep.physical, "pattern_factors"
        )[sweep.pattern_index]
        # Population minima: enough to answer any_flip exactly (the
        # prefix kernel compares tol64[0] * factor <= damage; float() of
        # the float32 minimum is the same float64 value).
        minima_key = ("_hammer_minima", sweep.pattern)
        minima = state.cache.get(minima_key)
        if minima is None:
            static = state.cache.get(("_hammer_static", sweep.pattern))
            if static is not None:
                minima = tuple(
                    float(tol64[0]) if tol64.shape[0] else math.inf
                    for _, tol64 in static
                )
            else:
                tolerance = bank._cached(
                    state, sweep.physical, "cell_tolerances"
                )
                charged = sweep.charged
                outlier = sweep._outlier_mask
                values = []
                for mask in (charged & ~outlier, charged & outlier):
                    values.append(
                        float(tolerance[mask].min())
                        if mask.any() else math.inf
                    )
                minima = tuple(values)
            state.cache[minima_key] = minima
        self._min_bulk, self._min_outlier = minima
        self._retention_bound = _retention_lower_bound(sweep)
        self._retention = None
        self._static = None

    def _factor(self, session: int):
        jitter = self._cells.measurement_jitter(self._physical, session)
        return self._hammer_pattern * jitter

    def _retention_counts(self) -> _FusedRetentionCounts:
        if self._retention is None:
            self._retention = _FusedRetentionCounts(self._sweep)
        return self._retention

    def any_decay(self, elapsed: float) -> bool:
        """True when the probe's wait decays at least one charged cell
        (group-counted; no per-operating-point sort)."""
        return (
            elapsed > 0
            and elapsed > self._retention_bound
            and self._retention_counts().count(elapsed) > 0
        )

    def any_flip(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> bool:
        """``flip_mask(...).any()`` from the two population minima."""
        if self.any_decay(elapsed):
            return True
        factor = self._factor(session)
        return (
            self._min_bulk * factor <= damage_bulk
            or self._min_outlier * factor <= damage_outlier
        )

    def _statics(self):
        """The prefix statics, or None while the pair is below the build
        threshold (callers then fall back to a one-shot vector pass).
        Once available they are kept on the kernel, so a bisection's
        exact counts skip the row-state lookup."""
        static = self._static
        if static is not None:
            return static
        state = self._sweep.state
        static = state.cache.get(("_hammer_static", self._sweep.pattern))
        if static is None:
            uses_key = ("_fused_static_uses", self._sweep.pattern)
            uses = state.cache.get(uses_key, 0) + 1
            state.cache[uses_key] = uses
            if uses < self.STATIC_BUILD_THRESHOLD:
                return None
            static = _hammer_static(self._sweep)
        self._static = static
        return static

    def _damage_mask(
        self, damage_bulk: float, damage_outlier: float, factor
    ) -> np.ndarray:
        """``flip_mask``'s damage term, verbatim (one broadcast pass)."""
        sweep = self._sweep
        tolerance = self._bank._cached(
            sweep.state, sweep.physical, "cell_tolerances"
        )
        damage = np.where(
            sweep._outlier_mask, damage_outlier, damage_bulk
        )
        return sweep.charged & (damage >= tolerance * factor)

    def count(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> int:
        """``np.count_nonzero(flip_mask(...))``, statics-free until the
        build threshold."""
        factor = self._factor(session)
        decayed = 0
        if elapsed > 0 and elapsed > self._retention_bound:
            decayed = self._retention_counts().count(elapsed)
        if decayed:
            # Rare: decay during a hammer probe. Evaluate the union
            # exactly by scattering the group flip set over the damage
            # mask -- equivalent to flip_mask's |= accumulation.
            flips = self._damage_mask(damage_bulk, damage_outlier, factor)
            flips[self._retention_counts().flip_indices(elapsed)] = True
            return int(np.count_nonzero(flips))
        static = self._statics()
        if static is not None:
            total = 0
            for (_, tol64), damage in (
                (static[0], damage_bulk), (static[1], damage_outlier)
            ):
                total += _flip_prefix(tol64, factor, damage)
            return total
        return int(np.count_nonzero(
            self._damage_mask(damage_bulk, damage_outlier, factor)
        ))

    def flip_populations(
        self, damage_bulk: float, damage_outlier: float, session: int
    ) -> List[np.ndarray]:
        """Index arrays of the damage-flipped cells (set semantics; see
        :meth:`_HammerCounts.flip_populations`)."""
        factor = self._factor(session)
        static = self._statics()
        if static is not None:
            parts = []
            for (indices, tol64), damage in (
                (static[0], damage_bulk), (static[1], damage_outlier)
            ):
                prefix = _flip_prefix(tol64, factor, damage)
                if prefix:
                    parts.append(indices[:prefix])
            return parts
        mask = self._damage_mask(damage_bulk, damage_outlier, factor)
        if not mask.any():
            return []
        return [np.flatnonzero(mask)]

    def nbytes(self) -> int:
        """Bytes of the owned per-operating-point arrays."""
        return 0 if self._retention is None else self._retention.nbytes()
