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

import functools
import math
import weakref
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

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

#: Row-state cache key of the per-row tolerance layout: the bulk and
#: the outlier population, each a :class:`_Population` in ascending-
#: tolerance order with float64 tolerances (see
#: :meth:`Bank.preheat_tolerance_orders`). The sparse outlier population
#: is complete; the bulk population is a *head* -- its cells among the
#: row's :data:`_TOL_HEAD_DIVISOR`-th part of smallest tolerances --
#: extended to the whole row on the first prefix that reaches its end
#: (:meth:`Bank.extended_tolerance_layout`). Every data pattern's hammer
#: counts are answered from it.
_TOL_LAYOUT_KEY = "_tol_layout"

#: Row-state cache key of the per-row retention layout: the cells split
#: by V_PP-sensitivity exponent, each group as ``(sensitivity,``
#: :class:`_Population` ``)`` in ascending-retention order with float32
#: times (see :meth:`Bank.preheat_retention_orders`). The sparse weak
#: groups are complete; the bulk group (exponent 1) is a head over the
#: row's :data:`_RET_HEAD_DIVISOR`-th part of shortest times, extended
#: like the tolerance head (:meth:`Bank.extended_retention_layout`).
#: Every operating point and data pattern re-slices this one layout
#: instead of re-sorting.
_RET_LAYOUT_KEY = "_ret_layout"

#: A bulk head holds the cells among the ``row_bits // divisor``
#: smallest values of its row. Probes read only a row's weakest cells:
#: a RowHammer flip set stays far below 1/32 of a row, and a retention
#: flip set (the 16 s window at V_PPmin) below 1/5, so the heads answer
#: every probe of a study and a lazy extension is the rare slow path
#: (``repro_layout_extensions_total``). On short rows a fixed part is
#: too few cells (1/32 of a 2048-bit row is 64, which some RowHammer
#: flip sets of a tiny-scale study exceed), so no head holds fewer than
#: :data:`_MIN_HEAD_CELLS` cells.
_TOL_HEAD_DIVISOR = 32
_RET_HEAD_DIVISOR = 5
_MIN_HEAD_CELLS = 256

#: Counter of lazy head-to-full layout extensions, by layout.
LAYOUT_EXTENSIONS_METRIC = "repro_layout_extensions_total"

#: Rows per block of a layout pass. A pass holds only one block's
#: per-cell vectors and stacked partition at a time, so its transient
#: memory is bounded by ``_LAYOUT_BLOCK_ROWS * row_bits`` cells whatever
#: the size of the row set.
_LAYOUT_BLOCK_ROWS = 16

#: Row-state cache keys of the per-residue tables (one O(n) pass, no
#: sort): the bulk and outlier tolerance minima per residue, the
#: retention minima per (sensitivity group, residue) and the largest
#: activation-latency factor per residue.
_TOL_RESIDUES_KEY = "_tol_residues"
_RET_RESIDUES_KEY = "_ret_residues"
_TRCD_RESIDUES_KEY = "_trcd_residues"

#: The residues each charged byte selects. A cell's residue bit is
#: ``1 << (index % 8)``; fill-byte patterns are 8-periodic, so a pattern
#: charges exactly the cells whose residue bit is set in the row's
#: *charged byte* (the fill byte on a true row, its inverse on an anti
#: row): ``bits & charged_byte`` picks a pattern's cells out of a
#: per-row layout.
_SELECTED = tuple(
    tuple(residue for residue in range(8) if byte >> residue & 1)
    for byte in range(256)
)


class _Population(NamedTuple):
    """One presorted cell population of a per-row layout."""

    #: Cell indices in ascending-value order (int32).
    indices: np.ndarray
    #: The cells' values, ascending.
    values: np.ndarray
    #: Residue bit ``1 << (index % 8)`` per cell (uint8; see _SELECTED).
    bits: np.ndarray
    #: False for a head: the population's other cells lie past its end.
    complete: bool


def _population(indices: np.ndarray, values: np.ndarray, complete):
    """A :class:`_Population` of presorted cells (the uint8 cast keeps an
    index's low bits)."""
    residues = indices.astype(np.uint8) & 7
    return _Population(
        indices.astype(np.int32), values, np.uint8(1) << residues,
        bool(complete),
    )


def _exhausted(population: _Population, prefix: int) -> bool:
    """Whether a prefix search ran off the end of a head: the cells past
    it may satisfy the predicate too. A shorter prefix is exact -- the
    head holds its population's smallest values, so every cell outside
    it fails a monotone predicate that the head's next cell fails."""
    return prefix == population.values.shape[0] and not population.complete


def _sorted_heads(stacked: np.ndarray, bound: int) -> tuple:
    """``(orders, values)``: per row of ``stacked``, the cells of its
    ``bound`` smallest values in ascending order (all of them when
    ``bound`` covers the row). One stacked partition, then a sort of
    just the heads."""
    if bound >= stacked.shape[1]:
        orders = np.argsort(stacked, axis=1)
        return orders, np.take_along_axis(stacked, orders, axis=1)
    orders = np.argpartition(stacked, bound - 1, axis=1)[:, :bound]
    heads = np.take_along_axis(stacked, orders, axis=1)
    sorter = np.argsort(heads, axis=1)
    return (
        np.take_along_axis(orders, sorter, axis=1),
        np.take_along_axis(heads, sorter, axis=1),
    )


def _sorted_members(values: np.ndarray, members: np.ndarray, dtype):
    """A sparse population, complete: ``members`` sorted by value."""
    members = members[np.argsort(values[members])]
    return _population(members, values[members].astype(dtype), True)


def _count_extension(layout: str) -> None:
    from repro.obs.metrics import REGISTRY  # local: keep obs optional

    REGISTRY.counter(
        LAYOUT_EXTENSIONS_METRIC,
        "per-row layout heads extended to a full sort because a probe's "
        "prefix reached the head's end, by layout",
        labels=("layout",),
    ).labels(layout=layout).inc()


#: The per-cell vector families, each generated by one RNG replay:
#: family -> (generator accessor, the fields it returns in order).
_FAMILIES = {
    "tolerance": (
        "tolerance_structure_pair", ("cell_tolerances", "cell_outlier_mask"),
    ),
    "retention": ("retention_structure_pair", (
        "cell_retention_times", "cell_retention_vpp_sensitivity",
    )),
    "trcd": ("cell_trcd_factors", ("cell_trcd_factors",)),
}
_FIELD_FAMILIES = {
    name: family for family, (_, names) in _FAMILIES.items() for name in names
}


def _sensitivity_groups(sensitivity: np.ndarray) -> list:
    """``(exponent, member cells)`` per V_PP-sensitivity group. Within a
    group the effective retention threshold is the base time times
    positive scalars, so it stays ordered with the base time at every
    operating point. Weak-tier cells are sparse: only they are grouped
    by value; the rest form the bulk group (exponent 1), as a slice
    when it is the whole row."""
    weak = np.flatnonzero(sensitivity != 1)
    groups = []
    if weak.size < sensitivity.size:
        bulk = slice(None)
        if weak.size:
            bulk = np.ones(sensitivity.size, dtype=bool)
            bulk[weak] = False
        groups.append((np.float32(1.0), bulk))
    weak_values = sensitivity[weak]
    # The distinct values, ascending. Not np.unique: it imports
    # numpy.ma, which every freshly forked pool worker would pay for.
    ordered = np.sort(weak_values)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    for value in ordered[first]:
        groups.append((value, weak[weak_values == value]))
    return groups


#: Widest first stage of :func:`_residue_fold`.
_FOLD_WIDTH = 512


def _residue_fold(values: np.ndarray, reduce: np.ufunc) -> tuple:
    """``reduce`` (``np.minimum`` or ``np.maximum``) of ``values`` per
    cell index mod 8, as an 8-tuple of floats. Folds in two stages,
    first over rows of ``gcd(size, 512)`` cells and then over the
    ``(-1, 8)`` view of that: a one-stage ``reshape(-1, 8)`` reduction
    runs numpy's 8-wide inner loop, about 15x slower on a 65536-cell
    row. min and max do not depend on grouping, so the result is the
    same."""
    width = math.gcd(values.size, _FOLD_WIDTH)
    folded = reduce.reduce(values.reshape(-1, width), axis=0)
    return tuple(
        float(value) for value in reduce.reduce(folded.reshape(-1, 8), axis=0)
    )


def _residue_minima(values: np.ndarray, member) -> tuple:
    """Per-residue minimum of ``values`` over the ``member`` cells, as
    an 8-tuple of floats (``inf`` where a residue has none)."""
    if isinstance(member, slice) and member == slice(None):
        return _residue_fold(values, np.minimum)
    grouped = np.full(values.size, np.inf, dtype=values.dtype)
    grouped[member] = values[member]
    return _residue_fold(grouped, np.minimum)


def _tolerance_residue_table(tolerance, outlier) -> tuple:
    """``(bulk, outlier)`` tolerance minima per residue."""
    return tuple(
        _residue_minima(tolerance, member) for member in (~outlier, outlier)
    )


def _retention_residue_table(times, sensitivity) -> tuple:
    """``(sensitivity, minima)`` per sensitivity group: the group's
    shortest base retention time per residue."""
    return tuple(
        (value, _residue_minima(times, member))
        for value, member in _sensitivity_groups(sensitivity)
    )


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
        self._pattern_views: Dict[tuple, tuple] = {}
        self._retention_scalars = None
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
        """The bank's deterministic per-cell parameter factory: every
        per-cell vector of the bank is an RNG replay of it."""
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
                last_restore_time=self._env.now,
                vpp_at_restore=self._env.vpp,
            )
            # Most rows are written before anything reads them (every
            # probe starts with WRITE_ROW): their power-up content is
            # built only if read.
            state.defer_data(
                functools.partial(self._cells.powerup_bits, physical_row)
            )
            self._rows[physical_row] = state
        return state

    def _cached(self, state: RowState, physical_row: int, fieldname: str) -> np.ndarray:
        """One per-cell field of the row, cached in its row state on
        first use (every field of the field's family with it: they come
        from one RNG replay). The command path and the full-vector
        checks read vectors here."""
        cache = state.cache
        vector = cache.get(fieldname)
        if vector is None:
            family = _FIELD_FAMILIES.get(fieldname)
            if family is None:
                vector = getattr(self._cells, fieldname)(physical_row)
                cache[fieldname] = vector
            else:
                _, names = _FAMILIES[family]
                vectors = self._vectors(state, physical_row, family)
                for name, value in zip(names, vectors):
                    cache.setdefault(name, value)
                vector = cache[fieldname]
        return vector

    def _vectors(self, state: RowState, physical_row: int, family: str):
        """The row's per-cell vectors of one family (see ``_FAMILIES``),
        *not* cached: the row cache's own where :meth:`_cached` holds
        them, else a fresh RNG replay of the generator. The builders of
        the per-row layouts
        and residue tables read vectors here, so a row keeps those
        structures and never the vectors they came from."""
        accessor, names = _FAMILIES[family]
        cache = state.cache
        if names[0] in cache:
            return tuple(cache[name] for name in names)
        vectors = getattr(self._cells, accessor)(physical_row)
        return vectors if len(names) > 1 else (vectors,)

    def _vector_blocks(self, physicals, states, family: str):
        """``(states, vectors)`` per block of ``_LAYOUT_BLOCK_ROWS``
        rows: a layout pass holds one block's vectors at a time."""
        for start in range(0, len(states), _LAYOUT_BLOCK_ROWS):
            block = slice(start, start + _LAYOUT_BLOCK_ROWS)
            yield states[block], [
                self._vectors(state, physical, family)
                for physical, state in zip(physicals[block], states[block])
            ]

    def retention_scalars(self) -> tuple:
        """``(margin, thermal)`` retention factors at the current V_PP
        and temperature, memoized for the last operating point (every
        kernel of a row set asks at the same one)."""
        env = self._env
        key = (env.vpp, env.temperature)
        cached = self._retention_scalars
        if cached is None or cached[0] != key:
            model = self._cal.retention
            cached = self._retention_scalars = (
                key,
                model.margin_factor(env.vpp),
                model.temperature_factor(env.temperature),
            )
        return cached[1:]

    # -- per-row layouts and residue tables ----------------------------------------
    #
    # Every structure below is built once per row and serves all data
    # patterns: a pattern is a charged byte selecting residues (see
    # _SELECTED), never an array of its own.

    def pattern_view(self, physical_row: int, pattern: DataPattern) -> tuple:
        """``(bits, pattern slot, charged mask, charged byte)`` of
        ``pattern`` written to ``physical_row``. Pure functions of the
        pattern and the row's polarity, so the twelve variants are
        shared bank-wide as read-only arrays (writers copy first)."""
        anti = self._cells.is_anti_row(physical_row)
        key = (pattern, anti)
        view = self._pattern_views.get(key)
        if view is None:
            bits = pattern.row_bits(self._geometry.row_bits)
            classified = classify_row_bits(bits)
            charged = self._charged_mask(physical_row, bits)
            charged_byte = sum(
                int(charged[residue]) << residue for residue in range(8)
            )
            for array in (bits, charged):
                array.setflags(write=False)
            view = (
                bits,
                classified.index if classified is not None
                else OTHER_PATTERN_INDEX,
                charged,
                charged_byte,
            )
            self._pattern_views[key] = view
        return view

    def tolerance_layout(self, state: RowState, physical_row: int) -> tuple:
        """The row's ascending-tolerance layout (``_TOL_LAYOUT_KEY``),
        laid out on first use unless preheated."""
        if _TOL_LAYOUT_KEY not in state.cache:
            self._lay_out_tolerances([physical_row], [state])
        return state.cache[_TOL_LAYOUT_KEY]

    def retention_layout(self, state: RowState, physical_row: int) -> tuple:
        """The row's ascending-retention layout by sensitivity group
        (``_RET_LAYOUT_KEY``), laid out on first use unless preheated."""
        if _RET_LAYOUT_KEY not in state.cache:
            self._lay_out_retention([physical_row], [state])
        return state.cache[_RET_LAYOUT_KEY]

    def extended_tolerance_layout(
        self, state: RowState, physical_row: int
    ) -> tuple:
        """The row's tolerance layout with its bulk head extended to the
        whole row (the full sort; a no-op once extended). Consumers call
        this when a prefix reaches the end of the head."""
        if not state.cache[_TOL_LAYOUT_KEY][0].complete:
            # Rare, and the row is probed deep: keep its vectors.
            self._cached(state, physical_row, "cell_tolerances")
            self._lay_out_tolerances(
                [physical_row], [state], self._geometry.row_bits
            )
            _count_extension("tolerance")
        return state.cache[_TOL_LAYOUT_KEY]

    def extended_retention_layout(
        self, state: RowState, physical_row: int
    ) -> tuple:
        """The row's retention layout with its bulk group extended to the
        whole row (see :meth:`extended_tolerance_layout`)."""
        layout = state.cache[_RET_LAYOUT_KEY]
        if not all(population.complete for _, population in layout):
            self._cached(state, physical_row, "cell_retention_times")
            self._lay_out_retention(
                [physical_row], [state], self._geometry.row_bits
            )
            _count_extension("retention")
        return state.cache[_RET_LAYOUT_KEY]

    def tolerance_residues(self, state: RowState, physical_row: int) -> tuple:
        """``(bulk, outlier)`` tolerance minima per residue, as two
        8-tuples of floats (``inf`` where a residue has no such cell);
        the tolerance layout pass fills it too."""
        table = state.cache.get(_TOL_RESIDUES_KEY)
        if table is None:
            table = state.cache[_TOL_RESIDUES_KEY] = _tolerance_residue_table(
                *self._vectors(state, physical_row, "tolerance")
            )
        return table

    def trcd_residues(self, state: RowState, physical_row: int) -> tuple:
        """The largest activation-latency cell factor per residue, as an
        8-tuple of floats."""
        table = state.cache.get(_TRCD_RESIDUES_KEY)
        if table is None:
            factors, = self._vectors(state, physical_row, "trcd")
            table = state.cache[_TRCD_RESIDUES_KEY] = _residue_fold(
                factors, np.maximum
            )
        return table

    def retention_residues(self, state: RowState, physical_row: int) -> tuple:
        """``(sensitivity, minima)`` per sensitivity group: the group's
        shortest base retention time per residue, as an 8-tuple of
        floats (``inf`` where empty). No sort, so hammer-only studies
        never order retention times; the retention layout pass fills it
        too."""
        table = state.cache.get(_RET_RESIDUES_KEY)
        if table is None:
            table = state.cache[_RET_RESIDUES_KEY] = _retention_residue_table(
                *self._vectors(state, physical_row, "retention")
            )
        return table

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
            self._store_flip_guard(state, np.inf, np.inf, np.inf)
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

        def _min_over(mask: np.ndarray, values: np.ndarray) -> float:
            return float(values[mask].min()) if mask.any() else np.inf

        self._store_flip_guard(
            state,
            _min_over(charged & ~outlier_mask, effective_tolerance),
            _min_over(charged & outlier_mask, effective_tolerance),
            _min_over(charged, effective_retention),
        )

    def _store_flip_guard(
        self,
        state: RowState,
        min_bulk: float,
        min_outlier: float,
        min_retention: float,
    ) -> None:
        """Record the flip guard from the cells that can still flip: the
        smallest effective tolerance per population and the shortest
        effective retention (``inf`` where no such cell is charged).

        The guard outlives the restore session, so its thresholds carry
        a conservative margin covering the per-session measurement
        jitter (sigma ~2%; 0.9 is > 4 sigma of headroom): within the
        band the full evaluation re-runs, outside it the skip is always
        safe.
        """
        state.cache["_flip_guard"] = {
            "pattern": state.pattern_index,
            "temperature": self._env.temperature,
            "vpp_at_restore": state.vpp_at_restore,
            "min_bulk": 0.9 * min_bulk,
            "min_outlier": 0.9 * min_outlier,
            "min_retention": 0.9 * min_retention,
        }

    def _disturbance_scales(
        self, physical_row: int, state: RowState
    ) -> "tuple[float, float]":
        """Per-row (bulk, outlier) tolerance scales at the current V_PP,
        cached per operating point: every activation consults them, so
        the power evaluations must not repeat. The gamma exponents are a
        pure function of the row, drawn once per row state."""
        key = (physical_row, self._env.vpp, self._env.temperature)
        cached = self._scale_cache.get(key)
        if cached is None:
            model = self._cal.disturbance
            gammas = state.cache.get("_row_gammas")
            if gammas is None:
                gammas = state.cache["_row_gammas"] = self._cells.row_gammas(
                    physical_row
                )
            gamma_bulk, gamma_outlier = gammas
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
                    victim_physical, victim
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

    def _trcd_row_requirement(
        self, physical_row: int, state: RowState, pattern_index: int
    ) -> float:
        """The row's activation requirement at the current V_PP and
        pattern slot ``pattern_index`` before the per-cell factor:
        ``requirement_base * row_factor * pattern_factor``, ``inf``
        below the conduction floor. Every factor is cached, so the
        common case is a few dict hits and two multiplies."""
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
        return requirement_base * row_factor * pattern_factor

    def _trcd_worst_requirement(
        self, physical_row: int, state: RowState, pattern_index: int
    ) -> float:
        """The row's worst-case (slowest-cell) activation requirement at
        the current V_PP and pattern slot ``pattern_index``. ``inf``
        below the conduction floor. Reads the row's tRCD residue table
        (built from its cell factors on first use)."""
        requirement = self._trcd_row_requirement(
            physical_row, state, pattern_index
        )
        if math.isinf(requirement):
            return requirement
        return requirement * max(self.trcd_residues(state, physical_row))

    def _slowest_cell_covered(
        self, physical_row: int, state: RowState, trcd_used: float
    ) -> bool:
        """Whether ``trcd_used`` covers even the slowest cell's
        requirement at the current V_PP and the row's stored pattern
        slot.

        A conservative bound decides first: the row requirement times
        the generator's bound on every cell factor
        (:data:`~repro.dram.cell.TRCD_CELL_FACTOR_BOUND`). Float
        multiplication by a positive number is monotone, so when the
        bound product is covered the exact product is too. The row's
        tRCD factors are read only when the bound does not clear (a row
        near its tRCD limit, or Alg. 2's sweep); on the stock modules
        every probe clears it, at most about 27 ns against the 36 ns
        safe tRCD at A0's V_PPmin.

        Past the bound the row's residue table decides. A check that
        builds the table from a fresh generation and still fails keeps
        the vector too, for the per-cell check that follows
        (:meth:`_activation_corruption`); one that clears keeps only the
        table."""
        requirement = self._trcd_row_requirement(
            physical_row, state, state.pattern_index
        )
        bound = self._cells.trcd_cell_factor_bound
        if bound and requirement * bound <= trcd_used:
            return True
        if math.isinf(requirement):
            return False
        factors = None
        if _TRCD_RESIDUES_KEY not in state.cache:
            factors, = self._vectors(state, physical_row, "trcd")
            state.cache[_TRCD_RESIDUES_KEY] = _residue_fold(
                factors, np.maximum
            )
        if requirement * max(state.cache[_TRCD_RESIDUES_KEY]) <= trcd_used:
            return True
        if factors is not None:
            state.cache["cell_trcd_factors"] = factors
        return False

    def _activation_corruption(
        self, physical_row: int, state: RowState, trcd_used: float
    ) -> Optional[np.ndarray]:
        """Cells mis-sensed because ``trcd_used`` undercuts their
        requirement at the current V_PP (Alg. 2's failure mode).

        Hot path: the scalar factors are cached per V_PP and per row, so
        the common case (ample tRCD) costs a few lookups and a compare
        against the bounded slowest-cell requirement. Past the bound
        this is a full-vector reader, like the rest of the command path:
        the row's tRCD factors are generated once and cached, and its
        residue table is built from them.
        """
        requirement = self._trcd_row_requirement(
            physical_row, state, state.pattern_index
        )
        bound = self._cells.trcd_cell_factor_bound
        if bound and requirement * bound <= trcd_used:
            return None  # even the slowest cell is covered
        if math.isinf(requirement):
            # Below the conduction floor nothing senses correctly.
            return self._charged_mask(physical_row, state.data)
        self._cached(state, physical_row, "cell_trcd_factors")
        if self._trcd_worst_requirement(
            physical_row, state, state.pattern_index
        ) <= trcd_used:
            return None
        requirement = self._trcd_requirements(
            physical_row, state, state.pattern_index
        )
        corrupt = (requirement > trcd_used) & self._charged_mask(
            physical_row, state.data
        )
        return corrupt if corrupt.any() else None

    def _trcd_requirements(
        self, physical_row: int, state: RowState, pattern_index: int,
        cell_factors=None,
    ) -> np.ndarray:
        """Per-cell activation requirements at the current V_PP and
        pattern slot (finite part only: call after
        :meth:`_trcd_worst_requirement`, which warms the scalar
        factors). ``cell_factors`` defaults to the row's whole vector."""
        requirement_base = state.cache[("_trcd_base", self._env.vpp)]
        row_factor = state.cache["_trcd_row_factor"]
        pattern_factor = self._cached(state, physical_row, "trcd_pattern_factors")[
            pattern_index
        ]
        if cell_factors is None:
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
        """Warm the per-row tolerance layouts and residue tables for a
        whole row set.

        The probe engine's exact hammer counts walk each row's weakest
        cells in ascending-tolerance order (:class:`_FusedHammerCounts`).
        The order is a pure per-row property, so the row set computes
        its heads one stacked ``(block, cells)`` partition per block of
        ``_LAYOUT_BLOCK_ROWS`` rows instead of one per row; the per-row
        results are identical. The per-cell vectors are transient.
        Returns the number of rows actually warmed (rows already laid
        out are skipped).
        """
        physicals, states = self._cold_rows(logical_rows, _TOL_LAYOUT_KEY)
        if physicals:
            self._lay_out_tolerances(physicals, states)
        return len(physicals)

    def preheat_retention_orders(self, logical_rows: Sequence[int]) -> int:
        """Warm the per-row retention layouts for a whole row set.

        The probe engine's retention counts walk each row's cells in
        ascending-retention order (see :class:`_FusedRetentionCounts`):
        V_PP, temperature and data pattern only reparameterize monotone
        scalar factors on the presorted per-cell retention times, so
        one layout per row serves *every* operating point and pattern.
        Like :meth:`preheat_tolerance_orders`, the row set computes the
        heads (and residue tables) in blocks of stacked rows. Returns
        the number of rows actually warmed.
        """
        physicals, states = self._cold_rows(logical_rows, _RET_LAYOUT_KEY)
        if physicals:
            self._lay_out_retention(physicals, states)
        return len(physicals)

    def preheat_jitter(self, logical_rows: Sequence[int], probes: int) -> int:
        """Derive the measurement jitter of a double-sided hammer pass
        over ``logical_rows`` (in probe order, at most ``probes`` probes
        per row) in one vectorized derivation
        (:meth:`CellParameterGenerator.preheat_jitter`).

        A probe reads its victim's jitter at the session after the
        victim's WRITE_ROW (+2) and leaves the session 3 higher; it also
        writes and hammers the victim's two physical neighbours, +3 on
        each. So a row's reads sit on the stride-3 lattice from its
        session now + 2, at most ``probes`` points deep for its own
        probes plus ``probes`` per physical neighbour probed earlier in
        the pass. Sessions are read without materializing rows. Returns
        the number of newly derived values.
        """
        lattices = []
        earlier = set()
        for logical in logical_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            state = self._rows.get(physical)
            session = 0 if state is None else state.session
            moved = (physical - 1 in earlier) + (physical + 1 in earlier)
            lattices.append((physical, session + 2, probes * (1 + moved)))
            earlier.add(physical)
        return self._cells.preheat_jitter(lattices)

    def _lay_out_tolerances(self, physicals, states, bound=None) -> None:
        """Store each row's tolerance layout: the outlier population
        sorted whole, and the bulk cells among the row's ``bound``
        smallest tolerances (default: the head bound) sorted; and its
        residue table, from the same vectors. Tie order within equal
        tolerances is irrelevant: every prefix cutoff compares values
        only, so tied cells enter or leave a flip set together."""
        cells = self._geometry.row_bits
        if bound is None:
            bound = max(cells // _TOL_HEAD_DIVISOR, _MIN_HEAD_CELLS)
        for block, vectors in self._vector_blocks(
            physicals, states, "tolerance"
        ):
            orders, heads = _sorted_heads(
                np.stack([tolerance for tolerance, _ in vectors]), bound
            )
            for state, (tolerance, outlier), order, head in zip(
                block, vectors, orders, heads
            ):
                outliers = np.flatnonzero(outlier)
                bulk = ~outlier[order]
                members = order[bulk]
                state.cache[_TOL_LAYOUT_KEY] = (
                    _population(
                        members, head[bulk].astype(np.float64),
                        members.size == cells - outliers.size,
                    ),
                    _sorted_members(tolerance, outliers, np.float64),
                )
                if _TOL_RESIDUES_KEY not in state.cache:
                    state.cache[_TOL_RESIDUES_KEY] = _tolerance_residue_table(
                        tolerance, outlier
                    )

    def _lay_out_retention(self, physicals, states, bound=None) -> None:
        """Store each row's retention layout: every weak sensitivity
        group sorted whole, and the bulk group's cells among the row's
        ``bound`` shortest times (default: the head bound) sorted; and
        its residue table, from the same vectors."""
        cells = self._geometry.row_bits
        if bound is None:
            bound = max(cells // _RET_HEAD_DIVISOR, _MIN_HEAD_CELLS)
        for block, vectors in self._vector_blocks(
            physicals, states, "retention"
        ):
            orders, heads = _sorted_heads(
                np.stack([times for times, _ in vectors]), bound
            )
            for state, (times, sensitivity), order, head in zip(
                block, vectors, orders, heads
            ):
                groups = [
                    (value, _sorted_members(times, member, np.float32))
                    for value, member in _sensitivity_groups(sensitivity)
                    if value != 1
                ]
                weak_cells = sum(group.indices.size for _, group in groups)
                if weak_cells < cells:
                    bulk = sensitivity[order] == 1
                    members = order[bulk]
                    groups.insert(0, (np.float32(1.0), _population(
                        members, head[bulk], members.size == cells - weak_cells,
                    )))
                state.cache[_RET_LAYOUT_KEY] = tuple(groups)
                if _RET_RESIDUES_KEY not in state.cache:
                    state.cache[_RET_RESIDUES_KEY] = _retention_residue_table(
                        times, sensitivity
                    )

    def _cold_rows(self, logical_rows: Sequence[int], key: str):
        """``(physical rows, states)`` of the rows lacking ``key``."""
        physicals: List[int] = []
        states: List[RowState] = []
        for logical in logical_rows:
            self._check_row(logical)
            physical = self._mapping.to_physical(logical)
            state = self._state(physical)
            if key not in state.cache:
                physicals.append(physical)
                states.append(state)
        return physicals, states

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
        return self._slowest_cell_covered(physical, self._state(physical), trcd)

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

    Holds the victim's pattern bits and charged-cell mask, and -- cached
    per (V_PP, temperature) operating point -- its counts kernel, so
    repeated probes of the same row skip the per-probe parameter
    rederivation of the command path. The flip evaluation reuses the
    Bank's own threshold expressions, which is what keeps the sweep
    bit-identical to :meth:`Bank._persist_pending_flips`.
    """

    def __init__(self, bank: Bank, victim_row: int, pattern: DataPattern):
        bank._check_row(victim_row)
        self._bank = bank
        self.row = victim_row
        self.pattern = pattern
        self.physical = bank._mapping.to_physical(victim_row)
        self.state = bank._state(self.physical)
        self.bits, self.pattern_index, self.charged, self.charged_byte = (
            bank.pattern_view(self.physical, pattern)
        )
        self.discharged_value = bank._discharged_value(self.physical)
        self._fused = None
        self._fused_key = None
        #: Operating point at which sensing is known data-independently
        #: clean (see Bank.sensing_certainly_clean); kernel sessions key
        #: their per-session corruption verdict on this.
        self.sensing_clean_at = None

    @property
    def _outlier_mask(self) -> np.ndarray:
        """The row's outlier mask (full-vector readers only; cached in
        the row state on first use)."""
        return self._bank._cached(self.state, self.physical, "cell_outlier_mask")

    def effective_retention_times(self) -> np.ndarray:
        """Per-cell retention thresholds at the current operating point,
        computed on each call: only full-vector readers (a decaying
        hammer close, the tests' oracles) need them, and the sweep keeps
        no per-operating-point vector."""
        return self._bank._effective_retention_times(
            self.physical, self.state, self.pattern_index, self._bank._env.vpp
        )

    def charged_tolerance_minima(self) -> tuple:
        """``(bulk, outlier)``: the charged cells' smallest base
        tolerance per population (``inf`` where none), from the row's
        residue table."""
        selected = _SELECTED[self.charged_byte]
        return tuple(
            min((minima[residue] for residue in selected), default=math.inf)
            for minima in self._bank.tolerance_residues(
                self.state, self.physical
            )
        )

    def min_charged_retention(self) -> float:
        """Shortest effective retention among the pattern's charged
        cells at the current operating point (``inf`` when nothing is
        charged), exactly ``effective_retention_times()[charged].min()``.

        Within a sensitivity group the effective threshold is monotone
        in the base time, so the minimum is among the groups' shortest
        charged base times (the row's residue table); evaluating the
        vector expression of :meth:`Bank._retention_base` on just those
        elements rounds each exactly as the full vector would.
        """
        selected = _SELECTED[self.charged_byte]
        if not selected:
            return math.inf
        bank = self._bank
        margin, thermal = bank.retention_scalars()
        pattern_factor = bank._cached(
            self.state, self.physical, "retention_pattern_factors"
        )[self.pattern_index]
        shortest = math.inf
        for value, minima in bank.retention_residues(self.state, self.physical):
            base = min((minima[residue] for residue in selected), default=math.inf)
            if base < math.inf:
                # Bank._retention_base's expression and dtypes, one element.
                effective = (
                    np.float32(base) * thermal * np.power(margin, value)
                    * pattern_factor
                )
                shortest = min(shortest, float(effective))
        return shortest


class HammerSweep(ProbeSweep):
    """Batched double-sided RowHammer probe evaluation for one victim.

    ``damage_terms`` lets a probe replicate, deposit by deposit, the
    damage the command path accumulates on the victim over one Alg. 1
    probe (one activation per aggressor initialization plus the hammer
    sessions), and ``flip_mask`` evaluates it against the Bank's effective
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
        """``(op_key, base_bulk, base_outlier, terms)``: the victim's
        damage coefficients at the current operating point.

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
                self.physical, self.state
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

    def fused_counts(self) -> "_FusedHammerCounts":
        """Layout-derived hammer reductions at the current operating
        point (the probe engine's kernel; see
        :class:`_FusedHammerCounts`)."""
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
    command path's damage term can never fire; the sweep's kernel
    therefore only resolves the retention thresholds. Skipping the
    jitter draw is exact because the RNG is stateless (keyed by row and
    session).
    """

    def fused_counts(self) -> "_FusedRetentionCounts":
        """Group-decomposed retention reductions at the current
        operating point (the probe engine's kernel: exact flip counts
        for any elapsed time; see :class:`_FusedRetentionCounts`)."""
        env = self._bank._env
        key = (env.vpp, env.temperature)
        if self._fused is None or self._fused_key != key:
            self._fused = _FusedRetentionCounts(
                self._bank, self.state, self.physical, self.pattern_index,
                self.charged_byte,
            )
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
            selected = _SELECTED[self.charged_byte]
            if not math.isinf(worst) and selected:
                # The requirement is monotone in the cell factor, so the
                # largest charged one is the charged residues' largest
                # factor times the scalar chain. Kept as a numpy scalar:
                # it compares against the trial latency with the dtype
                # the vectorized mask uses.
                factors = bank.trcd_residues(self.state, self.physical)
                charged_max = bank._trcd_requirements(
                    self.physical, self.state, self.pattern_index,
                    np.float32(max(factors[residue] for residue in selected)),
                )
            self._requirement = (worst, charged_max)
        worst, charged_max = self._requirement
        if worst <= trcd_used:
            return False
        if math.isinf(worst):
            # Below the conduction floor every charged cell mis-senses.
            return bool(self.charged.any())
        return charged_max is not None and bool(charged_max > trcd_used)

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
                        victim_physical, victim
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
        state.defer_data(self.bits.copy)
        # The read's effective tolerances are tolerance * factor
        # (Bank._effective_tolerances), monotone in the tolerance.
        factor = bank._cached(state, self.physical, "pattern_factors")[
            self.pattern_index
        ] * bank._cells.measurement_jitter(self.physical, self.read_session)
        min_bulk, min_outlier = self.charged_tolerance_minima()
        bank._store_flip_guard(
            state, float(min_bulk * factor), float(min_outlier * factor),
            self.min_charged_retention(),
        )
        self.read_session = None


_EMPTY_INDICES = np.empty(0, dtype=np.int32)


def _flip_prefix(tol64: np.ndarray, factor, damage: float) -> int:
    """Number of leading cells of an ascending-tolerance vector whose
    effective tolerance (``tol * factor``) the damage reaches.

    IEEE-754 multiplication by a positive factor is monotone, so the
    rounded products inherit the vector's ordering and the flip
    predicate ``tol64[k] * factor <= damage`` -- the scalar twin of the
    broadcast ``damage >= tolerance * factor`` in :meth:`HammerSweep.
    flip_mask` (NumPy promotes the float32 tolerances to float64 before
    multiplying, which is exactly what ``tol64`` pre-bakes) -- selects a
    prefix. Two ``searchsorted`` calls around the inverse needle
    ``damage / factor`` bracket its end: cells below the bracket flip
    and cells above it do not (the 1e-9 relative window dominates the
    two float64 roundings by seven orders of magnitude), and a binary
    search replaying the exact predicate resolves the bracket itself,
    which holds only the cells tied at the boundary.
    """
    needle = damage / float(factor)
    low = int(tol64.searchsorted(needle * (1.0 - 1e-9), "right"))
    high = int(tol64.searchsorted(needle * (1.0 + 1e-9), "left"))
    while low < high:
        mid = (low + high) // 2
        if tol64[mid] * factor <= damage:
            low = mid + 1
        else:
            high = mid
    return low


def _charged_in_prefix(bits: np.ndarray, prefix: int, charged_byte: int) -> int:
    """Charged cells among the first ``prefix`` cells of a layout
    population (``bits`` are its residue bits)."""
    if not prefix or not charged_byte:
        return 0
    if charged_byte == 0xFF:
        return prefix
    return int(np.count_nonzero(bits[:prefix] & charged_byte))


def _charged_members(
    population: _Population, prefix: int, charged_byte: int
) -> np.ndarray:
    """Indices of the charged cells among a population's first
    ``prefix`` cells."""
    indices = population.indices[:prefix]
    if charged_byte == 0xFF:
        return indices
    return indices[(population.bits[:prefix] & charged_byte) != 0]


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
    """Cross-operating-point retention reductions over the row's
    retention layout -- the probe engine's retention kernel.

    Instead of materializing and sorting a fresh effective-threshold
    vector per (row, pattern, operating point), V_PP, temperature and
    pattern only *reparameterize* the presorted per-group base
    retention times (:meth:`Bank.retention_layout`): each group's
    effective thresholds are its ascending base times multiplied by
    three positive scalars, so an operating point costs just the scalar
    chain and every decay prefix resolves against the shared base-time
    arrays by needle inversion (:func:`_fused_group_prefix`); the bulk
    group is a head, extended to the whole row by the rare prefix that
    reaches its end. The layout holds cells of every residue, so a
    prefix also covers the cells the pattern leaves uncharged; counts,
    flip sets and histograms keep only the prefix's charged cells
    (``bits & charged_byte``). The boundary
    correction replays the exact float32/float64 operations of the
    vectorized ``retention * thermal * margin**sensitivity * pattern``
    chain elementwise, so all three are bit-identical to the full-vector
    rule ``charged & (effective_retention_times() < elapsed)``; the
    engine's differential tests against the command path assert exactly
    that. The kernel owns *no* per-operating-point arrays: the sweep
    LRU bounds sweeps by count alone.
    """

    def __init__(self, bank: Bank, state: RowState, physical: int,
                 pattern_index: int, charged_byte: int):
        margin, thermal = (np.float32(x) for x in bank.retention_scalars())
        scalar = bank._cached(
            state, physical, "retention_pattern_factors"
        )[pattern_index]
        # Holds neither the sweep (which caches this object) nor the row
        # state (whose deferred data producer may hold this object), so
        # an evicted sweep frees without a cycle collection.
        self._bank = bank
        self._state = weakref.ref(state)
        self._physical = physical
        self._charged_byte = charged_byte
        groups = (
            bank.retention_layout(state, physical)
            if self._charged_byte else ()
        )
        self._groups = tuple(population for _, population in groups)
        powers = tuple(np.power(margin, value) for value, _ in groups)
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
        # resolved per-group prefixes are memoized per elapsed. The
        # iterations' elapsed times differ by float rounding only and
        # almost always decay the same cells, so the charged counts are
        # memoized per prefix set as well.
        self._memo: Dict[float, tuple] = {}
        self._charged_counts: Dict[tuple, int] = {}

    def _prefixes(self, elapsed: float) -> tuple:
        return tuple(
            _fused_group_prefix(population.values, *scalars, factor, elapsed)
            for population, scalars, factor in zip(
                self._groups, self._scalars, self._factors
            )
        )

    def _resolve(self, elapsed: float) -> tuple:
        """``(charged decayed count, per-group layout prefixes)``.

        A prefix that reaches the end of the bulk head extends the row's
        layout and is searched again; shorter prefixes (memoized ones
        included) select the same cells from either layout."""
        cached = self._memo.get(elapsed)
        if cached is None:
            prefixes = self._prefixes(elapsed)
            if any(map(_exhausted, self._groups, prefixes)):
                layout = self._bank.extended_retention_layout(
                    self._state(), self._physical
                )
                self._groups = tuple(population for _, population in layout)
                prefixes = self._prefixes(elapsed)
            count = self._charged_counts.get(prefixes)
            if count is None:
                count = sum(
                    _charged_in_prefix(population.bits, prefix,
                                       self._charged_byte)
                    for population, prefix in zip(self._groups, prefixes)
                )
                self._charged_counts[prefixes] = count
            cached = self._memo[elapsed] = (count, prefixes)
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
        count, prefixes = self._resolve(elapsed)
        if not count:
            return _EMPTY_INDICES
        parts = [
            _charged_members(population, prefix, self._charged_byte)
            for population, prefix in zip(self._groups, prefixes)
            if prefix
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def word_histogram(self, elapsed: float) -> "Dict[int, int]":
        """``{flips-per-64-bit-word: word count}`` over affected words,
        identical to binning ``flip_mask`` -- the Alg. 3 record's
        word-granular histogram."""
        flipped = self.flip_indices(elapsed)
        if not flipped.size:
            return {}
        per_word = np.bincount(flipped >> 6)
        histogram = np.bincount(per_word[per_word > 0])
        return {
            int(v): int(c)
            for v, c in enumerate(histogram)
            if v and c
        }


class _FusedHammerCounts:
    """Hammer-probe reductions over the row's shared tolerance layout
    -- the probe engine's hammer kernel.

    The row's cells sit once in ascending-tolerance order per
    population (:meth:`Bank.tolerance_layout`); a data pattern only
    selects which of them are charged. The flip predicate
    ``tol * factor <= damage`` is monotone over the sorted layout, so a
    probe's damage flips are the charged cells of one layout prefix
    per population:

    * ``any_flip`` compares the charged populations' tolerance minima,
      read off the row's residue table (no layout, no vectors);
    * ``count`` and ``flip_populations`` search the layout
      (:func:`_flip_prefix`), then count or gather only the prefix's
      charged cells; a bulk prefix that reaches the end of the layout's
      head extends the row to the full sort first;
    * retention decay is decided by the exact charged minimum
      (:meth:`ProbeSweep.min_charged_retention`) and, when it fires,
      counted on the retention layout (:class:`_FusedRetentionCounts`).

    Every path replays the scalar/broadcast expressions of
    :meth:`HammerSweep.flip_mask` exactly, so results stay bit-identical
    to the command path.
    """

    def __init__(self, sweep: HammerSweep):
        bank = sweep._bank
        state = sweep.state
        # No reference to the sweep or (strongly) to the row state; see
        # _FusedRetentionCounts.
        self._bank = bank
        self._state = weakref.ref(state)
        self._cells = bank._cells
        self._physical = sweep.physical
        self._pattern_index = sweep.pattern_index
        self._size = sweep.charged.size
        self._hammer_pattern = bank._cached(
            state, sweep.physical, "pattern_factors"
        )[sweep.pattern_index]
        self._charged_byte = sweep.charged_byte
        # Population minima answer any_flip exactly: float() of the
        # float32 minimum is the float64 value flip_mask multiplies, and
        # the product is monotone in the tolerance.
        self._minima = sweep.charged_tolerance_minima()
        self._min_retention = sweep.min_charged_retention()
        self._retention = None
        self._layout = None

    def _factor(self, session: int):
        jitter = self._cells.measurement_jitter(self._physical, session)
        return self._hammer_pattern * jitter

    def _retention_counts(self) -> _FusedRetentionCounts:
        if self._retention is None:
            self._retention = _FusedRetentionCounts(
                self._bank, self._state(), self._physical,
                self._pattern_index, self._charged_byte,
            )
        return self._retention

    def any_decay(self, elapsed: float) -> bool:
        """True when the probe's wait decays at least one charged cell
        (``flip_mask``'s retention term: ``threshold < elapsed``)."""
        return elapsed > 0 and self._min_retention < elapsed

    def any_flip(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> bool:
        """``flip_mask(...).any()`` from the two population minima."""
        if self.any_decay(elapsed):
            return True
        factor = self._factor(session)
        min_bulk, min_outlier = self._minima
        return (
            min_bulk * factor <= damage_bulk
            or min_outlier * factor <= damage_outlier
        )

    def _damage_flips(self, damage_bulk, damage_outlier, factor):
        """``(population, layout prefix)`` per population with charged
        damage flips (``flip_mask``'s damage term). A prefix that
        reaches the end of the bulk head extends the row's layout and
        is searched again."""
        bank = self._bank
        if self._layout is None:
            self._layout = bank.tolerance_layout(
                self._state(), self._physical
            )
        flipped = []
        for index, (minimum, damage) in enumerate(
            zip(self._minima, (damage_bulk, damage_outlier))
        ):
            if minimum * factor <= damage:
                population = self._layout[index]
                prefix = _flip_prefix(population.values, factor, damage)
                if _exhausted(population, prefix):
                    self._layout = bank.extended_tolerance_layout(
                        self._state(), self._physical
                    )
                    population = self._layout[index]
                    prefix = _flip_prefix(population.values, factor, damage)
                flipped.append((population, prefix))
        return flipped

    def count(
        self, damage_bulk: float, damage_outlier: float, session: int,
        elapsed: float,
    ) -> int:
        """``np.count_nonzero(flip_mask(...))``, without the vectors."""
        factor = self._factor(session)
        flipped = self._damage_flips(damage_bulk, damage_outlier, factor)
        if self.any_decay(elapsed):
            # Rare: decay during a hammer probe. Count the union of the
            # damage and decay flip sets (flip_mask's |=) exactly.
            flips = np.zeros(self._size, dtype=bool)
            flips[self._retention_counts().flip_indices(elapsed)] = True
            for part in self._members(flipped):
                flips[part] = True
            return int(np.count_nonzero(flips))
        return sum(
            _charged_in_prefix(population.bits, prefix, self._charged_byte)
            for population, prefix in flipped
        )

    def _members(self, flipped) -> List[np.ndarray]:
        return [
            _charged_members(population, prefix, self._charged_byte)
            for population, prefix in flipped
        ]

    def flip_populations(
        self, damage_bulk: float, damage_outlier: float, session: int
    ) -> List[np.ndarray]:
        """Per-population index arrays of the damage-flipped cells (set
        semantics, any order within a population). Without retention
        decay these indices are the complete flip set."""
        factor = self._factor(session)
        return self._members(
            self._damage_flips(damage_bulk, damage_outlier, factor)
        )
