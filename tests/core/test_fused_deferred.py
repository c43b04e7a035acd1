"""Work the fused probe path skips or defers, bit-identically.

* Sensing verdicts come from a bound on the cell tRCD factors; a row's
  factors are generated only when the bound does not clear.
* A row's V_PP coupling exponents (``row_gammas``) are drawn once.
* A row's stored bits are built on first read: power-up content, and
  the victim flips a fused session leaves at close.

Every case is checked against the path that does the work eagerly.
"""

import collections
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from repro.core.context import TestContext
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram import cell as cell_module
from repro.dram.bank import _TRCD_RESIDUES_KEY, HammerSweep
from repro.dram.cell import (
    CELL_VECTOR_GENERATIONS_METRIC,
    TRCD_CELL_FACTOR_BOUND,
    TRCD_CELL_SIGMA,
    ZIGGURAT_Z_MAX,
    CellParameterGenerator,
    RowState,
)
from repro.dram.patterns import STANDARD_PATTERNS
from repro.obs.metrics import REGISTRY
from repro.softmc.infrastructure import TestInfrastructure

MODULES = ("A0", "B3", "C5")

#: numpy's ziggurat base-strip edge (``ziggurat_nor_r``).
NUMPY_ZIGGURAT_R = 3.6541528853610087963519472518


def _trcd_generations():
    return REGISTRY.counter(
        CELL_VECTOR_GENERATIONS_METRIC, labels=("family",)
    ).labels(family="trcd").value


def _context(name, engine_kind, row_bits=None, seed=11, **options):
    scale = StudyScale.tiny()
    if row_bits is not None:
        scale = dataclasses.replace(
            scale,
            geometry=dataclasses.replace(scale.geometry, row_bits=row_bits),
        )
    infra = TestInfrastructure.for_module(
        name, geometry=scale.geometry, seed=seed
    )
    return TestContext(infra, scale, probe_engine=engine_kind, **options)


def _row_state(ctx, row):
    bank = ctx.infra.module.bank(0)
    return bank._rows[bank.mapping.to_physical(row)]


def _device_state(module):
    """The clock, every bank's activation count and every materialized
    row's state (in materialization order), stored bits included."""
    banks = []
    for bank in module.banks:
        rows = [
            (
                physical, state.session, state.damage_bulk,
                state.damage_outlier, state.last_restore_time,
                state.vpp_at_restore, state.pattern_index,
                state.data.tobytes(), state.cache.get("_flip_guard"),
            )
            for physical, state in bank._rows.items()
        ]
        banks.append((bank.total_activations, rows))
    return module.env.now, banks


def _study(scale, name, tests, vpp_levels=None, seed=3, engine="fused"):
    """``(module result, final device state)`` of one study."""
    study = CharacterizationStudy(scale=scale, seed=seed, probe_engine=engine)
    contexts = []
    build = study.build_context

    def capture(module_name):
        ctx = build(module_name)
        contexts.append(ctx)
        return ctx

    study.build_context = capture
    result = study.run_module(name, tests=tests, vpp_levels=vpp_levels)
    return result, _device_state(contexts[0].infra.module)


class TestTrcdCellFactorBound:
    def test_z_max_is_the_ziggurat_tail_bound(self):
        """Layer draws stay below ``r``; the tail returns
        ``r - ln(1 - U) / r`` with ``U <= 1 - 2**-53``."""
        largest_u = 1.0 - 2.0 ** -53
        z_max = NUMPY_ZIGGURAT_R + (
            -math.log1p(-largest_u) / NUMPY_ZIGGURAT_R
        )
        assert z_max == pytest.approx(13.708, abs=1e-3)
        assert ZIGGURAT_Z_MAX >= z_max
        assert TRCD_CELL_FACTOR_BOUND >= math.exp(TRCD_CELL_SIGMA * z_max)

    @pytest.mark.parametrize("row_bits, rows", [
        (2048, 400), (8192, 200), (65536, 40),
    ])
    def test_every_cell_factor_stays_under_the_bound(self, row_bits, rows):
        cells = _context("A0", "fused", row_bits=row_bits).infra.module.bank(
            0
        ).cells
        bound = cells.trcd_cell_factor_bound
        assert 1.2 < bound < 1.24
        largest = max(
            float(cells.cell_trcd_factors(physical).max())
            for physical in range(rows)
        )
        assert 1.0 < largest < bound

    def test_the_bound_skips_the_residue_table(self):
        ctx = _context("A0", "fused", row_bits=65536)
        ctx.infra.set_vpp(1.4)
        bank = ctx.infra.module.bank(0)
        before = _trcd_generations()
        assert bank.sensing_certainly_clean(5, ctx.engine._trcd_q)
        assert bank.sensing_corruption(5, ctx.engine._trcd_q) is None
        assert _trcd_generations() == before
        assert _TRCD_RESIDUES_KEY not in _row_state(ctx, 5).cache

    @staticmethod
    def _worst(row):
        """Row ``row``'s exact worst-case tRCD requirement at 1.4 V, taken
        on a bench of its own."""
        ctx = _context("A0", "fused", row_bits=65536)
        ctx.infra.set_vpp(1.4)
        bank = ctx.infra.module.bank(0)
        state = bank.probe_state(row)
        return bank._trcd_worst_requirement(
            bank.mapping.to_physical(row), state, state.pattern_index
        )

    def test_a_clearing_exact_check_keeps_only_the_residue_table(self):
        worst = self._worst(5)
        ctx = _context("A0", "fused", row_bits=65536)
        ctx.infra.set_vpp(1.4)
        bank = ctx.infra.module.bank(0)
        before = _trcd_generations()
        assert bank.sensing_certainly_clean(5, worst)
        assert _trcd_generations() == before + 1
        cache = _row_state(ctx, 5).cache
        assert _TRCD_RESIDUES_KEY in cache
        assert "cell_trcd_factors" not in cache

    def test_a_failing_exact_check_generates_once(self):
        """The kernel's data-independent check fails, then its per-cell
        check reads the vector that check generated."""
        trcd = 0.995 * self._worst(5)
        reference = _context("A0", "fused", row_bits=65536)
        ctx = _context("A0", "fused", row_bits=65536)
        for bench in (reference, ctx):
            bench.infra.set_vpp(1.4)
        bank = ctx.infra.module.bank(0)
        before = _trcd_generations()
        assert not bank.sensing_certainly_clean(5, trcd)
        corrupt = bank.sensing_corruption(5, trcd)
        assert _trcd_generations() == before + 1
        assert "cell_trcd_factors" in _row_state(ctx, 5).cache
        expected = reference.infra.module.bank(0).sensing_corruption(5, trcd)
        assert corrupt is not None and np.array_equal(corrupt, expected)

    def test_ladder_study_link_check_generates_row_zero_once(
        self, monkeypatch
    ):
        """V_PPmin discovery reads row 0 at every V_PP step through the
        command path. On A0 the reads pass the bound from 2.1 V down
        and mis-sense cells from 1.7 V down; row 0's tRCD factors are
        generated once for all of them, and nothing else generates any.
        Records equal the command engine's, and the final device state
        equals that of a study whose every sensing check reads the
        factors (bound 0)."""
        tiny = StudyScale.tiny()
        scale = dataclasses.replace(
            tiny, rows_per_module=4,
            geometry=dataclasses.replace(tiny.geometry, row_bits=65536),
        )
        tests = ("rowhammer", "retention")
        before = _trcd_generations()
        fused, state = _study(scale, "A0", tests, seed=0)
        assert _trcd_generations() == before + 1
        command, _ = _study(scale, "A0", tests, seed=0, engine="command")
        assert fused.vpp_levels == command.vpp_levels
        assert fused.rowhammer == command.rowhammer
        assert fused.retention == command.retention
        monkeypatch.setattr(cell_module, "TRCD_CELL_FACTOR_BOUND", 0.0)
        exact, exact_state = _study(scale, "A0", tests, seed=0)
        assert exact.rowhammer == fused.rowhammer
        assert exact.retention == fused.retention
        assert exact_state == state


class TestBoundDifferential:
    """With the bound forced to 0 every sensing check reads the row's
    factors; records and the final device state must not change."""

    @pytest.mark.parametrize("name", MODULES)
    def test_bench_studies_identical_without_the_bound(
        self, monkeypatch, name
    ):
        scale = StudyScale.bench()
        tests = ("rowhammer", "retention")
        levels = [2.5, 2.0]
        before = _trcd_generations()
        bounded = _study(scale, name, tests, levels)
        bounded_generations = _trcd_generations() - before
        monkeypatch.setattr(cell_module, "TRCD_CELL_FACTOR_BOUND", 0.0)
        before = _trcd_generations()
        exact = _study(scale, name, tests, levels)
        assert _trcd_generations() - before > bounded_generations
        assert bounded[0].rowhammer == exact[0].rowhammer
        assert bounded[0].retention == exact[0].retention
        assert bounded[1] == exact[1]

    def test_doubled_requirement_identical_without_the_bound(
        self, monkeypatch
    ):
        """TestSensingHazard's offender rows: at V_PPmin the slowest
        cells undercut the safe tRCD, so sessions fall back."""
        original = CellParameterGenerator.trcd_row_factor

        def doubled(self, physical_row):
            return 2.0 * original(self, physical_row)

        results = []
        for bound in (TRCD_CELL_FACTOR_BOUND, 0.0):
            monkeypatch.setattr(cell_module, "TRCD_CELL_FACTOR_BOUND", bound)
            monkeypatch.setattr(
                CellParameterGenerator, "trcd_row_factor", doubled
            )
            results.append(_study(
                StudyScale.tiny(), "A0",
                ("rowhammer", "retention"), [2.5, 1.4],
            ))
        (bounded, bounded_state), (exact, exact_state) = results
        assert bounded.rowhammer == exact.rowhammer
        assert bounded.retention == exact.retention
        assert bounded_state == exact_state


class TestDeferredRowData:
    def test_assigning_data_cancels_the_producer(self):
        calls = []

        def producer():
            calls.append(1)
            return np.ones(8, dtype=np.uint8)

        state = RowState()
        state.defer_data(producer)
        written = np.zeros(8, dtype=np.uint8)
        state.data = written
        assert state.data is written
        assert not calls
        state.defer_data(producer)
        assert (state.data == 1).all() and (state.data == 1).all()
        assert calls == [1]

    def test_untouched_row_data_is_its_powerup_content(self):
        ctx = _context("C5", "fused")
        bank = ctx.infra.module.bank(0)
        state = bank.probe_state(7)
        assert state._producer is not None
        assert np.array_equal(
            state.data, bank.cells.powerup_bits(bank.mapping.to_physical(7))
        )
        assert state._producer is None

    @pytest.mark.parametrize("name", MODULES)
    def test_session_data_deferred_and_equal_to_command(self, name):
        """A fused session leaves the victim's flips pending; built on
        read, they equal the command engine's eagerly written row."""
        command_ctx = _context(name, "command")
        fused_ctx = _context(name, "fused")
        # Checkerboards charge half of every row, true or anti.
        hammer_pattern, retention_pattern = STANDARD_PATTERNS[2:4]
        row_bits = fused_ctx.scale.geometry.row_bits
        for ctx in (command_ctx, fused_ctx):
            ctx.infra.set_vpp(2.2)
            with ctx.engine.hammer_session(ctx, 5, hammer_pattern) as session:
                for count in (120_000, 480_000, 2_000_000):
                    session.ber(count)
        fused = _row_state(fused_ctx, 5)
        assert fused._producer is not None
        assert np.array_equal(fused.data, _row_state(command_ctx, 5).data)
        assert (fused.data != hammer_pattern.row_bits(row_bits)).any()
        for ctx in (command_ctx, fused_ctx):
            ctx.infra.set_temperature(80.0)
            with ctx.engine.retention_session(
                ctx, 9, retention_pattern
            ) as session:
                session.worst_ladder([4.096, 16.384], 2)
        fused = _row_state(fused_ctx, 9)
        assert fused._producer is not None
        assert np.array_equal(fused.data, _row_state(command_ctx, 9).data)
        assert (fused.data != retention_pattern.row_bits(row_bits)).any()

    def test_decay_at_close_stays_eager_and_matches_command(
        self, monkeypatch
    ):
        """A hammer probe long enough for a weak cell to decay closes on
        the full flip mask at the current operating point, eagerly."""
        row = 32
        contexts = {
            kind: _context("A0", kind, row_bits=65536)
            for kind in ("command", "fused")
        }
        masks = []
        flip_mask = HammerSweep.flip_mask

        def spy(sweep, *args):
            masks.append(args)
            return flip_mask(sweep, *args)

        monkeypatch.setattr(HammerSweep, "flip_mask", spy)
        for ctx in contexts.values():
            ctx.infra.set_vpp(1.4)
            ctx.infra.set_temperature(95.0)
            ctx.engine.hammer_ber(ctx, row, STANDARD_PATTERNS[0], 1_000_000)
        assert masks
        assert not contexts["fused"].engine.counters.probe_fallbacks_hammer_sensing
        fused = _row_state(contexts["fused"], row)
        assert fused._producer is None
        command = _row_state(contexts["command"], row)
        assert np.array_equal(fused.data, command.data)
        assert (fused.data != STANDARD_PATTERNS[0].row_bits(65536)).any()


class TestEvictedSweepsFree:
    """A session's deferred producer holds neither its sweep nor the
    row state, so a sweep the LRU evicts is freed by reference counting
    alone, with its row's data still pending (and still equal to the
    command engine's)."""

    @pytest.mark.parametrize("kind", ["hammer", "retention"])
    def test_evicted_sweep_dies_without_a_collection(self, kind):
        command_ctx = _context("B3", "command")
        fused_ctx = _context("B3", "fused", sweep_cache=1)
        pattern = STANDARD_PATTERNS[2]
        rows = (5, 9)
        for ctx in (command_ctx, fused_ctx):
            ctx.infra.set_vpp(2.2)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            swept = []
            for ctx in (command_ctx, fused_ctx):
                for row in rows:
                    if kind == "hammer":
                        with ctx.engine.hammer_session(
                            ctx, row, pattern
                        ) as session:
                            session.ber(2_000_000)
                    else:
                        ctx.infra.set_temperature(80.0)
                        with ctx.engine.retention_session(
                            ctx, row, pattern
                        ) as session:
                            session.worst_ladder([4.096, 16.384], 2)
                    if ctx is fused_ctx and not swept:
                        (sweep,) = ctx.engine._sweeps.values()
                        swept.append(weakref.ref(sweep))
                        del sweep
            assert fused_ctx.engine.counters.sweep_evictions == 1
            assert swept[0]() is None
        finally:
            if gc_was_enabled:
                gc.enable()
        first = _row_state(fused_ctx, rows[0])
        assert first._producer is not None
        assert np.array_equal(first.data, _row_state(command_ctx, rows[0]).data)


class TestRowGammas:
    def test_drawn_once_per_row_per_study(self, monkeypatch):
        calls = collections.Counter()
        original = CellParameterGenerator.row_gammas

        def counted(self, physical_row):
            calls[(id(self), physical_row)] += 1
            return original(self, physical_row)

        monkeypatch.setattr(CellParameterGenerator, "row_gammas", counted)
        CharacterizationStudy(scale=StudyScale.tiny(), seed=3).run_module(
            "A0", tests=("rowhammer", "retention"), vpp_levels=[2.5, 2.2, 1.9]
        )
        assert calls
        assert set(calls.values()) == {1}
