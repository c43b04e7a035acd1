"""Differential and kernel tests for the fused probe engine.

The fused engine resolves every V_PP operating point of a (row,
pattern) pair from one presorted cross-point layout. These tests pin
its sessions bit-identical to the command engine probe by probe across
a V_PP ladder, check its hammer kernel against the eager prefix-statics
kernel and the full-vector flip mask, assert the explicit
``retention_grid`` kernel agrees with the per-point counts it fuses,
and check the TRR routing, preheat and repeat-run determinism
contracts.
"""

import numpy as np
import pytest

from repro.core.context import TestContext
from repro.core.fused import FusedProbeEngine
from repro.core.probe import CommandProbeEngine
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.patterns import STANDARD_PATTERNS
from repro.softmc.infrastructure import TestInfrastructure

MODULES = ("A0", "B3", "C5")
VPP_LEVELS = (2.5, 2.2)


def _context(name, engine_kind, seed=11, trr_enabled=False):
    infra = TestInfrastructure.for_module(
        name, geometry=StudyScale.tiny().geometry, seed=seed,
        trr_enabled=trr_enabled,
    )
    return TestContext(infra, StudyScale.tiny(), probe_engine=engine_kind)


def _row_data(ctx, row):
    bank = ctx.infra.module.bank(0)
    return bank._rows[bank.mapping.to_physical(row)].data


class TestFusedSessionEquivalence:
    """Probe-by-probe fused-vs-command sessions on fresh benches."""

    @pytest.mark.parametrize("name", MODULES)
    def test_hammer_session_sequence(self, name):
        command_ctx = _context(name, "command")
        fused_ctx = _context(name, "fused")
        pattern = STANDARD_PATTERNS[0]
        counts = (60_000, 120_000, 240_000, 480_000)
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_vpp(vpp)
            with command_ctx.engine.hammer_session(
                command_ctx, 5, pattern
            ) as reference, fused_ctx.engine.hammer_session(
                fused_ctx, 5, pattern
            ) as candidate:
                for count in counts:
                    assert candidate.ber(count) == reference.ber(count)
                    assert candidate.any_flip(count) == reference.any_flip(
                        count
                    )
            assert (
                _row_data(command_ctx, 5) == _row_data(fused_ctx, 5)
            ).all()

    @pytest.mark.parametrize("name", MODULES)
    def test_retention_session_sequence(self, name):
        command_ctx = _context(name, "command")
        fused_ctx = _context(name, "fused")
        pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_vpp(vpp)
                ctx.infra.set_temperature(80.0)
            with command_ctx.engine.retention_session(
                command_ctx, 5, pattern
            ) as reference, fused_ctx.engine.retention_session(
                fused_ctx, 5, pattern
            ) as candidate:
                for trefw in windows:
                    assert candidate.ber(trefw) == reference.ber(trefw)
                    assert candidate.worst_probe(
                        trefw, 2
                    ) == reference.worst_probe(trefw, 2)
            assert (
                _row_data(command_ctx, 5) == _row_data(fused_ctx, 5)
            ).all()

    @pytest.mark.parametrize("name", MODULES)
    def test_one_off_probes_match_command(self, name):
        """The session-routed one-off entry points (``hammer_ber``,
        ``retention_probe``) against the command reference."""
        command_ctx = _context(name, "command")
        fused_ctx = _context(name, "fused")
        hammer_pattern = STANDARD_PATTERNS[0]
        retention_pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_vpp(vpp)
            for count in (60_000, 120_000, 240_000):
                assert fused_ctx.engine.hammer_ber(
                    fused_ctx, 5, hammer_pattern, count
                ) == command_ctx.engine.hammer_ber(
                    command_ctx, 5, hammer_pattern, count
                )
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_temperature(80.0)
            for trefw in windows:
                assert fused_ctx.engine.retention_probe(
                    fused_ctx, 5, retention_pattern, trefw
                ) == command_ctx.engine.retention_probe(
                    command_ctx, 5, retention_pattern, trefw
                )
        assert (_row_data(command_ctx, 5) == _row_data(fused_ctx, 5)).all()


class TestHammerKernels:
    """The deferred-statics hammer kernel against the eager
    prefix-statics kernel and the full-vector flip mask."""

    @pytest.mark.parametrize("name", MODULES)
    def test_counts_match_prefix_kernel_and_flip_mask(self, name):
        ctx = _context(name, "fused")
        bank = ctx.infra.module.bank(0)
        pattern = STANDARD_PATTERNS[0]
        sweep = bank.hammer_sweep(
            5, ctx.adjacency.neighbors(0, 5), pattern
        )
        for vpp in VPP_LEVELS:
            ctx.infra.set_vpp(vpp)
            fused = sweep.fused_counts()
            eager = sweep.threshold_counts()
            # The fused kernel builds its prefix statics on the third
            # exact count: cover the one-shot and the prefix paths.
            for session, count in enumerate((60_000, 240_000, 480_000, 1)):
                damage = sweep.victim_damage(count)
                mask = sweep.flip_mask(*damage, session, 1e-3)
                expected = int(np.count_nonzero(mask))
                assert fused.count(*damage, session, 1e-3) == expected
                assert eager.count(*damage, session, 1e-3) == expected
                assert fused.any_flip(*damage, session, 1e-3) == (
                    expected > 0
                )


class TestRetentionGrid:
    """The explicit (points x cells) cross-operating-point kernel."""

    def test_grid_matches_per_point_fused_counts(self):
        ctx = _context("A0", "fused", seed=7)
        pattern = STANDARD_PATTERNS[2]
        ctx.infra.set_temperature(80.0)
        levels = (2.5, 2.0, 1.6)
        windows = (0.05, 0.5, 4.0, 30.0)
        grid = ctx.engine.retention_grid(ctx, 5, pattern, levels, windows)
        assert grid.shape == (len(levels), len(windows))
        assert grid.dtype == np.int64
        for i, vpp in enumerate(levels):
            ctx.infra.set_vpp(vpp)
            sweep = ctx.engine._sweep(ctx, "retention", 5, pattern)
            counts = sweep.fused_counts()
            for j, window in enumerate(windows):
                assert grid[i, j] == counts.count(window)

    def test_grid_monotone_in_window_and_vpp(self):
        ctx = _context("A0", "fused", seed=7)
        pattern = STANDARD_PATTERNS[2]
        ctx.infra.set_temperature(80.0)
        grid = ctx.engine.retention_grid(
            ctx, 5, pattern, (2.5, 1.6, 1.4), (0.01, 2.0, 60.0, 600.0)
        )
        # More decays at longer windows ...
        assert (np.diff(grid, axis=1) >= 0).all()
        # ... and at lower V_PP (weaker restore), per the paper's Obs. 9.
        assert (np.diff(grid, axis=0) >= 0).all()
        assert grid[-1, -1] > 0

    def test_grid_does_not_disturb_device_state(self):
        ctx = _context("A0", "fused", seed=7)
        pattern = STANDARD_PATTERNS[2]
        ctx.infra.set_temperature(80.0)
        ctx.infra.set_vpp(2.5)
        before = ctx.infra.module.env.vpp
        ctx.engine.retention_grid(
            ctx, 5, pattern, (2.5, 1.6), (0.1, 10.0)
        )
        assert ctx.infra.module.env.vpp == before
        # A subsequent real probe is unaffected by the grid analysis.
        reference_ctx = _context("A0", "fused", seed=7)
        reference_ctx.infra.set_temperature(80.0)
        reference_ctx.infra.set_vpp(2.5)
        assert ctx.engine.retention_ber(
            ctx, 5, pattern, 1.0
        ) == reference_ctx.engine.retention_ber(
            reference_ctx, 5, pattern, 1.0
        )


class TestFusedRouting:
    def test_trr_module_routes_to_command(self):
        ctx = _context("A0", "fused", trr_enabled=True)
        assert isinstance(ctx.engine, CommandProbeEngine)
        assert not isinstance(ctx.engine, FusedProbeEngine)

    def test_trr_module_results_unchanged_by_fused_request(self):
        """On a TRR bench the fused request degrades to the command
        engine, so the defense model sees the true activation stream
        and results match an explicit command-engine bench."""
        fused_ctx = _context("A0", "fused", trr_enabled=True)
        command_ctx = _context("A0", "command", trr_enabled=True)
        pattern = STANDARD_PATTERNS[0]
        for count in (60_000, 240_000):
            assert fused_ctx.engine.hammer_ber(
                fused_ctx, 5, pattern, count
            ) == command_ctx.engine.hammer_ber(
                command_ctx, 5, pattern, count
            )

    def test_preheat_warms_only_what_the_tests_walk(self):
        from repro.dram.bank import _RET_ORDER_KEY, _TOL_ORDER_KEY

        ctx = _context("A0", "fused")
        cache = ctx.infra.module.bank(0)._state(
            ctx.infra.module.bank(0).mapping.to_physical(5)
        ).cache
        assert ctx.engine.preheat(ctx, [5], ("trcd",)) == 0
        assert _TOL_ORDER_KEY not in cache and _RET_ORDER_KEY not in cache
        assert ctx.engine.preheat(ctx, [5], ("rowhammer",)) == 1
        assert _TOL_ORDER_KEY in cache and _RET_ORDER_KEY not in cache
        ctx.engine.preheat(ctx, [5], ("retention",))
        assert _RET_ORDER_KEY in cache

    def test_preheat_warms_both_sort_passes(self):
        ctx = _context("A0", "fused")
        rows = [5, 9, 13]
        warmed = ctx.engine.preheat(ctx, rows)
        assert warmed == len(rows)
        # Second preheat finds everything warm.
        assert ctx.engine.preheat(ctx, rows) == 0
        bank = ctx.infra.module.bank(0)
        from repro.dram.bank import _RET_ORDER_KEY, _TOL_ORDER_KEY

        for row in rows:
            physical = bank.mapping.to_physical(row)
            cache = bank._state(physical).cache
            assert _TOL_ORDER_KEY in cache
            assert _RET_ORDER_KEY in cache


class TestFusedDeterminism:
    def test_repeat_study_runs_identical(self):
        """Two fused studies from one seed agree record-for-record:
        the stateless RNG session lattice replays identically under
        the fused schedule."""

        def run():
            study = CharacterizationStudy(
                scale=StudyScale.tiny(), seed=3, probe_engine="fused"
            )
            return study.run_module(
                "B3", tests=("rowhammer", "retention"),
                vpp_levels=list(VPP_LEVELS),
            )

        first, second = run(), run()
        assert first.rowhammer == second.rowhammer
        assert first.retention == second.retention
