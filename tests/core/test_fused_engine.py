"""Differential and kernel tests for the fused probe engine.

The fused engine resolves every V_PP operating point and data pattern
of a row from one presorted layout per row. These tests pin its
sessions bit-identical to the command engine probe by probe across a
V_PP ladder, check its kernels against the eager masked reference
kernel and the full-vector flip masks (at the paper's 65536-bit rows
too), and check the TRR routing, preheat, row-state cache, jitter-cache
and repeat-run determinism contracts.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.context import TestContext
from repro.core.fused import FusedProbeEngine
from repro.core.probe import CommandProbeEngine
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.bank import TrcdSweep
from repro.dram.patterns import STANDARD_PATTERNS, DataPattern
from repro.softmc.infrastructure import TestInfrastructure

MODULES = ("A0", "B3", "C5")
VPP_LEVELS = (2.5, 2.2)
#: The paper's row size (8 KiB), where float32 tolerance ties occur.
PAPER_ROW_BITS = 65536


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
    """The layout-derived hammer and retention kernels against the
    eager masked reference kernel and the full-vector flip masks."""

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
            for session, count in enumerate((60_000, 240_000, 480_000, 1)):
                damage = sweep.victim_damage(count)
                mask = sweep.flip_mask(*damage, session, 1e-3)
                expected = int(np.count_nonzero(mask))
                assert fused.count(*damage, session, 1e-3) == expected
                assert eager.count(*damage, session, 1e-3) == expected
                assert fused.any_flip(*damage, session, 1e-3) == (
                    expected > 0
                )

    @staticmethod
    def _paper_row_bank():
        geometry = dataclasses.replace(
            StudyScale.tiny().geometry, row_bits=PAPER_ROW_BITS
        )
        infra = TestInfrastructure.for_module("A0", geometry=geometry, seed=5)
        return infra, infra.module.bank(0)

    @staticmethod
    def _polarity_rows(bank):
        """One logical row on a true-cell and one on an anti-cell
        physical row."""
        rows = {}
        for row in range(8, 64):
            anti = bank.cells.is_anti_row(bank.mapping.to_physical(row))
            rows.setdefault(anti, row)
        return [rows[False], rows[True]]

    @staticmethod
    def _tied_damages(values):
        """Damages sitting exactly on, and one ulp below, effective
        tolerances shared by several cells (float32 ties), plus the
        population's extremes."""
        unique, counts = np.unique(values, return_counts=True)
        tied = unique[counts > 1]
        picks = list(tied[:: max(1, tied.size // 6)][:6])
        if values.size:
            picks += [values.min(), np.median(values), values.max()]
        damages = []
        for value in picks:
            damages += [float(value), float(np.nextafter(value, 0.0))]
        return damages

    def test_layout_kernel_matches_references_at_paper_rows(self):
        """Every pattern on a true and an anti row at 65536-bit rows:
        counts, minima (any_flip), the retention guard, Alg. 2's charged
        activation requirement and flip sets equal the masked reference
        kernel and the full vectors, with damages placed on tied
        effective tolerances. The patterns whose charged population is
        empty are included."""
        infra, bank = self._paper_row_bank()
        ties_seen = 0
        empty_seen = 0
        for vpp in VPP_LEVELS:
            infra.set_vpp(vpp)
            for row in self._polarity_rows(bank):
                for pattern in STANDARD_PATTERNS:
                    sweep = bank.hammer_sweep(row, [row - 1, row + 1], pattern)
                    fused = sweep.fused_counts()
                    eager = sweep.threshold_counts()
                    charged = sweep.charged
                    empty_seen += not charged.any()
                    retention = sweep.effective_retention_times()[charged]
                    expected_min = (
                        float(retention.min()) if retention.size else np.inf
                    )
                    assert sweep.min_charged_retention() == expected_min
                    trcd = TrcdSweep(bank, row, pattern)
                    trcd.activation_faulty(0.0)
                    worst, charged_max = trcd._requirement
                    if charged.any() and np.isfinite(worst):
                        assert charged_max == bank._trcd_requirements(
                            trcd.physical, trcd.state, trcd.pattern_index
                        )[charged].max()
                    session = 7
                    factor = fused._factor(session)
                    tolerance = bank._cached(
                        sweep.state, sweep.physical, "cell_tolerances"
                    )
                    effective = tolerance * factor
                    outlier = sweep._outlier_mask
                    bulk_values = effective[charged & ~outlier]
                    outlier_values = effective[charged & outlier]
                    ties_seen += bulk_values.size - np.unique(bulk_values).size
                    cases = [
                        (damage, 0.0) for damage in self._tied_damages(bulk_values)
                    ] + [
                        (0.0, damage)
                        for damage in self._tied_damages(outlier_values)
                    ]
                    for damage_bulk, damage_outlier in cases:
                        for elapsed in (1e-3, expected_min, 2 * expected_min):
                            if not np.isfinite(elapsed):
                                elapsed = 1e-3
                            mask = sweep.flip_mask(
                                damage_bulk, damage_outlier, session, elapsed
                            )
                            expected = int(np.count_nonzero(mask))
                            args = (damage_bulk, damage_outlier, session)
                            assert fused.count(*args, elapsed) == expected
                            assert eager.count(*args, elapsed) == expected
                            assert fused.any_flip(*args, elapsed) == (
                                expected > 0
                            )
                            assert eager.any_flip(*args, elapsed) == (
                                expected > 0
                            )
                        damage_only = sweep.flip_mask(
                            damage_bulk, damage_outlier, session, 0.0
                        )
                        for kernel in (fused, eager):
                            parts = kernel.flip_populations(
                                damage_bulk, damage_outlier, session
                            )
                            got = (
                                np.concatenate(parts) if parts
                                else np.empty(0, dtype=np.intp)
                            )
                            assert got.size == np.unique(got).size
                            assert np.array_equal(
                                np.sort(got), np.flatnonzero(damage_only)
                            )
        assert empty_seen == 2 * len(VPP_LEVELS)
        assert ties_seen > 100

    def test_retention_layout_matches_flip_mask_at_paper_rows(self):
        """Retention counts, flip sets and word histograms from the row
        layout equal binning ``flip_mask``, for every pattern on both
        polarities, with waits placed on effective thresholds."""
        infra, bank = self._paper_row_bank()
        infra.set_temperature(80.0)
        for vpp in VPP_LEVELS:
            infra.set_vpp(vpp)
            for row in self._polarity_rows(bank):
                for pattern in STANDARD_PATTERNS:
                    sweep = bank.retention_sweep(row, pattern)
                    counts = sweep.fused_counts()
                    thresholds = np.sort(
                        sweep.effective_retention_times()[sweep.charged]
                    )
                    waits = [0.0, 0.064, 4.0, 600.0]
                    for index in (0, 1, 10, 100, thresholds.size // 3):
                        if index < thresholds.size:
                            value = float(thresholds[index])
                            waits += [value, float(np.nextafter(value, np.inf))]
                    for elapsed in waits:
                        mask = sweep.flip_mask(elapsed)
                        assert counts.count(elapsed) == np.count_nonzero(mask)
                        assert np.array_equal(
                            np.sort(counts.flip_indices(elapsed)),
                            np.flatnonzero(mask),
                        )
                        per_word = mask.reshape(-1, 64).sum(axis=1)
                        histogram = Counter(
                            int(c) for c in per_word if c > 0
                        )
                        assert counts.word_histogram(elapsed) == dict(
                            histogram
                        )

    def test_no_per_pattern_arrays_on_row_states(self):
        """After a fused study every row-state cache entry is per-row
        data: no key names a data pattern or a retired per-(row,
        pattern) population cache."""
        retired = {
            "_ret_groups", "_ret_words", "_hammer_static",
            "_hammer_minima", "_retention_guard", "_fused_static_uses",
            "_probe_pattern",
        }
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine="fused"
        )
        contexts = []
        build = study.build_context

        def capture(name):
            ctx = build(name)
            contexts.append(ctx)
            return ctx

        study.build_context = capture
        study.run_module("A0", tests=("rowhammer", "trcd", "retention"))
        bank = contexts[0].infra.module.bank(0)
        keys = set()
        for physical in bank.materialized_rows():
            keys.update(bank._state(physical).cache)
        assert keys
        for key in keys:
            parts = key if isinstance(key, tuple) else (key,)
            assert not any(isinstance(part, DataPattern) for part in parts)
            assert parts[0] not in retired


class TestJitterCache:
    def test_clear_resets_horizons(self, monkeypatch):
        """Past the cache limit the jitter cache is cleared together
        with every row's prefetch horizon: later probes still read
        prefetched values (no per-key generator draw) and agree with
        a bench that never cleared."""
        reference = _context("A0", "fused")
        ctx = _context("A0", "fused")
        cells = ctx.infra.module.bank(0).cells
        monkeypatch.setattr(cells, "JITTER_CACHE_LIMIT", 30)
        draws = []
        hub = cells._hub
        generator = hub.generator

        def spy(key):
            if "/jitter/" in key:
                draws.append(key)
            return generator(key)

        monkeypatch.setattr(hub, "generator", spy)
        clears = []
        prefetch = cells.prefetch_measurement_jitter

        def counting_prefetch(physical_row, sessions):
            before = len(cells._jitter_cache)
            added = prefetch(physical_row, sessions)
            clears.append(len(cells._jitter_cache) < before + added)
            return added

        monkeypatch.setattr(
            cells, "prefetch_measurement_jitter", counting_prefetch
        )
        pattern = STANDARD_PATTERNS[0]
        for _ in range(4):
            for row in (5, 9, 13):
                results = []
                for bench in (reference, ctx):
                    with bench.engine.hammer_session(
                        bench, row, pattern
                    ) as session:
                        results.append(session.ber_ladder(300_000, 2))
                assert results[0] == results[1]
        assert any(clears)
        assert draws == []
        assert len(cells._jitter_cache) <= 30 + 20


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
        from repro.dram.bank import _RET_LAYOUT_KEY, _TOL_LAYOUT_KEY

        ctx = _context("A0", "fused")
        cache = ctx.infra.module.bank(0)._state(
            ctx.infra.module.bank(0).mapping.to_physical(5)
        ).cache
        assert ctx.engine.preheat(ctx, [5], ("trcd",)) == 0
        assert _TOL_LAYOUT_KEY not in cache and _RET_LAYOUT_KEY not in cache
        assert ctx.engine.preheat(ctx, [5], ("rowhammer",)) == 1
        assert _TOL_LAYOUT_KEY in cache and _RET_LAYOUT_KEY not in cache
        ctx.engine.preheat(ctx, [5], ("retention",))
        assert _RET_LAYOUT_KEY in cache

    def test_preheat_warms_both_sort_passes(self):
        ctx = _context("A0", "fused")
        rows = [5, 9, 13]
        warmed = ctx.engine.preheat(ctx, rows)
        assert warmed == len(rows)
        # Second preheat finds everything warm.
        assert ctx.engine.preheat(ctx, rows) == 0
        bank = ctx.infra.module.bank(0)
        from repro.dram.bank import _RET_LAYOUT_KEY, _TOL_LAYOUT_KEY

        for row in rows:
            physical = bank.mapping.to_physical(row)
            cache = bank._state(physical).cache
            assert _TOL_LAYOUT_KEY in cache
            assert _RET_LAYOUT_KEY in cache


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
