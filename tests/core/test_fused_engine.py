"""Differential and kernel tests for the fused probe engine.

The fused engine resolves every V_PP operating point and data pattern
of a row from one presorted layout per row. These tests pin its
sessions bit-identical to the command engine probe by probe across a
V_PP ladder, check its kernels against the eager masked reference
kernel and the full-vector flip masks (at the paper's 65536-bit rows
too), and check the TRR routing, preheat, row-state cache, transient
per-cell vector, jitter-cache and repeat-run determinism contracts.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.context import TestContext
from repro.core.fused import FusedProbeEngine
from repro.core.probe import CommandProbeEngine
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram import bank as bank_module
from repro.dram.bank import (
    _FAMILIES,
    _RET_HEAD_DIVISOR,
    _RET_LAYOUT_KEY,
    _RET_RESIDUES_KEY,
    _TOL_HEAD_DIVISOR,
    _TOL_LAYOUT_KEY,
    _TOL_RESIDUES_KEY,
    _TRCD_RESIDUES_KEY,
    LAYOUT_EXTENSIONS_METRIC,
    TrcdSweep,
)
from repro.dram.cell import CELL_VECTOR_GENERATIONS_METRIC
from repro.dram.patterns import STANDARD_PATTERNS, DataPattern
from repro.obs.metrics import REGISTRY
from repro.softmc.infrastructure import TestInfrastructure
from tests.core.hammer_oracle import (
    HammerCounts,
    retention_flip_mask,
    victim_damage,
)

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

    @pytest.mark.parametrize("engine_kind", ["command", "fused"])
    def test_zero_iteration_retention_probes(self, engine_kind):
        """``worst_probe``/``worst_ladder`` with 0 iterations probe
        nothing: ``(-1.0, {})`` per window, and device state and
        counters end as a session without those calls leaves them."""
        windows = list(StudyScale.tiny().retention_windows)

        def session(zero_iterations):
            ctx = _context("A0", engine_kind)
            ctx.infra.set_temperature(80.0)
            with ctx.engine.retention_session(
                ctx, 5, STANDARD_PATTERNS[2]
            ) as session:
                session.ber(0.5)
                if zero_iterations:
                    assert session.worst_probe(0.5, 0) == (-1.0, {})
                    assert session.worst_ladder(windows, 0) == (
                        [(-1.0, {})] * len(windows)
                    )
                session.ber(1.0)
            counters = ctx.engine.counters
            return (
                ctx.infra.module.env.now, counters.retention_probes,
                counters.commands_issued,
                ctx.infra.module.bank(0).total_activations,
                _row_data(ctx, 5).tobytes(),
            )

        assert session(True) == session(False)

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
            eager = HammerCounts(sweep)
            for session, count in enumerate((60_000, 240_000, 480_000, 1)):
                damage = victim_damage(sweep, count)
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
                    eager = HammerCounts(sweep)
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
                        mask = retention_flip_mask(sweep, elapsed)
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


def _extensions(layout):
    """Current value of the lazy layout-extension counter for one
    layout."""
    return REGISTRY.counter(
        LAYOUT_EXTENSIONS_METRIC, labels=("layout",)
    ).labels(layout=layout).value


def _paper_row_context(engine_kind, seed=11):
    tiny = StudyScale.tiny()
    scale = dataclasses.replace(
        tiny,
        geometry=dataclasses.replace(tiny.geometry, row_bits=PAPER_ROW_BITS),
    )
    infra = TestInfrastructure.for_module(
        "A0", geometry=scale.geometry, seed=seed
    )
    return TestContext(infra, scale, probe_engine=engine_kind)


class TestLayoutHeads:
    """Per-row layouts hold a sorted head of each bulk population; a
    prefix that reaches a head's end extends that row to the full sort
    (counted in ``repro_layout_extensions_total``), and every result
    stays exact."""

    def test_tiny_rowhammer_study_makes_no_extension(self):
        """Heads have a floor of cells, so the tiny scale's 2048-bit
        rows (1/32 of a row is 64 cells) answer a whole RowHammer study
        -- the ``service`` benchmark's C5 request -- from their heads."""
        before = _extensions("tolerance") + _extensions("retention")
        CharacterizationStudy(scale=StudyScale.tiny(), seed=0).run(
            modules=["C5"], tests=("rowhammer",)
        )
        assert _extensions("tolerance") + _extensions("retention") == before

    def test_sessions_past_the_heads_match_command(self):
        """Hammer and retention probes whose flip sets reach past the
        heads extend each row once and still equal the command
        engine."""
        fused_ctx = _paper_row_context("fused")
        command_ctx = _paper_row_context("command")
        bank = fused_ctx.infra.module.bank(0)
        tolerance_before = _extensions("tolerance")
        retention_before = _extensions("retention")
        rows = (5, 9)
        for row in rows:
            for count in (300_000, 3_000_000, 6_000_000):
                assert fused_ctx.engine.hammer_ber(
                    fused_ctx, row, STANDARD_PATTERNS[1], count
                ) == command_ctx.engine.hammer_ber(
                    command_ctx, row, STANDARD_PATTERNS[1], count
                )
        assert _extensions("tolerance") == tolerance_before + len(rows)
        for ctx in (fused_ctx, command_ctx):
            ctx.infra.set_temperature(80.0)
        for row in rows:
            for trefw in (4.096, 64.0, 256.0):
                assert fused_ctx.engine.retention_probe(
                    fused_ctx, row, STANDARD_PATTERNS[2], trefw
                ) == command_ctx.engine.retention_probe(
                    command_ctx, row, STANDARD_PATTERNS[2], trefw
                )
        assert _extensions("retention") == retention_before + len(rows)
        for row in rows:
            cache = bank._state(bank.mapping.to_physical(row)).cache
            assert all(
                population.complete for population in cache[_TOL_LAYOUT_KEY]
            )
            assert all(
                population.complete for _, population in cache[_RET_LAYOUT_KEY]
            )

    def test_kernels_past_the_heads_match_references(self):
        """Kernel-level: damages and waits placed past the heads give
        the reference counts, flip sets and word histograms, with one
        extension per row and layout."""
        infra, bank = TestHammerKernels._paper_row_bank()
        infra.set_temperature(80.0)
        tolerance_before = _extensions("tolerance")
        retention_before = _extensions("retention")
        rows = TestHammerKernels._polarity_rows(bank)
        session = 3
        for row in rows:
            for pattern in STANDARD_PATTERNS[:3]:
                sweep = bank.hammer_sweep(row, [row - 1, row + 1], pattern)
                if not sweep.charged.any():
                    continue
                fused = sweep.fused_counts()
                eager = HammerCounts(sweep)
                effective = np.sort(bank._effective_tolerances(
                    sweep.physical, sweep.state, sweep.pattern_index, session
                )[sweep.charged & ~sweep._outlier_mask])
                for quantile in (0.01, 0.2, 0.5):
                    damage = float(effective[int(quantile * effective.size)])
                    mask = sweep.flip_mask(damage, 0.0, session, 0.0)
                    expected = int(np.count_nonzero(mask))
                    assert fused.count(damage, 0.0, session, 0.0) == expected
                    assert eager.count(damage, 0.0, session, 0.0) == expected
                    got = np.concatenate(
                        fused.flip_populations(damage, 0.0, session)
                    )
                    assert np.array_equal(np.sort(got), np.flatnonzero(mask))

                retention = bank.retention_sweep(row, pattern)
                counts = retention.fused_counts()
                thresholds = np.sort(
                    retention.effective_retention_times()[retention.charged]
                )
                for quantile in (0.01, 0.4, 0.9):
                    elapsed = float(np.nextafter(
                        thresholds[int(quantile * thresholds.size)], np.inf
                    ))
                    mask = retention_flip_mask(retention, elapsed)
                    assert counts.count(elapsed) == np.count_nonzero(mask)
                    assert np.array_equal(
                        np.sort(counts.flip_indices(elapsed)),
                        np.flatnonzero(mask),
                    )
                    per_word = mask.reshape(-1, 64).sum(axis=1)
                    assert counts.word_histogram(elapsed) == dict(
                        Counter(int(c) for c in per_word if c > 0)
                    )
        assert _extensions("tolerance") == tolerance_before + len(rows)
        assert _extensions("retention") == retention_before + len(rows)

    @staticmethod
    def _tied_row(bank, divisor, rng, nth):
        """The ``nth`` untouched true-cell row, and values for it that
        come in runs of equal values, the run at the head's last cell
        straddling the head's end. Returns ``(logical row, values, head
        bound)``."""
        cells = PAPER_ROW_BITS
        bound = cells // divisor
        run = next(length for length in (2, 3) if bound % length)
        values = np.repeat(
            np.arange(1, cells // run + 2, dtype=np.float32), run
        )[:cells] * np.float32(1000.0)
        rng.shuffle(values)
        rows = [
            row for row in range(8, 64)
            if not bank.cells.is_anti_row(bank.mapping.to_physical(row))
        ]
        return rows[nth], values, bound

    @staticmethod
    def _inject(monkeypatch, cells, accessor, physical, vectors):
        """Make the generator's ``accessor`` (a structure-pair RNG
        replay) return crafted ``vectors`` for one physical row."""
        replay = getattr(cells, accessor)
        monkeypatch.setattr(cells, accessor, lambda row: (
            vectors if row == physical else replay(row)
        ))

    def test_boundary_tie_extends_exactly(self, monkeypatch):
        """A cutoff equal to the head's last value, tied with a cell
        outside the head: the prefix reaches the head's end, the row
        extends, and the tied cell flips too."""
        infra, bank = TestHammerKernels._paper_row_bank()
        infra.set_temperature(80.0)
        rng = np.random.default_rng(0)
        pattern = STANDARD_PATTERNS[0]  # all-charged on a true-cell row

        row, tolerances, bound = self._tied_row(bank, _TOL_HEAD_DIVISOR, rng, 0)
        physical = bank.mapping.to_physical(row)
        self._inject(
            monkeypatch, bank.cells, "tolerance_structure_pair", physical,
            (tolerances, np.zeros(PAPER_ROW_BITS, dtype=bool)),
        )
        sweep = bank.hammer_sweep(row, [row - 1, row + 1], pattern)
        assert sweep.charged_byte == 0xFF
        fused = sweep.fused_counts()
        head = bank.tolerance_layout(sweep.state, physical)[0]
        assert head.values.size == bound and not head.complete
        cutoff = head.values[-1]
        assert np.count_nonzero(tolerances == cutoff) > np.count_nonzero(
            head.values == cutoff
        )
        session = 1
        damage = float(np.float64(cutoff) * fused._factor(session))
        before = _extensions("tolerance")
        expected = int(np.count_nonzero(
            sweep.flip_mask(damage, 0.0, session, 0.0)
        ))
        assert expected > bound
        assert fused.count(damage, 0.0, session, 0.0) == expected
        assert _extensions("tolerance") == before + 1
        assert bank.tolerance_layout(sweep.state, physical)[0].complete

        row, times, bound = self._tied_row(bank, _RET_HEAD_DIVISOR, rng, 1)
        physical = bank.mapping.to_physical(row)
        self._inject(
            monkeypatch, bank.cells, "retention_structure_pair", physical,
            (times, np.ones(PAPER_ROW_BITS, dtype=np.float32)),
        )
        sweep = bank.retention_sweep(row, pattern)
        counts = sweep.fused_counts()
        (_, head), = bank.retention_layout(sweep.state, physical)
        assert head.values.size == bound and not head.complete
        effective = sweep.effective_retention_times()
        last = head.indices[-1]
        assert np.count_nonzero(effective == effective[last]) > np.count_nonzero(
            head.values == head.values[-1]
        )
        elapsed = float(np.nextafter(effective[last], np.inf))
        before = _extensions("retention")
        mask = retention_flip_mask(sweep, elapsed)
        assert np.count_nonzero(mask) > bound
        assert counts.count(elapsed) == np.count_nonzero(mask)
        assert np.array_equal(
            np.sort(counts.flip_indices(elapsed)), np.flatnonzero(mask)
        )
        assert _extensions("retention") == before + 1

    def test_tolerance_structure_pair_matches_single_fields(self):
        """One RNG replay gives the single-field accessors' vectors bit
        for bit."""
        _, bank = TestHammerKernels._paper_row_bank()
        cells = bank.cells
        for physical in (3, 4, 17):
            tolerances, outliers = cells.tolerance_structure_pair(physical)
            assert tolerances.dtype == np.float32 and outliers.dtype == bool
            assert np.array_equal(tolerances, cells.cell_tolerances(physical))
            assert np.array_equal(outliers, cells.cell_outlier_mask(physical))


#: The full per-cell vectors a row state may cache.
FULL_VECTOR_KEYS = tuple(
    name for _, names in _FAMILIES.values() for name in names
)


def _generations(family):
    """Current value of the per-cell vector generation counter for one
    family."""
    return REGISTRY.counter(
        CELL_VECTOR_GENERATIONS_METRIC, labels=("family",)
    ).labels(family=family).value


def _all_generations():
    return {family: _generations(family) for family in _FAMILIES}


class TestTransientVectors:
    """Per-row layouts and residue tables are built from transient
    per-cell vectors: a row keeps only its durable structures, and the
    rare full-vector readers regenerate (and cache) vectors
    bit-identically."""

    def test_study_rows_keep_layouts_not_vectors(self):
        """After a fused study at 65536-bit rows, every sampled row the
        command path never touched holds its layouts and residue tables
        and none of the full vectors; each family is generated at most
        once per sampled row, plus once per command-touched row. The
        sensing checks clear on their bound, so no row builds a tRCD
        residue table and no tRCD vector is generated."""
        tiny = StudyScale.tiny()
        scale = dataclasses.replace(
            tiny,
            geometry=dataclasses.replace(
                tiny.geometry, row_bits=PAPER_ROW_BITS
            ),
        )
        study = CharacterizationStudy(scale=scale, seed=3, probe_engine="fused")
        contexts = []
        build = study.build_context

        def capture(name):
            ctx = build(name)
            contexts.append(ctx)
            return ctx

        study.build_context = capture
        before = _all_generations()
        study.run_module(
            "A0", tests=("rowhammer", "retention"), vpp_levels=VPP_LEVELS
        )
        bank = contexts[0].infra.module.bank(0)
        sampled = {
            bank.mapping.to_physical(row)
            for row in sample_rows(
                scale.geometry.rows_per_bank, scale.rows_per_module,
                scale.row_chunks,
            )
        }
        states = {
            physical: bank._state(physical)
            for physical in bank.materialized_rows()
        }
        untouched = [
            physical for physical in sampled
            if not any(key in states[physical].cache for key in FULL_VECTOR_KEYS)
        ]
        assert len(untouched) >= len(sampled) - 2
        for physical in untouched:
            cache = states[physical].cache
            for key in (
                _TOL_LAYOUT_KEY, _RET_LAYOUT_KEY, _TOL_RESIDUES_KEY,
                _RET_RESIDUES_KEY,
            ):
                assert key in cache
            assert _TRCD_RESIDUES_KEY not in cache
        assert _generations("trcd") == before["trcd"]
        for family, (_, names) in _FAMILIES.items():
            touched = sum(
                names[0] in state.cache for state in states.values()
            )
            assert _generations(family) - before[family] <= (
                len(sampled) + touched
            )

    def test_blocked_preheat_matches_row_at_a_time(self, monkeypatch):
        """Preheat in blocks of 3 over 7 rows gives the layouts and
        residue tables of one-row builds, and the command engine's
        counts and flip sets."""
        rows = [5, 9, 13, 17, 21, 25, 29]
        single = _paper_row_context("fused")
        for row in rows:
            single.engine.preheat(single, [row], ("rowhammer", "retention"))
        monkeypatch.setattr(bank_module, "_LAYOUT_BLOCK_ROWS", 3)
        blocked = _paper_row_context("fused")
        assert blocked.engine.preheat(
            blocked, rows, ("rowhammer", "retention")
        ) == len(rows)
        command = _paper_row_context("command")

        def populations(key, layout):
            if key == _RET_LAYOUT_KEY:
                return [population for _, population in layout]
            return list(layout)

        for row in rows:
            caches = [
                ctx.infra.module.bank(0).probe_state(row).cache
                for ctx in (single, blocked)
            ]
            for key in (_TOL_LAYOUT_KEY, _RET_LAYOUT_KEY):
                expected, got = (
                    populations(key, cache[key]) for cache in caches
                )
                assert len(expected) == len(got)
                for want, have in zip(expected, got):
                    assert want.complete == have.complete
                    for field in ("indices", "values", "bits"):
                        assert np.array_equal(
                            getattr(want, field), getattr(have, field)
                        )
            for key in (_TOL_RESIDUES_KEY, _RET_RESIDUES_KEY):
                assert caches[0][key] == caches[1][key]
            assert not any(key in caches[1] for key in FULL_VECTOR_KEYS)
        for row in rows:
            for count in (300_000, 1_000_000):
                assert blocked.engine.hammer_ber(
                    blocked, row, STANDARD_PATTERNS[1], count
                ) == command.engine.hammer_ber(
                    command, row, STANDARD_PATTERNS[1], count
                )
            assert (_row_data(blocked, row) == _row_data(command, row)).all()
        for ctx in (blocked, command):
            ctx.infra.set_temperature(80.0)
        for row in rows:
            assert blocked.engine.retention_probe(
                blocked, row, STANDARD_PATTERNS[2], 4.096
            ) == command.engine.retention_probe(
                command, row, STANDARD_PATTERNS[2], 4.096
            )
            assert (_row_data(blocked, row) == _row_data(command, row)).all()

    @staticmethod
    def _benches(rows, tests=("rowhammer", "retention")):
        """``{name: context}``: a fused bench (preheated, with the rows'
        tRCD residue tables built) and a command bench, both at
        65536-bit rows."""
        benches = {
            "fresh": _paper_row_context("fused"),
            "command": _paper_row_context("command"),
        }
        ctx = benches["fresh"]
        ctx.engine.preheat(ctx, rows, tests)
        bank = ctx.infra.module.bank(0)
        for row in rows:
            bank.trcd_residues(
                bank.probe_state(row), bank.mapping.to_physical(row)
            )
        return benches

    @staticmethod
    def _run(benches, probe):
        """``{name: (result, generations spent)}`` of ``probe(ctx)`` on
        every bench."""
        outcomes = {}
        for name, ctx in benches.items():
            before = _all_generations()
            result = probe(ctx)
            outcomes[name] = (result, {
                family: value - before[family]
                for family, value in _all_generations().items()
            })
        return outcomes

    @staticmethod
    def _assert_regenerated(benches, outcomes, row, family):
        """Both benches gave the same result and row data; the fresh
        bench generated the family once more and now caches vectors
        equal to a direct draw of the generator."""
        results = [result for result, _ in outcomes.values()]
        assert results[0] == results[1]
        data = [_row_data(ctx, row) for ctx in benches.values()]
        assert (data[0] == data[1]).all()
        assert outcomes["fresh"][1][family] == 1
        bank = benches["fresh"].infra.module.bank(0)
        accessor, names = _FAMILIES[family]
        drawn = getattr(bank.cells, accessor)(bank.mapping.to_physical(row))
        if len(names) == 1:
            drawn = (drawn,)
        cache = bank.probe_state(row).cache
        for name, vector in zip(names, drawn):
            assert np.array_equal(cache[name], vector)

    def test_head_extension_regenerates_vectors(self):
        row = 5
        benches = self._benches([row], ("rowhammer",))
        before = _extensions("tolerance")
        outcomes = self._run(benches, lambda ctx: ctx.engine.hammer_ber(
            ctx, row, STANDARD_PATTERNS[1], 6_000_000
        ))
        assert _extensions("tolerance") == before + 1
        self._assert_regenerated(benches, outcomes, row, "tolerance")

    def test_decay_at_hammer_close_regenerates_vectors(self, monkeypatch):
        """A hammer probe long enough for a weak cell to decay closes on
        the full ``flip_mask``, which reads the row's vectors."""
        row = 32
        benches = self._benches([row])
        for ctx in benches.values():
            ctx.infra.set_vpp(1.4)
            ctx.infra.set_temperature(95.0)
        masks = []
        flip_mask = bank_module.HammerSweep.flip_mask

        def spy(sweep, *args):
            mask = flip_mask(sweep, *args)
            masks.append(mask)
            return mask

        monkeypatch.setattr(bank_module.HammerSweep, "flip_mask", spy)
        outcomes = self._run(benches, lambda ctx: ctx.engine.hammer_ber(
            ctx, row, STANDARD_PATTERNS[0], 1_000_000
        ))
        assert masks
        assert outcomes["fresh"][0] > 0
        self._assert_regenerated(benches, outcomes, row, "retention")

    def test_sensing_full_check_regenerates_vectors(self):
        """An activation latency just under the row's slowest cell runs
        the per-cell sensing check on the full tRCD factors."""
        row = 5
        benches = self._benches([row])

        def probe(ctx):
            ctx.infra.set_vpp(1.4)
            bank = ctx.infra.module.bank(0)
            physical = bank.mapping.to_physical(row)
            state = bank.probe_state(row)
            worst = bank._trcd_worst_requirement(
                physical, state, state.pattern_index
            )
            corrupt = bank.sensing_corruption(row, 0.995 * worst)
            assert corrupt is not None
            return tuple(np.flatnonzero(corrupt))

        outcomes = self._run(benches, probe)
        self._assert_regenerated(benches, outcomes, row, "trcd")

    def test_probe_sweep_construction_generates_nothing(self):
        ctx = _paper_row_context("fused")
        bank = ctx.infra.module.bank(0)
        before = _all_generations()
        pattern = STANDARD_PATTERNS[0]
        sweeps = [
            bank.hammer_sweep(5, [4, 6], pattern),
            bank.retention_sweep(5, pattern),
            TrcdSweep(bank, 5, pattern),
        ]
        assert _all_generations() == before
        for sweep in sweeps:
            assert not any(key in sweep.state.cache for key in FULL_VECTOR_KEYS)


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
