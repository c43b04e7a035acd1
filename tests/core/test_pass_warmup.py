"""Alg. 1's per-operating-point set-up: one jitter warm-up per hammer
pass, and one probe session per (row, pattern, V_PP).

* The warm-up (:meth:`repro.core.fused.FusedProbeEngine.preheat` with
  ``hammer_probes``) derives a whole pass's measurement jitter in one
  vectorized derivation. It is a pure hint: a study with the warm-up
  replaced by a no-op reads the same jitter values, records the same
  results and leaves the same device state, on the double-sided
  schedule (where it predicts every read) and on a decoy program (where
  it does not, and the per-row fallback windows take over).
* :func:`repro.core.rowhammer.characterize_row` runs the worst-BER
  ladder and the bisection in one session: one sweep lookup, the same
  probes and the same record as the two-session path and the command
  engine.
"""

import dataclasses

import pytest

from repro.core import rowhammer, wcdp
from repro.core.context import TestContext
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.bank import Bank
from repro.dram.cell import JITTER_DRAWS_METRIC, CellParameterGenerator
from repro.dram.patterns import STANDARD_PATTERNS
from repro.obs.metrics import REGISTRY
from repro.rng import RngHub
from repro.softmc.infrastructure import TestInfrastructure
from tests.core.hammer_oracle import measure_worst_ber

VPP_LEVELS = (2.5, 2.2)


def _jitter_draws(path):
    return REGISTRY.counter(
        JITTER_DRAWS_METRIC, labels=("path",)
    ).labels(path=path).value


def _device_state(infra):
    """The clock, the activation count and every materialized row's
    state in materialization order, its data built through any pending
    producer and its flip guard included."""
    bank = infra.module.bank(0)
    rows = [
        (
            physical, state.session, state.damage_bulk,
            state.damage_outlier, state.last_restore_time,
            state.vpp_at_restore, state.pattern_index,
            state.data.tobytes(), state.cache.get("_flip_guard"),
        )
        for physical, state in bank._rows.items()
    ]
    return infra.module.env.now, bank.total_activations, rows


def _study(monkeypatch, warm, scale, tests, program=None):
    """One fused A0 study, with the jitter warm-up running or replaced
    by a no-op: ``(module result, jitter reads, device state, fallback
    window lanes, warm-up lanes)``."""
    if not warm:
        monkeypatch.setattr(Bank, "preheat_jitter", lambda *args: 0)
    reads = []
    measurement_jitter = CellParameterGenerator.measurement_jitter

    def recording(self, physical_row, session):
        value = measurement_jitter(self, physical_row, session)
        reads.append((physical_row, session, value))
        return value

    monkeypatch.setattr(
        CellParameterGenerator, "measurement_jitter", recording
    )
    contexts = []
    build_context = CharacterizationStudy.build_context

    def keep(self, name):
        ctx = build_context(self, name)
        contexts.append(ctx)
        return ctx

    monkeypatch.setattr(CharacterizationStudy, "build_context", keep)
    before = _jitter_draws("block"), _jitter_draws("preheat")
    study = CharacterizationStudy(scale=scale, seed=3, program=program)
    result = study.run_module("A0", tests=tests, vpp_levels=VPP_LEVELS)
    monkeypatch.undo()
    return (
        result, reads, _device_state(contexts[0].infra),
        _jitter_draws("block") - before[0],
        _jitter_draws("preheat") - before[1],
    )


class TestWarmupIsAPureHint:
    def _compare(self, monkeypatch, scale, tests, program=None):
        warm = _study(monkeypatch, True, scale, tests, program)
        cold = _study(monkeypatch, False, scale, tests, program)
        assert warm[0] == cold[0]
        assert warm[1] == cold[1]
        assert warm[2] == cold[2]
        assert warm[1], "the study read no jitter"
        assert cold[4] == 0 and cold[3] > 0
        return warm

    def test_double_sided_at_paper_row_size(self, monkeypatch):
        """A0 RowHammer + retention at 65536-bit rows: the warm-up
        predicts every read, so no per-row fallback window is derived
        (``make bench-smoke`` gates the same count)."""
        tiny = StudyScale.tiny()
        scale = dataclasses.replace(
            tiny, geometry=dataclasses.replace(tiny.geometry, row_bits=65536)
        )
        _, reads, _, windows, warmed = self._compare(
            monkeypatch, scale, ("rowhammer", "retention")
        )
        assert windows == 0
        assert warmed >= len(reads) / 2

    def test_decoy_program_falls_back_to_windows(self, monkeypatch):
        """A decoy program's writes step sampled rows by 2, off the
        predicted lattice: the fallback windows derive what the warm-up
        missed, and nothing observable changes."""
        _, _, _, windows, _ = self._compare(
            monkeypatch, StudyScale.tiny(), ("rowhammer",),
            program="four-sided-decoy",
        )
        assert windows > 0


def _context(engine="fused"):
    infra = TestInfrastructure.for_module(
        "A0", geometry=StudyScale.tiny().geometry, seed=3
    )
    return TestContext(infra, StudyScale.tiny(), probe_engine=engine)


class TestSharedSession:
    @pytest.mark.parametrize("vpp", VPP_LEVELS)
    @pytest.mark.parametrize("row", [5, 40, 200])
    def test_one_lookup_and_the_two_session_record(self, row, vpp):
        pattern = STANDARD_PATTERNS[row % len(STANDARD_PATTERNS)]
        shared, split, command = _context(), _context(), _context("command")
        for ctx in (shared, split, command):
            ctx.infra.set_vpp(vpp)
        counters = shared.engine.counters
        before = counters.as_dict()
        record = rowhammer.characterize_row(shared, row, pattern, vpp)
        after = counters.as_dict()
        lookups = (
            after["sweep_hits"] + after["sweep_misses"]
            - before["sweep_hits"] - before["sweep_misses"]
        )
        probes = after["hammer_probes"] - before["hammer_probes"]
        assert lookups == 1
        assert (
            after["sweep_saved_lookups"] - before["sweep_saved_lookups"]
            == probes - 1
        )
        assert probes <= rowhammer.probe_bound(shared.scale)

        scale = split.scale
        ber, values = measure_worst_ber(
            split, row, pattern, scale.ber_hammer_count, scale.iterations
        )
        hcfirst = rowhammer.find_hcfirst(split, row, pattern)
        assert (record.ber, record.ber_iterations, record.hcfirst) == (
            ber, values, hcfirst
        )
        assert split.engine.counters.hammer_probes == probes
        assert rowhammer.characterize_row(
            command, row, pattern, vpp
        ) == record
        assert _device_state(shared.infra) == _device_state(split.infra)


class TestProbeBounds:
    def test_bounds_follow_the_schedule(self):
        assert rowhammer.probe_bound(StudyScale.bench()) == 24
        assert rowhammer.probe_bound(StudyScale.tiny()) == 12
        assert wcdp.rowhammer_probe_bound(StudyScale.bench()) == 36

    def test_no_row_probes_past_its_bound(self):
        ctx = _context()
        counters = ctx.engine.counters
        for row in range(0, 60, 7):
            before = counters.hammer_probes
            pattern = wcdp.rowhammer_wcdp(ctx, row)
            assert (
                counters.hammer_probes - before
                <= wcdp.rowhammer_probe_bound(ctx.scale)
            )
            before = counters.hammer_probes
            rowhammer.characterize_row(ctx, row, pattern, 2.5)
            assert (
                counters.hammer_probes - before
                <= rowhammer.probe_bound(ctx.scale)
            )


class TestWarmupDerivation:
    def test_width_counts_earlier_physical_neighbours(self, monkeypatch):
        """A row gets its own probes' lanes plus as many again per
        physical neighbour probed earlier in the pass; its lattice
        starts 2 past its session, and an untouched row stays
        unmaterialized."""
        bank = _context().infra.module.bank(0)
        rows = [bank.mapping.to_logical(p) for p in (10, 11, 12, 30, 29)]
        lattices = []
        monkeypatch.setattr(
            bank.cells, "preheat_jitter",
            lambda given: lattices.extend(given) or 0,
        )
        bank.preheat_jitter(rows, 4)
        assert lattices == [
            (10, 2, 4), (11, 2, 8), (12, 2, 8), (30, 2, 4), (29, 2, 8),
        ]
        assert not bank._rows

    def test_one_vectorized_derivation_for_every_row(self, monkeypatch):
        """Every lattice of a pass comes out of one draw, equal to the
        per-session draws, counted as ``preheat``; each row's horizon
        then covers its lattice."""
        from repro.dram import cell as cell_module

        calibration = _context().infra.module.bank(0).cells._cal
        generator, direct = (
            CellParameterGenerator(calibration, RngHub(3), bank_index=0)
            for _ in range(2)
        )
        calls = []
        draws = cell_module.standard_normal_draws

        def counting(seeds):
            calls.append(len(seeds))
            return draws(seeds)

        monkeypatch.setattr(cell_module, "standard_normal_draws", counting)
        before = _jitter_draws("preheat") + _jitter_draws("single")
        lattices = [(3, 2, 24), (4, 5, 48)]
        assert generator.preheat_jitter(lattices) == 72
        assert calls == [72]
        assert _jitter_draws("preheat") + _jitter_draws("single") == (
            before + 72
        )
        assert generator._jitter_horizon == {3: 2 + 3 * 23, 4: 5 + 3 * 47}
        for row, first, lanes in lattices:
            for session in range(first, first + 3 * lanes, 3):
                generator.ensure_jitter_window(row, session)
                assert generator.measurement_jitter(row, session) == (
                    direct.measurement_jitter(row, session)
                )
        assert calls == [72]
