"""Cross-cutting coverage: cache keying, ECC batch/scalar equivalence,
solver failure paths, host timing details."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scale import StudyScale
from repro.dram.calibration import ModuleGeometry
from repro.dram.ecc import CODE_BITS, SecdedCodec
from repro.errors import ConvergenceError, UncorrectableError
from repro.harness.cache import get_study
from repro.softmc.infrastructure import TestInfrastructure
from repro.softmc.program import Program
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientSolver
from repro.units import ms, ns
from tests.dram.batch_secded import BatchSecdedCodec


class TestCacheKeys:
    def test_different_scales_do_not_collide(self, tiny_scale):
        other = StudyScale(
            rows_per_module=8,
            row_chunks=2,
            iterations=1,
            hcfirst_min_step=16_000,
            retention_windows=(ms(64.0),),
            geometry=ModuleGeometry(rows_per_bank=512, banks=1,
                                    row_bits=2048),
        )
        a = get_study(("rowhammer",), modules=("C5",), scale=tiny_scale,
                      seed=0)
        b = get_study(("rowhammer",), modules=("C5",), scale=other, seed=0)
        assert a is not b
        assert len(a.module("C5").rowhammer) != len(
            b.module("C5").rowhammer
        )

    def test_different_seeds_do_not_collide(self, tiny_scale):
        a = get_study(("rowhammer",), modules=("C5",), scale=tiny_scale,
                      seed=0)
        b = get_study(("rowhammer",), modules=("C5",), scale=tiny_scale,
                      seed=1)
        assert a is not b


class TestBatchScalarEquivalence:
    scalar = SecdedCodec()
    batch = BatchSecdedCodec()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=CODE_BITS - 1),
    )
    def test_single_error_decisions_agree(self, value, position):
        data = self.scalar.bits_from_int(value)
        codeword = self.scalar.encode(data)
        codeword[position] ^= 1
        scalar_result = self.scalar.decode(codeword.copy())
        out, corrected, uncorrectable = self.batch.decode_many(
            codeword[None, :]
        )
        assert corrected[0] and not uncorrectable[0]
        assert np.array_equal(out[0], scalar_result.data)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=CODE_BITS - 1),
        st.integers(min_value=0, max_value=CODE_BITS - 1),
    )
    def test_double_error_decisions_agree(self, value, pos_a, pos_b):
        if pos_a == pos_b:
            return
        codeword = self.scalar.encode(self.scalar.bits_from_int(value))
        codeword[pos_a] ^= 1
        codeword[pos_b] ^= 1
        with pytest.raises(UncorrectableError):
            self.scalar.decode(codeword.copy())
        _, corrected, uncorrectable = self.batch.decode_many(
            codeword[None, :]
        )
        assert uncorrectable[0] and not corrected[0]


class TestSolverFailurePath:
    def test_newton_reports_convergence_failure(self):
        # A pathological circuit (huge capacitor feedback with an
        # absurdly tight iteration limit) must raise, not loop.
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 0.0), (1e-9, 5.0)])
        circuit.add_resistor("in", "a", 1.0)
        circuit.add_capacitor("a", "0", 1e-6)
        solver = TransientSolver(circuit, max_newton=1, tolerance=1e-15)
        with pytest.raises(ConvergenceError):
            solver.solve(t_stop=1e-8, dt=1e-9)


class TestHostTimingDetails:
    def test_write_row_charges_column_time(self, tiny_scale):
        infra = TestInfrastructure.for_module(
            "A4", geometry=tiny_scale.geometry, seed=0
        )
        columns = infra.module.geometry.columns
        program = Program()
        from repro.dram.patterns import STANDARD_PATTERNS

        program.initialize_row(
            0, 5, STANDARD_PATTERNS[0], infra.module.geometry.row_bits
        )
        result = infra.host.execute(program)
        # ACT + columns * column latency + PRE, all quantized to 1.5 ns.
        expected = ns(13.5) + columns * ns(15.0) + ns(13.5)
        assert result.duration == pytest.approx(expected, rel=1e-6)
        assert result.commands_issued == 2 + columns

    def test_ref_advances_refresh_latency(self, tiny_scale):
        infra = TestInfrastructure.for_module(
            "A4", geometry=tiny_scale.geometry, seed=0
        )
        program = Program()
        program.ref()
        result = infra.host.execute(program)
        assert result.duration == pytest.approx(ns(350.0 + 1.0), abs=ns(2.0))
