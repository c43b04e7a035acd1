"""Micro-benchmarks of the library's hot primitives.

Unlike the artifact benches (which regenerate paper figures once),
these measure steady-state throughput of the primitives that dominate
campaign runtime: a full Alg. 1 BER measurement, the per-row flip
evaluation, the batched SECDED codec, one SPICE transient step batch,
and the controller's read path.
"""

import numpy as np
import pytest

from repro.core.context import TestContext
from repro.core.rowhammer import measure_ber
from repro.core.scale import StudyScale
from repro.dram import constants
from repro.dram.calibration import ModuleGeometry
from repro.dram.module import DramModule
from repro.dram.patterns import STANDARD_PATTERNS
from repro.dram.profiles import module_profile
from repro.softmc.infrastructure import TestInfrastructure
from repro.spice.dram_cell import (
    DramCircuitParams,
    build_activation_circuit,
    initial_conditions,
)
from repro.spice.montecarlo import vary_params
from repro.spice.transient import TransientSolver
from repro.system import ControllerPolicy, MemoryController
from repro.units import ns
from tests.dram.batch_secded import BatchSecdedCodec

GEOMETRY = ModuleGeometry(rows_per_bank=4096, banks=1, row_bits=8192)


def _make_ctx(probe_engine=None):
    scale = StudyScale(rows_per_module=8, iterations=1,
                       hcfirst_min_step=8000, geometry=GEOMETRY)
    infra = TestInfrastructure.for_module("B3", geometry=GEOMETRY, seed=1)
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    return TestContext(infra, scale, probe_engine=probe_engine)


@pytest.fixture(scope="module")
def ctx():
    return _make_ctx()


@pytest.fixture(scope="module")
def command_ctx():
    return _make_ctx(probe_engine="command")


def test_ber_measurement_throughput(benchmark, ctx):
    """One complete Alg. 1 BER probe (init 3 rows, 300K double-sided
    hammers, read + compare) on the default batched kernel."""
    pattern = STANDARD_PATTERNS[0]
    result = benchmark(lambda: measure_ber(ctx, 100, pattern, 300_000))
    assert 0.0 <= result <= 1.0


def test_ber_measurement_throughput_command(benchmark, command_ctx):
    """The same Alg. 1 BER probe through the command-level reference
    path (the perf trajectory's baseline)."""
    pattern = STANDARD_PATTERNS[0]
    result = benchmark(
        lambda: measure_ber(command_ctx, 100, pattern, 300_000)
    )
    assert 0.0 <= result <= 1.0


def test_retention_probe_throughput(benchmark, ctx):
    """One Alg. 3 write-wait-read probe on the batched kernel."""
    from repro.core.retention import measure_retention

    pattern = STANDARD_PATTERNS[2]
    ber, _ = benchmark(
        lambda: measure_retention(ctx, 100, pattern, 0.256)
    )
    assert 0.0 <= ber <= 1.0


def test_hammer_session_throughput(benchmark, ctx):
    """The analytic hammer update alone (per 300K-activation session)."""
    bank = ctx.infra.module.bank(0)
    benchmark(lambda: bank.hammer([200, 202], 300_000))


def test_batch_ecc_throughput(benchmark):
    """Encode + decode 1024 words (one 8 KiB row's worth)."""
    codec = BatchSecdedCodec()
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, (1024, 64)).astype(np.uint8)

    def roundtrip():
        codes = codec.encode_many(data)
        out, corrected, uncorrectable = codec.decode_many(codes)
        return out

    out = benchmark(roundtrip)
    assert np.array_equal(out, data)


def test_spice_transient_step_rate(benchmark):
    """A short batched transient (64 Monte-Carlo samples, 5 ns)."""
    params = vary_params(DramCircuitParams(), samples=64, seed=0)
    circuit = build_activation_circuit(params)
    solver = TransientSolver(circuit)
    initial = initial_conditions(params)

    benchmark(lambda: solver.solve(t_stop=ns(5), dt=ns(0.1), initial=initial))


def test_controller_read_path(benchmark):
    """Row-hit 64-byte reads through the memory controller."""
    module = DramModule(module_profile("B3"), geometry=GEOMETRY, seed=2)
    controller = MemoryController(module, ControllerPolicy.nominal())
    controller.write(0, b"\x5a" * 64)

    data = benchmark(lambda: controller.read(0, 64))
    assert data == b"\x5a" * 64
