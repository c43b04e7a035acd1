"""Per-row cell parameter generation."""

import numpy as np
import pytest

from repro.dram.calibration import ModuleGeometry, calibrate
from repro.dram.cell import (
    JITTER_DRAWS_METRIC,
    OTHER_PATTERN_INDEX,
    PATTERN_SLOTS,
    CellParameterGenerator,
)
from repro.dram.profiles import module_profile
from repro.obs.metrics import REGISTRY
from repro.rng import RngHub


@pytest.fixture
def generator():
    calibration = calibrate(
        module_profile("B6"),
        ModuleGeometry(rows_per_bank=512, banks=1, row_bits=2048),
    )
    return CellParameterGenerator(calibration, RngHub(3), bank_index=0)


def test_deterministic_generation(generator):
    a = generator.cell_tolerances(42)
    b = generator.cell_tolerances(42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generator.cell_tolerances(43))


def test_outlier_mask_marks_replaced_cells(generator):
    for row in range(40):
        tolerances = generator.cell_tolerances(row)
        mask = generator.cell_outlier_mask(row)
        if not mask.any():
            continue
        # Outlier cells must be far weaker than the bulk median.
        assert tolerances[mask].max() < np.median(tolerances)


def test_outlier_rate_roughly_poisson(generator):
    counts = [int(generator.cell_outlier_mask(r).sum()) for r in range(200)]
    assert 0.4 <= np.mean(counts) <= 2.5  # rate is 1.0 per row


def test_pattern_factors_shape_and_floor(generator):
    factors = generator.pattern_factors(10)
    assert factors.shape == (PATTERN_SLOTS,)
    assert factors.min() == 1.0  # the WCDP slot
    assert np.argmin(factors[:6]) < 6
    assert np.all(factors >= 1.0)


def test_retention_pattern_factors_floor(generator):
    factors = generator.retention_pattern_factors(10)
    assert factors.min() == 1.0
    assert np.all(factors >= 1.0)


def test_trcd_pattern_factors_ceiling(generator):
    factors = generator.trcd_pattern_factors(10)
    assert factors.max() == 1.0
    assert np.all(factors <= 1.0)


def test_row_gammas_two_populations(generator):
    bulk, outlier = generator.row_gammas(5)
    assert isinstance(bulk, float) and isinstance(outlier, float)
    # Deterministic per row.
    assert generator.row_gammas(5) == (bulk, outlier)


def test_anti_row_parity(generator):
    assert not generator.is_anti_row(0)
    assert generator.is_anti_row(1)
    assert not generator.is_anti_row(2)


def test_retention_weak_cells_in_distinct_words(generator):
    """Tier weak cells land in distinct 64-bit words (the structural
    reason Observation 14 finds everything SECDED-correctable)."""
    found_tier_row = False
    for row in range(300):
        sensitivity = generator.cell_retention_vpp_sensitivity(row)
        weak_positions = np.flatnonzero(sensitivity > 1.0)
        if weak_positions.size < 2:
            continue
        found_tier_row = True
        words = weak_positions // 64
        assert len(set(words.tolist())) == weak_positions.size
    assert found_tier_row  # B6 has a 15.5% tier; 300 rows must hit it


def test_retention_structure_consistency(generator):
    times = generator.cell_retention_times(7)
    sensitivity = generator.cell_retention_vpp_sensitivity(7)
    assert times.shape == sensitivity.shape
    # Weak-tier cells are far below the bulk retention population.
    weak = sensitivity > 1.0
    if weak.any():
        assert times[weak].max() < np.median(times)


def test_measurement_jitter_close_to_one(generator):
    jitters = [generator.measurement_jitter(9, s) for s in range(50)]
    assert 0.9 < np.mean(jitters) < 1.1
    assert np.std(jitters) < 0.1


def _jitter_draws(path):
    return REGISTRY.counter(
        JITTER_DRAWS_METRIC, labels=("path",)
    ).labels(path=path).value


def test_prefetched_jitter_matches_direct_draws_and_is_counted(generator):
    """A prefetched block equals the per-session draws bit for bit;
    its lanes count once per call as ``block`` or ``single``, a cache
    miss counts one ``single`` and a cache hit nothing."""
    direct = CellParameterGenerator(
        generator._cal, RngHub(3), bank_index=0
    )
    sessions = list(range(2, 2 + 3 * 400, 3))
    before = _jitter_draws("block") + _jitter_draws("single")
    assert generator.prefetch_measurement_jitter(9, sessions) == 400
    assert generator.prefetch_measurement_jitter(9, sessions) == 0
    assert _jitter_draws("block") + _jitter_draws("single") == before + 400
    singles = _jitter_draws("single")
    for session in sessions:
        assert generator.measurement_jitter(9, session) == (
            direct.measurement_jitter(9, session)
        )
    assert _jitter_draws("single") == singles + 400  # the direct misses
    assert _jitter_draws("block") + _jitter_draws("single") == before + 800


def test_powerup_bits_are_bits(generator):
    bits = generator.powerup_bits(3)
    assert bits.shape == (2048,)
    assert set(np.unique(bits)) <= {0, 1}
