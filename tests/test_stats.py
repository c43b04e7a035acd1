"""Statistical helpers."""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import stats
from repro.errors import AnalysisError


def test_normal_ppf_median():
    assert stats.normal_ppf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_normal_ppf_symmetry():
    assert stats.normal_ppf(0.1) == pytest.approx(-stats.normal_ppf(0.9))


def test_normal_ppf_rejects_bad_quantiles():
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(AnalysisError):
            stats.normal_ppf(q)


def test_normal_cdf_inverse_of_ppf():
    # Phi comes from the standard library: repro.stats has no CDF.
    for q in (0.01, 0.3, 0.77, 0.999):
        assert NormalDist().cdf(stats.normal_ppf(q)) == pytest.approx(q)


def test_cv_of_constant_series_is_zero():
    assert stats.coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0


def test_cv_matches_definition():
    values = np.array([1.0, 2.0, 3.0])
    expected = values.std() / values.mean()
    assert stats.coefficient_of_variation(values) == pytest.approx(expected)


def test_cv_rejects_empty():
    with pytest.raises(AnalysisError):
        stats.coefficient_of_variation([])


def test_cv_all_zero_series():
    assert stats.coefficient_of_variation([0.0, 0.0]) == 0.0


def test_confidence_band_contains_mass():
    rng = np.random.default_rng(0)
    values = rng.normal(size=10_000)
    band = stats.confidence_band(values, 0.90)
    inside = np.mean((values >= band.low) & (values <= band.high))
    assert inside == pytest.approx(0.90, abs=0.02)
    assert band.width > 0


def test_confidence_band_validates_level():
    with pytest.raises(AnalysisError):
        stats.confidence_band([1.0], level=1.5)


def test_population_density_normalized():
    rng = np.random.default_rng(1)
    estimate = stats.population_density(rng.normal(size=5000), bins=50)
    mass = np.sum(estimate.density) * estimate.bin_width
    assert mass == pytest.approx(1.0, abs=1e-6)


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=50))
def test_cv_is_scale_invariant(values):
    cv1 = stats.coefficient_of_variation(values)
    cv2 = stats.coefficient_of_variation([v * 7.5 for v in values])
    assert cv1 == pytest.approx(cv2, rel=1e-6, abs=1e-9)


def _port_quantiles() -> np.ndarray:
    """Quantiles over every ``ndtri`` branch and its boundaries: uniform
    draws (central region and the ``z < 8`` tail), log-uniform tails
    down to 1e-300 (the ``z >= 8`` branch), upper tails ``1 - 10^-k``,
    and the branch edges themselves."""
    rng = np.random.default_rng(20)
    exp_m2 = 0.13533528323661269189
    edges = [
        math.exp(-2), 1 - math.exp(-2), exp_m2, 1 - exp_m2,
        np.nextafter(exp_m2, 0), np.nextafter(exp_m2, 1),
        np.nextafter(1 - exp_m2, 0), np.nextafter(1 - exp_m2, 1),
        math.exp(-32), np.nextafter(math.exp(-32), 0),
        np.nextafter(math.exp(-32), 1),
        5e-324, 2.2250738585072014e-308, 1e-300,
        1 - 2.0**-53, 2.0**-53, 0.5, np.nextafter(0.5, 0),
        np.nextafter(0.5, 1),
    ]
    return np.concatenate([
        rng.random(300_000),
        10.0 ** rng.uniform(-300.0, 0.0, 200_000),
        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 20_000),
        [1.0 - 10.0 ** -k for k in range(1, 16)],
        edges,
    ])


class TestNdtriPort:
    """``normal_ppf`` is a port of Cephes ``ndtri``; it must return the
    same float64 as scipy, bit for bit."""

    def test_bit_identical_to_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        scipy_stats = pytest.importorskip("scipy.stats")
        quantiles = _port_quantiles()
        quantiles = quantiles[(quantiles > 0.0) & (quantiles < 1.0)]
        assert quantiles.size >= 500_000
        ported = np.array([stats.normal_ppf(q) for q in quantiles.tolist()])
        for reference in (
            scipy_special.ndtri(quantiles),
            scipy_stats.norm.ppf(quantiles),
        ):
            mismatched = np.flatnonzero(
                ported.view(np.int64) != reference.view(np.int64)
            )
            assert mismatched.size == 0, quantiles[mismatched[:5]]

    def test_calibrations_unchanged_against_scipy(self, monkeypatch):
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.dram import calibration
        from repro.dram.profiles import MODULE_PROFILES, module_profile

        names = sorted(MODULE_PROFILES)
        ported = [calibration.calibrate(module_profile(n)) for n in names]
        monkeypatch.setattr(
            calibration, "normal_ppf",
            lambda q: float(scipy_stats.norm.ppf(q)),
        )
        for name, mine in zip(names, ported):
            theirs = calibration.calibrate(module_profile(name))
            for field in dataclasses.fields(mine):
                assert getattr(mine, field.name) == getattr(
                    theirs, field.name
                ), (name, field.name)
