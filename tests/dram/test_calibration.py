"""Anchor-to-parameter calibration."""

import math
from statistics import NormalDist

import pytest

from repro.dram.calibration import (
    BULK_SIGMA,
    ModuleGeometry,
    calibrate,
)
from repro.dram.profiles import MODULE_PROFILES, module_profile
from repro.errors import ConfigurationError
from repro.units import ns


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        ModuleGeometry(rows_per_bank=100)  # not a power of two
    with pytest.raises(ConfigurationError):
        ModuleGeometry(row_bits=100)  # not a multiple of 64
    with pytest.raises(ConfigurationError):
        ModuleGeometry(banks=0)


def test_geometry_derived_sizes():
    geometry = ModuleGeometry(rows_per_bank=1024, banks=2, row_bits=4096)
    assert geometry.row_bytes == 512
    assert geometry.columns == 64


def test_all_profiles_calibrate():
    for name in MODULE_PROFILES:
        calibration = calibrate(module_profile(name))
        assert calibration.bulk_sigma == BULK_SIGMA
        assert calibration.outlier_rate > 0
        assert calibration.retention_sigma > 0


def test_outlier_anchor_places_minimum_at_hcfirst():
    """The expected minimum outlier tolerance over the paper's row count
    should land on the HC_first anchor."""
    calibration = calibrate(module_profile("B3"))
    profile = calibration.profile
    # quantile of the minimum over ~4096 outliers
    from repro.stats import normal_ppf

    z_min = normal_ppf(1.0 / (4096 * calibration.outlier_rate + 1.0))
    expected_min = math.exp(
        calibration.outlier_log_median + calibration.outlier_sigma * z_min
    )
    assert expected_min == pytest.approx(profile.hcfirst_nominal, rel=0.01)


def test_bulk_anchor_reproduces_ber():
    """A row at the 10% weakness quantile must show the Table 3 BER at
    300K hammers."""
    calibration = calibrate(module_profile("C5"))
    profile = calibration.profile
    from repro.stats import normal_ppf

    log_w_anchor = (
        calibration.bulk_log_weakness
        + calibration.vendor.row_sigma * normal_ppf(0.10)
    )
    ber = NormalDist().cdf(
        (math.log(300_000) - log_w_anchor) / calibration.bulk_sigma
    )
    assert float(ber) == pytest.approx(profile.ber_nominal, rel=0.01)


def test_gamma_outlier_reproduces_hcfirst_ratio():
    calibration = calibrate(module_profile("B3"))
    profile = calibration.profile
    scale = float(
        calibration.disturbance.tolerance_scale(
            profile.vppmin, calibration.gamma_outlier_mean
        )
    )
    assert scale == pytest.approx(
        profile.hcfirst_at_vppmin / profile.hcfirst_nominal, rel=1e-6
    )


def test_reversal_module_gets_negative_outlier_gamma():
    # B9's HC_first *drops* at V_PPmin (8.8K from 11.8K).
    calibration = calibrate(module_profile("B9"))
    assert calibration.gamma_outlier_mean < 0


def test_activation_anchors():
    """The activation model must hit the module's tRCD anchors at the
    worst-row level."""
    for name in ("A0", "B2", "C5"):
        calibration = calibrate(module_profile(name))
        profile = calibration.profile
        worst_factor = math.exp(
            calibration.trcd_row_sigma * 3.53  # ~ppf(4096/4097)
        )
        nominal = calibration.activation.trcd_min(2.5) * worst_factor
        at_vppmin = calibration.activation.trcd_min(profile.vppmin) * worst_factor
        assert nominal == pytest.approx(ns(profile.trcd_nominal_ns), rel=0.05)
        assert at_vppmin == pytest.approx(
            ns(profile.trcd_at_vppmin_ns), rel=0.08
        )


def test_retention_beta_reproduces_vendor_anchor_shift():
    calibration = calibrate(module_profile("C5"))
    vendor = calibration.vendor
    # At 1.5 V the 4 s BER must move from the nominal anchor to the
    # low-V_PP anchor: Phi(z_nom - ln(margin)/sigma) == ber_lowvpp.
    margin = calibration.retention.margin_factor(1.5)
    from repro.stats import normal_ppf

    z_nom = normal_ppf(vendor.retention_ber_4s_nominal)
    # margin < 1 shifts retention down; predicted BER at 1.5 V:
    predicted = NormalDist().cdf(z_nom + math.log(1.0 / margin) / vendor.retention_sigma)
    assert float(predicted) == pytest.approx(
        vendor.retention_ber_4s_lowvpp, rel=0.05
    )


def test_calibration_deterministic():
    a = calibrate(module_profile("A4"))
    b = calibrate(module_profile("A4"))
    assert a.gamma_bulk_mean == b.gamma_bulk_mean
    assert a.bulk_log_weakness == b.bulk_log_weakness
