"""Analytic device-physics models (transistor, restoration, activation,
disturbance, retention)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.physics.activation import ActivationModel
from repro.dram.physics.disturbance import DisturbanceModel
from repro.dram.physics.restoration import RestorationModel
from repro.dram.physics.retention_model import RetentionModel
from repro.dram.physics.transistor import AccessTransistorModel
from repro.errors import ConfigurationError
from repro.units import ns

#: Threshold voltage that reproduces the paper's SPICE saturation numbers
#: (Observation 10: cell saturates 4.1 % / 11.0 % / 18.1 % below V_DD at
#: V_PP = 1.9 / 1.8 / 1.7 V, i.e. V_sat = V_PP - 0.72 V).
SPICE_VTH = 0.72

SPICE_RESTORATION = RestorationModel(
    transistor=AccessTransistorModel(vth=SPICE_VTH)
)


def saturation_deficit(model, vpp):
    """Fractional shortfall of the restored level below V_DD: zero while
    ``vpp >= vdd + vth``, e.g. 0.181 at V_PP = 1.7 V with the SPICE
    threshold (Observation 10)."""
    return 1.0 - model.saturation_voltage(vpp) / model.vdd


class TestTransistor:
    def test_overdrive_positive_above_threshold(self):
        model = AccessTransistorModel(vth=0.72, smoothing=0.0)
        assert model.overdrive(2.5, 0.6) == pytest.approx(1.18)

    def test_overdrive_clamps_below_threshold(self):
        model = AccessTransistorModel(vth=0.72, smoothing=0.0)
        assert model.overdrive(1.0, 0.6) == 0.0

    def test_smoothing_approximates_hard_max(self):
        soft = AccessTransistorModel(vth=0.72, smoothing=0.02)
        assert soft.overdrive(2.5, 0.6) == pytest.approx(1.18, abs=1e-3)

    def test_conducts(self):
        model = AccessTransistorModel(vth=0.72)
        assert model.conducts(2.5, 0.6)
        assert not model.conducts(1.3, 0.6)

    def test_saturation_is_min_of_vdd_and_overdrive(self):
        model = AccessTransistorModel(vth=SPICE_VTH)
        assert model.max_restorable_voltage(2.5, 1.2) == pytest.approx(1.2)
        # Observation 10: V_sat = V_PP - V_TH below the knee.
        assert model.max_restorable_voltage(1.7, 1.2) == pytest.approx(0.98)

    def test_vth_range_validated(self):
        with pytest.raises(ConfigurationError):
            AccessTransistorModel(vth=3.0)


class TestRestoration:
    def test_observation_10_deficits(self):
        # 4.1% / 11.0% / 18.1% below V_DD at 1.9 / 1.8 / 1.7 V: our hard
        # min() model gives 1.7% / 10% / 18.3% -- same knee, same scale.
        assert saturation_deficit(SPICE_RESTORATION, 2.5) == 0.0
        assert saturation_deficit(SPICE_RESTORATION, 1.8) == pytest.approx(
            0.10, abs=0.02
        )
        assert saturation_deficit(SPICE_RESTORATION, 1.7) == pytest.approx(
            0.181, abs=0.02
        )

    def test_margin_ratio_monotone_in_vpp(self):
        ratios = [SPICE_RESTORATION.margin_ratio(v) for v in (2.5, 2.0, 1.8, 1.6)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(1.0)

    def test_restored_voltage_approaches_saturation(self):
        v = SPICE_RESTORATION.restored_voltage(2.5, duration=ns(200))
        assert v == pytest.approx(SPICE_RESTORATION.saturation_voltage(2.5), abs=1e-3)

    def test_restoration_latency_grows_at_reduced_vpp(self):
        fast = SPICE_RESTORATION.restoration_latency(2.5)
        slow = SPICE_RESTORATION.restoration_latency(1.9)
        assert slow > fast

    def test_below_conduction_saturation_collapses(self):
        # Below V_TH + V_start the cell cannot even hold the charge-shared
        # level: the saturation voltage sits at/below the start point and
        # the "restoration" degenerates (latency 0, nothing to restore).
        assert SPICE_RESTORATION.saturation_voltage(0.8) <= 0.6
        assert SPICE_RESTORATION.restoration_latency(0.8) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SPICE_RESTORATION.restored_voltage(2.5, duration=-1.0)


class TestActivation:
    model = ActivationModel(restoration=SPICE_RESTORATION)

    def test_observation_8_calibration(self):
        # Paper: mean tRCD_min 11.6 ns at 2.5 V, ~13.6 ns at 1.7 V.
        assert self.model.trcd_min(2.5) == pytest.approx(ns(11.6), rel=0.02)
        assert self.model.trcd_min(1.7) == pytest.approx(ns(13.6), rel=0.02)

    def test_trcd_monotone_decreasing_in_vpp(self):
        values = [self.model.trcd_min(v) for v in (2.5, 2.2, 1.9, 1.7, 1.5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_footnote_13_unreliable_below_1_6(self):
        # SPICE-level model crosses the 13.5 ns nominal just below 1.7 V.
        assert self.model.trcd_min(1.6) > ns(13.5)

    def test_infinite_below_conduction(self):
        assert math.isinf(self.model.trcd_min(0.5))

    def test_ratio_is_one_at_nominal(self):
        assert self.model.trcd_ratio(2.5) == pytest.approx(1.0)


class TestDisturbance:
    model = DisturbanceModel(restoration=SPICE_RESTORATION)

    def test_coupling_decreases_with_vpp_for_positive_gamma(self):
        assert self.model.coupling_ratio(1.6, 1.0) < 1.0
        assert self.model.coupling_ratio(2.5, 1.0) == pytest.approx(1.0)

    def test_zero_gamma_is_vpp_insensitive(self):
        assert self.model.coupling_ratio(1.5, 0.0) == pytest.approx(1.0)

    def test_tolerance_scale_above_one_for_strong_coupling(self):
        assert float(self.model.tolerance_scale(1.6, 1.5)) > 1.0

    def test_negative_gamma_produces_reversal(self):
        # Observation 5: some rows' HC_first *drops* at reduced V_PP.
        assert float(self.model.tolerance_scale(1.6, -0.5)) < 1.0

    def test_solve_gamma_roundtrip(self):
        for target in (0.9, 1.0, 1.27, 1.86):
            gamma = self.model.solve_gamma(1.6, target)
            assert float(
                self.model.tolerance_scale(1.6, gamma)
            ) == pytest.approx(target, rel=1e-9)

    def test_solve_gamma_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            self.model.solve_gamma(2.5, 1.1)
        with pytest.raises(ConfigurationError):
            self.model.solve_gamma(1.6, -1.0)

    def test_vectorized_gamma(self):
        gammas = np.array([0.0, 0.5, 1.0])
        scales = np.asarray(self.model.tolerance_scale(1.6, gammas))
        assert scales.shape == (3,)
        assert scales[2] > scales[1] > scales[0] * 0.999

    @given(st.floats(min_value=1.0, max_value=2.4),
           st.floats(min_value=0.5, max_value=2.0))
    def test_solve_gamma_roundtrip_property(self, vpp, target):
        gamma = self.model.solve_gamma(vpp, target)
        assert float(self.model.tolerance_scale(vpp, gamma)) == pytest.approx(
            target, rel=1e-6
        )


class TestRetentionModel:
    model = RetentionModel(restoration=SPICE_RESTORATION)

    def test_margin_factor_one_at_nominal(self):
        assert self.model.margin_factor(2.5) == pytest.approx(1.0)

    def test_margin_factor_decreases_gradually(self):
        factors = [self.model.margin_factor(v) for v in (2.5, 2.2, 2.0, 1.8)]
        assert all(a > b for a, b in zip(factors, factors[1:]))

    def test_temperature_halves_per_10c(self):
        assert self.model.temperature_factor(90.0) == pytest.approx(0.5)
        assert self.model.temperature_factor(70.0) == pytest.approx(2.0)
        assert self.model.temperature_factor(80.0) == pytest.approx(1.0)

    def test_retention_time_combines_factors(self):
        nominal = np.array([1.0, 2.0])
        scaled = self.model.retention_time(nominal, vpp=2.5, temperature=70.0)
        assert np.allclose(scaled, nominal * 2.0)

    def test_partial_restoration_shortens_retention(self):
        full = self.model.retention_time(1.0, vpp=2.5, restored_fraction=1.0)
        partial = self.model.retention_time(1.0, vpp=2.5, restored_fraction=0.5)
        assert partial < full

    def test_restored_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            self.model.retention_time(1.0, vpp=2.5, restored_fraction=0.0)
