"""Result containers and analysis aggregation (synthetic data)."""

import pytest

from repro.core.analysis import (
    normalized_curves,
    retention_curves,
    retention_density_at,
    trend_summary,
    vppmin_densities,
)
from repro.core.guardband import analyze_guardband, analyze_module
from repro.core.mitigation import (
    ecc_report,
    recommend_vpp,
    selective_refresh_report,
    smallest_failing_window,
)
from repro.core.results import (
    ModuleResult,
    RetentionRow,
    RetentionTable,
    RowHammerRow,
    RowHammerTable,
    TrcdRow,
    TrcdTable,
)
from repro.core.scale import StudyScale
from repro.core.study import StudyResult
from repro.errors import AnalysisError, ConfigurationError
from repro.units import ms, ns


def _rh(row, vpp, hcfirst, ber):
    return RowHammerRow(
        bank=0, row=row, vpp=vpp, wcdp_index=0,
        hcfirst=hcfirst, ber=ber, ber_iterations=(ber,),
    )


def _trcd(row, vpp, value_ns):
    return TrcdRow(
        bank=0, row=row, vpp=vpp, wcdp_index=0,
        trcd_min=ns(value_ns),
    )


def _ret(row, vpp, trefw, ber, histogram=None):
    return RetentionRow(
        bank=0, row=row, vpp=vpp, trefw=trefw,
        wcdp_index=0, ber=ber, word_flip_histogram=histogram or {},
    )


@pytest.fixture
def synthetic_study():
    """Two modules with hand-built, fully known results."""
    m1 = ModuleResult(module="X1", vendor="A", vppmin=1.6,
                      vpp_levels=[2.5, 1.6])
    # Row 1 improves (HC up, BER down); row 2 worsens.
    m1.rowhammer = RowHammerTable.from_rows([
        _rh(1, 2.5, 10_000, 0.010),
        _rh(2, 2.5, 20_000, 0.020),
        _rh(1, 1.6, 15_000, 0.005),
        _rh(2, 1.6, 18_000, 0.024),
    ])
    m1.trcd = TrcdTable.from_rows([
        _trcd(1, 2.5, 10.5), _trcd(2, 2.5, 12.0),
        _trcd(1, 1.6, 12.0), _trcd(2, 1.6, 13.5),
    ])
    m1.retention = RetentionTable.from_rows([
        _ret(1, 2.5, ms(64.0), 0.0),
        _ret(1, 2.5, 4.0, 0.001, {1: 2}),
        _ret(1, 1.6, ms(64.0), 0.0005, {1: 1}),
        _ret(1, 1.6, 4.0, 0.002, {1: 3, 2: 0}),
    ])
    m2 = ModuleResult(module="Y1", vendor="B", vppmin=2.0,
                      vpp_levels=[2.5, 2.0])
    m2.rowhammer = RowHammerTable.from_rows([
        _rh(5, 2.5, 8_000, 0.10),
        _rh(5, 2.0, 9_000, 0.09),
    ])
    m2.trcd = TrcdTable.from_rows([
        _trcd(5, 2.5, 12.0), _trcd(5, 2.0, 15.0),
    ])
    study = StudyResult(scale=StudyScale.tiny(), seed=0)
    study.modules = {"X1": m1, "Y1": m2}
    return study


class TestModuleResult:
    def test_accessors(self, synthetic_study):
        module = synthetic_study.module("X1")
        assert module.min_hcfirst(2.5) == 10_000
        assert module.max_ber(2.5) == 0.020
        assert module.max_trcd_min(2.5) == pytest.approx(ns(12.0))
        assert module.mean_retention_ber(2.5, 4.0) == pytest.approx(0.001)

    def test_missing_data_raises(self, synthetic_study):
        module = synthetic_study.module("X1")
        with pytest.raises(AnalysisError):
            module.max_ber(9.9)
        with pytest.raises(ConfigurationError):
            synthetic_study.module("nope")

    def test_word_properties(self):
        table = RetentionTable.from_rows([
            _ret(1, 2.5, 4.0, 0.01, {1: 4, 2: 1, 3: 2}),
            _ret(2, 2.5, 4.0, 0.0),
        ])
        assert table.words_with_one_flip.tolist() == [4, 0]
        assert table.words_uncorrectable.tolist() == [3, 0]

    def test_by_vendor(self, synthetic_study):
        assert [m.module for m in synthetic_study.by_vendor("A")] == ["X1"]


class TestAnalysis:
    def test_normalized_curves(self, synthetic_study):
        curves = normalized_curves(synthetic_study, "ber")
        x1 = curves["X1"]
        # Mean of (0.005/0.010, 0.024/0.020) at 1.6 V.
        assert x1.at(1.6) == pytest.approx((0.5 + 1.2) / 2)
        assert x1.at(2.5) == pytest.approx(1.0)

    def test_normalized_hcfirst(self, synthetic_study):
        curves = normalized_curves(synthetic_study, "hcfirst")
        assert curves["X1"].at(1.6) == pytest.approx((1.5 + 0.9) / 2)

    def test_unknown_metric(self, synthetic_study):
        with pytest.raises(AnalysisError):
            normalized_curves(synthetic_study, "zebra")

    def test_vppmin_densities_per_vendor(self, synthetic_study):
        densities = vppmin_densities(synthetic_study, "ber")
        assert set(densities) == {"A", "B"}
        assert densities["A"]["min"] == pytest.approx(0.5)
        assert densities["A"]["max"] == pytest.approx(1.2)

    def test_trend_summary(self, synthetic_study):
        summary = trend_summary(synthetic_study, "hcfirst")
        # Three rows total at V_PPmin: +50%, -10%, +12.5%.
        assert summary.fraction_increasing == pytest.approx(2 / 3)
        assert summary.fraction_decreasing == pytest.approx(1 / 3)
        assert summary.max_increase == pytest.approx(0.5)
        assert summary.max_decrease == pytest.approx(0.1)

    def test_retention_curves(self, synthetic_study):
        curves = retention_curves(synthetic_study)
        by_vpp = {c.vpp: c for c in curves}
        assert by_vpp[2.5].mean_ber[-1] == pytest.approx(0.001)
        assert by_vpp[1.6].windows == [ms(64.0), 4.0]

    def test_retention_density_at(self, synthetic_study):
        density = retention_density_at(synthetic_study, 4.0)
        assert density["A"]["mean_by_vpp"][1.6] == pytest.approx(0.002)


class TestGuardband:
    def test_module_report(self, synthetic_study):
        report = analyze_module(synthetic_study.module("X1"))
        assert report.meets_nominal_trcd
        assert report.guardband_nominal == pytest.approx(
            (13.5 - 12.0) / 13.5
        )
        assert report.guardband_vppmin == pytest.approx(0.0)
        assert report.guardband_reduction == pytest.approx(1.0)

    def test_failing_module_required_trcd(self, synthetic_study):
        report = analyze_module(synthetic_study.module("Y1"))
        assert not report.meets_nominal_trcd
        assert report.required_trcd == pytest.approx(ns(15.0))

    def test_summary(self, synthetic_study):
        summary = analyze_guardband(synthetic_study)
        assert summary.passing_modules == ["X1"]
        assert summary.failing_modules == ["Y1"]
        assert "1 of 2" in summary.passing_chip_statement


class TestMitigation:
    def test_smallest_failing_window(self, synthetic_study):
        module = synthetic_study.module("X1")
        assert smallest_failing_window(module, 1.6) == pytest.approx(ms(64.0))
        assert smallest_failing_window(module, 2.5) == pytest.approx(4.0)

    def test_ecc_report(self, synthetic_study):
        module = synthetic_study.module("X1")
        report = ecc_report(module, 1.6)
        assert report.trefw == pytest.approx(ms(64.0))
        assert report.words_correctable == 1
        assert report.all_correctable

    def test_ecc_report_none_when_clean(self):
        module = ModuleResult(module="Z", vendor="C", vppmin=1.5,
                              vpp_levels=[2.5, 1.5])
        module.retention = RetentionTable.from_rows(
            [_ret(1, 1.5, ms(64.0), 0.0)]
        )
        assert ecc_report(module, 1.5) is None

    def test_selective_refresh(self, synthetic_study):
        module = synthetic_study.module("X1")
        report = selective_refresh_report(module, 1.6, 4.0)
        # Row 1 already failed at 64 ms, so nothing *newly* fails at 4 s.
        assert report.newly_failing_rows == 0
        report64 = selective_refresh_report(module, 1.6, ms(64.0))
        assert report64.newly_failing_rows == 1
        assert report64.row_fraction == 1.0

    def test_recommendation_prefers_lowest_good_vpp(self, synthetic_study):
        module = synthetic_study.module("Y1")
        recommendation = recommend_vpp(module)
        # Y1's only reduced level fails nominal tRCD -> stay at 2.5.
        assert recommendation.vpp == 2.5

    def test_recommendation_accepts_clean_improvement(self):
        module = ModuleResult(module="Z", vendor="C", vppmin=1.5,
                              vpp_levels=[2.5, 1.5])
        module.rowhammer = RowHammerTable.from_rows([
            _rh(1, 2.5, 10_000, 0.02),
            _rh(1, 1.5, 12_000, 0.01),
        ])
        recommendation = recommend_vpp(module)
        assert recommendation.vpp == 1.5
        assert recommendation.hcfirst == 12_000


class TestVendorTrendDetails:
    def test_ber_improvement_statistics(self, synthetic_study):
        from repro.core.analysis import vendor_trend_details

        details = vendor_trend_details(
            synthetic_study, "ber", improvement_sign=-1.0
        )
        # Vendor A: row 1 improved 50% (>5%), row 2 worsened 20%.
        a = details["A"]
        assert a.rows == 2
        assert a.fraction_improved_over_5pct == pytest.approx(0.5)
        assert a.fraction_flat_within_2pct == 0.0
        assert a.fraction_increasing == pytest.approx(0.5)
        # Vendor B: one row improved 10%.
        b = details["B"]
        assert b.fraction_improved_over_5pct == pytest.approx(1.0)

    def test_hcfirst_sign_convention(self, synthetic_study):
        from repro.core.analysis import vendor_trend_details

        details = vendor_trend_details(
            synthetic_study, "hcfirst", improvement_sign=1.0
        )
        # Vendor A rows: +50% and -10% -> one improvement over 5%.
        assert details["A"].fraction_improved_over_5pct == pytest.approx(0.5)

    def test_sign_validated(self, synthetic_study):
        from repro.core.analysis import vendor_trend_details
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            vendor_trend_details(synthetic_study, "ber", improvement_sign=2.0)
