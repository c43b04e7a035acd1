"""Algorithms 1-3 and WCDP determination."""

import math

import pytest

from repro.core import retention as retention_test
from repro.core import rowhammer, trcd
from repro.core.context import TestContext
from repro.core.scale import StudyScale
from repro.core.wcdp import retention_wcdp, rowhammer_wcdp, trcd_wcdp
from repro.dram import constants
from repro.dram.calibration import ModuleGeometry
from repro.dram.patterns import STANDARD_PATTERNS
from repro.errors import ConfigurationError
from repro.softmc.infrastructure import TestInfrastructure
from repro.units import ms, ns


@pytest.fixture
def ctx():
    scale = StudyScale(
        rows_per_module=8,
        row_chunks=2,
        iterations=2,
        hcfirst_min_step=4000,
        retention_windows=(ms(64.0), ms(512.0), 4.096),
        geometry=ModuleGeometry(rows_per_bank=512, banks=1, row_bits=2048),
    )
    infra = TestInfrastructure.for_module("B3", geometry=scale.geometry, seed=9)
    infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
    return TestContext(infra, scale)


def _charged_pattern(ctx, row):
    physical = ctx.infra.module.bank(0).mapping.to_physical(row)
    return STANDARD_PATTERNS[1 if physical % 2 else 0]


class TestAlgorithm1:
    def test_measure_ber_zero_at_low_hc(self, ctx):
        pattern = _charged_pattern(ctx, 20)
        assert rowhammer.measure_ber(ctx, 20, pattern, 100) == 0.0

    def test_measure_ber_monotone_in_hc(self, ctx):
        pattern = _charged_pattern(ctx, 20)
        low = rowhammer.measure_ber(ctx, 20, pattern, 50_000)
        high = rowhammer.measure_ber(ctx, 20, pattern, 2_000_000)
        assert high >= low
        assert high > 0

    def test_find_hcfirst_brackets_threshold(self, ctx):
        pattern = _charged_pattern(ctx, 20)
        hcfirst = rowhammer.find_hcfirst(ctx, 20, pattern)
        assert hcfirst is not None
        # No flips below, flips at-or-above (up to measurement jitter).
        assert rowhammer.measure_ber(ctx, 20, pattern, hcfirst // 4) == 0.0
        assert rowhammer.measure_ber(ctx, 20, pattern, hcfirst * 4) > 0.0

    def test_characterize_row_record(self, ctx):
        pattern = _charged_pattern(ctx, 20)
        record = rowhammer.characterize_row(ctx, 20, pattern, vpp=2.5)
        assert record.bank == ctx.bank
        assert record.row == 20
        assert len(record.ber_iterations) == ctx.scale.iterations
        assert record.ber == max(record.ber_iterations)

    def test_uncharged_pattern_censored(self, ctx):
        """Hammering a row whose stored pattern leaves cells uncharged
        produces no flips -> censored HC_first."""
        physical = ctx.infra.module.bank(0).mapping.to_physical(20)
        uncharged = STANDARD_PATTERNS[0 if physical % 2 else 1]
        assert rowhammer.find_hcfirst(ctx, 20, uncharged) is None


class TestBisectionControlFlow:
    """Alg. 1's bisection loop in isolation (shared by every engine)."""

    def test_censored_row_walks_up_and_returns_none(self):
        scale = StudyScale(
            hcfirst_initial=100_000, hcfirst_step=50_000,
            hcfirst_min_step=10_000,
        )
        calls = []

        def probe(hc):
            calls.append(hc)
            return False

        assert rowhammer.bisect_hcfirst(scale, 2, probe) is None
        # No flip ever: every iteration of every round is probed (no
        # short-circuit) and the hammer count only climbs.
        assert calls == [
            100_000, 100_000, 150_000, 150_000, 175_000, 175_000,
        ]

    def test_always_flipping_row_clamps_at_min_step(self):
        """A row that flips at every count drives ``hc`` negative; the
        ``hc <= 0`` branch must reset it to the termination step so the
        probe sequence never goes non-positive."""
        scale = StudyScale(
            hcfirst_initial=1_000, hcfirst_step=100_000,
            hcfirst_min_step=1_000,
        )
        calls = []

        def probe(hc):
            calls.append(hc)
            return True

        assert rowhammer.bisect_hcfirst(scale, 3, probe) == 1_000
        assert all(hc > 0 for hc in calls)
        # Every probed count is the clamped termination step, and the
        # ``any`` short-circuit probes once per round despite 3
        # iterations.
        assert calls == [1_000] * 7

    def test_first_flip_midway_tracks_lowest(self):
        scale = StudyScale(
            hcfirst_initial=100_000, hcfirst_step=50_000,
            hcfirst_min_step=25_000,
        )
        threshold = 140_000
        lowest = rowhammer.bisect_hcfirst(
            scale, 1, lambda hc: hc >= threshold
        )
        assert lowest is not None
        assert lowest >= threshold
        assert lowest - scale.hcfirst_min_step < threshold


class TestAlgorithm2:
    def test_trcd_min_at_nominal_vpp(self, ctx):
        pattern = trcd_wcdp(ctx, 20)
        value = trcd.find_trcd_min(ctx, 20, pattern)
        # B3 is a passing module: below the 13.5 ns nominal, above the
        # physical floor, and on the 1.5 ns command-clock grid.
        assert ns(6.0) <= value <= ns(13.5)
        slots = value / constants.SOFTMC_COMMAND_CLOCK
        assert slots == pytest.approx(round(slots))

    def test_trcd_min_grows_at_vppmin(self, ctx):
        pattern = trcd_wcdp(ctx, 20)
        nominal = trcd.find_trcd_min(ctx, 20, pattern)
        ctx.infra.set_vpp(ctx.infra.module.vppmin)
        reduced = trcd.find_trcd_min(ctx, 20, pattern)
        ctx.infra.set_vpp(2.5)
        assert reduced >= nominal

    def test_per_column_mode_agrees(self, ctx):
        pattern = trcd_wcdp(ctx, 20)
        fused = trcd.find_trcd_min(ctx, 20, pattern, iterations=1)
        per_column = trcd.find_trcd_min(
            ctx, 20, pattern, iterations=1, per_column=True
        )
        assert fused == pytest.approx(per_column)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterations_below_one_rejected(self, ctx, iterations):
        # 0 once fell through ``iterations or scale.iterations`` to the
        # scale default instead of being rejected.
        with pytest.raises(ConfigurationError):
            trcd.find_trcd_min(
                ctx, 20, STANDARD_PATTERNS[0], iterations=iterations
            )
        assert ctx.engine.counters.trcd_probes == 0

    def test_iterations_default_to_scale(self, ctx):
        trcd.find_trcd_min(ctx, 20, STANDARD_PATTERNS[0])
        default = ctx.engine.counters.trcd_probes
        trcd.find_trcd_min(
            ctx, 20, STANDARD_PATTERNS[0], iterations=ctx.scale.iterations
        )
        assert ctx.engine.counters.trcd_probes == 2 * default


class TestAlgorithm3:
    def test_no_flips_at_nominal_window(self, ctx):
        ctx.infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
        pattern = _charged_pattern(ctx, 30)
        ber, histogram = retention_test.measure_retention(
            ctx, 30, pattern, ms(64.0)
        )
        assert ber == 0.0
        assert histogram == {}

    def test_flips_at_long_window(self, ctx):
        ctx.infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
        pattern = _charged_pattern(ctx, 30)
        ber, histogram = retention_test.measure_retention(
            ctx, 30, pattern, 16.0
        )
        assert ber > 0.0
        assert sum(histogram.values()) > 0

    def test_characterize_row_sweeps_windows(self, ctx):
        ctx.infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
        pattern = _charged_pattern(ctx, 30)
        records = retention_test.characterize_row(ctx, 30, pattern, vpp=2.5)
        assert [r.trefw for r in records] == list(ctx.scale.retention_windows)
        bers = [r.ber for r in records]
        assert bers == sorted(bers)  # BER monotone in window


class TestWcdp:
    def test_rowhammer_wcdp_is_charged_polarity(self, ctx):
        """The worst-case pattern must charge the row's cells: 0xFF-family
        for true rows, 0x00-family for anti rows."""
        for row in (20, 21):
            physical = ctx.infra.module.bank(0).mapping.to_physical(row)
            wcdp = rowhammer_wcdp(ctx, row)
            charged_value = 0 if physical % 2 else 1
            bit = wcdp.row_bits(8)[0:8]
            # At least half the WCDP's cells must hold the charged value.
            assert (bit == charged_value).mean() >= 0.5

    def test_trcd_wcdp_returns_standard_pattern(self, ctx):
        assert trcd_wcdp(ctx, 20) in STANDARD_PATTERNS

    def test_retention_wcdp_finds_failing_pattern(self, ctx):
        ctx.infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
        wcdp = retention_wcdp(ctx, 30)
        ber, _ = retention_test.measure_retention(ctx, 30, wcdp, 16.0)
        assert ber > 0  # the WCDP must actually expose decay
