"""Timing parameter sets and the paper's methodology constants."""

import pytest

from repro.dram import constants
from repro.dram.timing import TimingParameters, quantize_to_command_clock
from repro.errors import ConfigurationError
from repro.units import ns


class TestTimingParameters:
    def test_nominal_values(self):
        timings = TimingParameters.nominal()
        assert timings.trcd == pytest.approx(ns(13.5))
        assert timings.tras == pytest.approx(ns(32.0))
        assert timings.trefw == pytest.approx(0.064)
        assert timings.trc == pytest.approx(timings.tras + timings.trp)

    def test_with_trcd_stretches_tras(self):
        timings = TimingParameters.nominal().with_trcd(ns(36.0))
        assert timings.trcd == pytest.approx(ns(36.0))
        assert timings.tras >= timings.trcd

    def test_with_trefw(self):
        timings = TimingParameters.nominal().with_trefw(0.128)
        assert timings.trefw == 0.128

    def test_positive_values_enforced(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(trcd=0.0)

    def test_tras_must_cover_trcd(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(trcd=ns(40.0), tras=ns(32.0))

    def test_quantization_rounds_up(self):
        assert quantize_to_command_clock(ns(13.5)) == pytest.approx(ns(13.5))
        assert quantize_to_command_clock(ns(13.6)) == pytest.approx(ns(15.0))
        assert quantize_to_command_clock(ns(0.1)) == pytest.approx(ns(1.5))

    def test_quantization_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            quantize_to_command_clock(0.0)


def test_paper_constants():
    """Key methodology constants straight from the paper."""
    assert constants.NOMINAL_VPP == 2.5
    assert constants.VPP_STEP == 0.1
    assert constants.NOMINAL_TRCD == pytest.approx(ns(13.5))
    assert constants.SOFTMC_COMMAND_CLOCK == pytest.approx(ns(1.5))
    assert constants.BER_HAMMER_COUNT == 300_000
    assert constants.HCFIRST_INITIAL_STEP == 150_000
    assert constants.PAPER_NUM_ITERATIONS == 10
    assert constants.PAPER_ROWS_PER_MODULE == 4096
    assert constants.ROWHAMMER_TEST_TEMPERATURE == 50.0
    assert constants.RETENTION_TEST_TEMPERATURE == 80.0
    assert constants.RETENTION_TREFW_MIN == pytest.approx(0.016)
    assert constants.RETENTION_TREFW_MAX == pytest.approx(16.384)
