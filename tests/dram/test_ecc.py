"""Hamming SECDED (72, 64) codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.ecc import (
    CODE_BITS,
    DATA_BITS,
    DecodeStatus,
    SecdedCodec,
    count_correctable_words,
)
from repro.errors import ConfigurationError, UncorrectableError

codec = SecdedCodec()


def _int_from_bits(bits):
    """Unsigned integer from a little-endian 64-bit array."""
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def _random_word(seed):
    return np.random.default_rng(seed).integers(0, 2, DATA_BITS).astype(np.uint8)


def test_codeword_length():
    assert codec.encode(_random_word(0)).shape == (CODE_BITS,)


def test_clean_roundtrip():
    data = _random_word(1)
    result = codec.decode(codec.encode(data))
    assert result.status is DecodeStatus.CLEAN
    assert np.array_equal(result.data, data)


@pytest.mark.parametrize("position", [0, 1, 2, 3, 17, 36, 64, 71])
def test_single_error_corrected_at_any_position(position):
    data = _random_word(2)
    codeword = codec.encode(data)
    codeword[position] ^= 1
    result = codec.decode(codeword)
    assert result.status is DecodeStatus.CORRECTED
    assert result.corrected_position == position
    assert np.array_equal(result.data, data)


def test_double_error_detected_not_corrected():
    data = _random_word(3)
    codeword = codec.encode(data)
    codeword[5] ^= 1
    codeword[40] ^= 1
    with pytest.raises(UncorrectableError):
        codec.decode(codeword)


def test_int_conversion_roundtrip():
    value = 0xDEAD_BEEF_CAFE_F00D
    assert _int_from_bits(codec.bits_from_int(value)) == value


def test_int_conversion_range_checked():
    with pytest.raises(ConfigurationError):
        codec.bits_from_int(1 << 64)
    with pytest.raises(ConfigurationError):
        codec.bits_from_int(-1)


def test_bit_vector_validation():
    with pytest.raises(ConfigurationError):
        codec.encode(np.zeros(63, dtype=np.uint8))
    with pytest.raises(ConfigurationError):
        codec.decode(np.full(CODE_BITS, 2, dtype=np.uint8))


def test_count_correctable_words():
    verdict = count_correctable_words(np.array([0, 1, 1, 2, 0, 3]))
    assert verdict == {"clean": 2, "correctable": 2, "uncorrectable": 2}


def test_count_correctable_words_requires_1d():
    with pytest.raises(ConfigurationError):
        count_correctable_words(np.zeros((2, 2)))


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_roundtrip_property(value):
    data = codec.bits_from_int(value)
    result = codec.decode(codec.encode(data))
    assert result.status is DecodeStatus.CLEAN
    assert _int_from_bits(result.data) == value


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=CODE_BITS - 1),
)
def test_any_single_flip_is_corrected_property(value, position):
    data = codec.bits_from_int(value)
    codeword = codec.encode(data)
    codeword[position] ^= 1
    result = codec.decode(codeword)
    assert result.status is DecodeStatus.CORRECTED
    assert _int_from_bits(result.data) == value


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=CODE_BITS - 1),
    st.integers(min_value=0, max_value=CODE_BITS - 1),
)
def test_any_double_flip_is_detected_property(value, pos_a, pos_b):
    if pos_a == pos_b:
        return
    codeword = codec.encode(codec.bits_from_int(value))
    codeword[pos_a] ^= 1
    codeword[pos_b] ^= 1
    with pytest.raises(UncorrectableError):
        codec.decode(codeword)


class TestBatchCodec:
    from tests.dram.batch_secded import BatchSecdedCodec

    batch = BatchSecdedCodec()

    def _random_words(self, count, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, (count, DATA_BITS)).astype(np.uint8)

    def test_matches_scalar_encoder(self):
        data = self._random_words(32)
        codes = self.batch.encode_many(data)
        for i in range(32):
            assert np.array_equal(codes[i], codec.encode(data[i]))

    def test_clean_roundtrip(self):
        data = self._random_words(16, seed=1)
        out, corrected, uncorrectable = self.batch.decode_many(
            self.batch.encode_many(data)
        )
        assert np.array_equal(out, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    def test_single_errors_corrected_per_row(self):
        data = self._random_words(8, seed=2)
        codes = self.batch.encode_many(data)
        positions = [0, 1, 17, 36, 64, 71, 5, 23]
        for row, position in enumerate(positions):
            codes[row, position] ^= 1
        out, corrected, uncorrectable = self.batch.decode_many(codes)
        assert corrected.all()
        assert not uncorrectable.any()
        assert np.array_equal(out, data)

    def test_double_errors_flagged(self):
        data = self._random_words(4, seed=3)
        codes = self.batch.encode_many(data)
        codes[2, 5] ^= 1
        codes[2, 40] ^= 1
        out, corrected, uncorrectable = self.batch.decode_many(codes)
        assert uncorrectable[2]
        assert not corrected[2]
        assert not uncorrectable[[0, 1, 3]].any()

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            self.batch.encode_many(np.zeros((4, 63), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            self.batch.decode_many(np.zeros((4, 71), dtype=np.uint8))
