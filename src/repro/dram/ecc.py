"""Hamming SECDED (72, 64) error-correcting code.

The paper's Observation 14 concludes that all data-retention bit flips at
the first failing refresh window are correctable by a *single-error
correcting, double-error detecting* code over 64-bit data words -- the
standard rank-level ECC configuration [54, 32, 128]. This module
implements that code so the mitigation analysis can actually encode,
corrupt, and decode words rather than merely counting flips.

Construction: an extended Hamming code. Seven parity bits cover the
positions whose index has the corresponding bit set (classic Hamming
H(71,64) layout over positions 1..71), plus one overall parity bit for
double-error detection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, UncorrectableError

DATA_BITS = 64
PARITY_BITS = 7  # Hamming parity bits (positions 1, 2, 4, ..., 64)
CODE_BITS = DATA_BITS + PARITY_BITS + 1  # + overall parity = 72


class DecodeStatus(enum.Enum):
    """Outcome classification of a SECDED decode."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED = "detected"  # double error: detected, not correctable


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one 72-bit codeword."""

    data: np.ndarray  # (64,) uint8 bit array
    status: DecodeStatus
    corrected_position: int = -1  # codeword bit index, -1 if none


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _hamming_positions() -> np.ndarray:
    """Codeword positions 1..71 that carry data bits (non powers of two)."""
    return np.array(
        [p for p in range(1, DATA_BITS + PARITY_BITS + 1) if not _is_power_of_two(p)],
        dtype=np.int64,
    )


_DATA_POSITIONS = _hamming_positions()
_PARITY_POSITIONS = np.array([1 << i for i in range(PARITY_BITS)], dtype=np.int64)


def _check_bits(word: np.ndarray, length: int, name: str) -> np.ndarray:
    arr = np.asarray(word, dtype=np.uint8)
    if arr.shape != (length,):
        raise ConfigurationError(
            f"{name} must be a ({length},) bit array, got shape {arr.shape}"
        )
    if np.any(arr > 1):
        raise ConfigurationError(f"{name} must contain only 0/1 values")
    return arr


class SecdedCodec:
    """Encoder/decoder for the (72, 64) extended Hamming code.

    The codec works on bit arrays (uint8 vectors of 0/1). Helpers convert
    to and from 64-bit integers for convenience.
    """

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode 64 data bits into a 72-bit codeword.

        Codeword layout: index 0 is the overall parity bit; indices 1..71
        follow the classic Hamming numbering (parity at powers of two).
        """
        data = _check_bits(data_bits, DATA_BITS, "data_bits")
        code = np.zeros(CODE_BITS, dtype=np.uint8)
        code[_DATA_POSITIONS] = data
        for i, pos in enumerate(_PARITY_POSITIONS):
            covered = np.arange(1, CODE_BITS)
            mask = (covered & pos) != 0
            code[pos] = np.bitwise_xor.reduce(code[covered[mask]])
        code[0] = np.bitwise_xor.reduce(code)  # overall parity (even)
        return code

    def decode(self, codeword: np.ndarray) -> DecodeResult:
        """Decode a 72-bit codeword, correcting up to one flipped bit.

        Raises
        ------
        UncorrectableError
            When the syndrome indicates a double (or worse even-weight)
            error: detected but not correctable.
        """
        code = _check_bits(codeword, CODE_BITS, "codeword").copy()
        syndrome = 0
        for i, pos in enumerate(_PARITY_POSITIONS):
            covered = np.arange(1, CODE_BITS)
            mask = (covered & pos) != 0
            if np.bitwise_xor.reduce(code[covered[mask]]):
                syndrome |= pos
        overall = int(np.bitwise_xor.reduce(code))

        if syndrome == 0 and overall == 0:
            return DecodeResult(data=code[_DATA_POSITIONS], status=DecodeStatus.CLEAN)
        if syndrome == 0 and overall == 1:
            # the overall parity bit itself flipped
            code[0] ^= 1
            return DecodeResult(
                data=code[_DATA_POSITIONS],
                status=DecodeStatus.CORRECTED,
                corrected_position=0,
            )
        if syndrome != 0 and overall == 1:
            # single error at position `syndrome`
            if syndrome >= CODE_BITS:
                raise UncorrectableError(
                    f"syndrome {syndrome} outside the codeword: multi-bit error"
                )
            code[syndrome] ^= 1
            return DecodeResult(
                data=code[_DATA_POSITIONS],
                status=DecodeStatus.CORRECTED,
                corrected_position=int(syndrome),
            )
        # syndrome != 0 and overall parity even: double error
        raise UncorrectableError(
            f"double-bit error detected (syndrome {syndrome:#x})"
        )

    # -- integer convenience ---------------------------------------------------

    @staticmethod
    def bits_from_int(value: int) -> np.ndarray:
        """Little-endian 64-bit array from an unsigned integer."""
        if not 0 <= value < (1 << DATA_BITS):
            raise ConfigurationError(f"value out of 64-bit range: {value}")
        return np.array(
            [(value >> i) & 1 for i in range(DATA_BITS)], dtype=np.uint8
        )


def count_correctable_words(word_flip_counts: np.ndarray) -> dict:
    """Classify 64-bit data words by SECDED outcome given per-word flip
    counts (the analysis behind Observation 14 / Figure 11).

    Returns a dict with keys ``clean``, ``correctable`` (exactly one
    flip), and ``uncorrectable`` (two or more flips).
    """
    counts = np.asarray(word_flip_counts)
    if counts.ndim != 1:
        raise ConfigurationError("word_flip_counts must be one-dimensional")
    return {
        "clean": int(np.count_nonzero(counts == 0)),
        "correctable": int(np.count_nonzero(counts == 1)),
        "uncorrectable": int(np.count_nonzero(counts >= 2)),
    }
