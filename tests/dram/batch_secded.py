"""A vectorized SECDED codec, checked against the scalar one.

:class:`BatchSecdedCodec` encodes and decodes many 64-bit words at once
with the same (72, 64) extended Hamming code as
:class:`repro.dram.ecc.SecdedCodec`, the codec the memory controller
runs. No ``src/`` path uses it: ``tests/dram/test_ecc.py`` and
``tests/test_misc_coverage.py`` compare the two codecs word for word,
and ``benchmarks/test_microbenchmarks.py`` times it.
"""

import numpy as np

from repro.dram.ecc import (
    _DATA_POSITIONS,
    _PARITY_POSITIONS,
    CODE_BITS,
    DATA_BITS,
    PARITY_BITS,
)
from repro.errors import ConfigurationError


class BatchSecdedCodec:
    """Vectorized encoder/decoder for many 64-bit words at once.

    Matrix formulation of the same (72, 64) extended Hamming code as
    :class:`SecdedCodec`: parity bits are XOR-sums selected by the
    positional bitmask, computed as boolean matrix products; results
    are bit-identical to the scalar codec.
    """

    def __init__(self):
        positions = np.arange(1, CODE_BITS)
        # parity_matrix[i, j]: parity bit i covers codeword position j+1.
        self._parity_matrix = (
            (positions[None, :] & _PARITY_POSITIONS[:, None]) != 0
        )
        # Restriction of the coverage matrix to data positions.
        data_index = {int(p): k for k, p in enumerate(_DATA_POSITIONS)}
        self._data_cover = np.zeros((PARITY_BITS, DATA_BITS), dtype=bool)
        for i in range(PARITY_BITS):
            for j, position in enumerate(positions):
                if self._parity_matrix[i, j] and int(position) in data_index:
                    self._data_cover[i, data_index[int(position)]] = True

    def encode_many(self, data_words: np.ndarray) -> np.ndarray:
        """Encode an (N, 64) bit array into an (N, 72) codeword array."""
        data = np.asarray(data_words, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != DATA_BITS:
            raise ConfigurationError(
                f"data_words must be (N, {DATA_BITS}), got {data.shape}"
            )
        count = data.shape[0]
        codes = np.zeros((count, CODE_BITS), dtype=np.uint8)
        codes[:, _DATA_POSITIONS] = data
        parities = (data @ self._data_cover.T.astype(np.uint8)) & 1
        codes[:, _PARITY_POSITIONS] = parities
        codes[:, 0] = codes.sum(axis=1) & 1
        return codes

    def decode_many(self, codewords: np.ndarray):
        """Decode an (N, 72) codeword array.

        Returns ``(data, corrected, uncorrectable)``: the (N, 64)
        decoded data (uncorrectable rows returned as-read), a boolean
        mask of rows where a single error was fixed, and a boolean mask
        of rows with detected-uncorrectable (double) errors.
        """
        codes = np.asarray(codewords, dtype=np.uint8)
        if codes.ndim != 2 or codes.shape[1] != CODE_BITS:
            raise ConfigurationError(
                f"codewords must be (N, {CODE_BITS}), got {codes.shape}"
            )
        codes = codes.copy()
        body = codes[:, 1:]
        checks = (body @ self._parity_matrix.T.astype(np.uint8)) & 1
        syndrome = (checks * _PARITY_POSITIONS[None, :]).sum(axis=1)
        overall = codes.sum(axis=1) & 1

        clean = (syndrome == 0) & (overall == 0)
        overall_only = (syndrome == 0) & (overall == 1)
        single = (syndrome != 0) & (overall == 1) & (syndrome < CODE_BITS)
        uncorrectable = ~(clean | overall_only | single)

        rows = np.flatnonzero(overall_only)
        codes[rows, 0] ^= 1
        rows = np.flatnonzero(single)
        codes[rows, syndrome[rows]] ^= 1

        corrected = overall_only | single
        return codes[:, _DATA_POSITIONS], corrected, uncorrectable
