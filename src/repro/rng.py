"""Deterministic random-number streams.

Every stochastic element of the simulation (per-cell retention times,
per-row disturbance couplings, Monte-Carlo circuit parameter draws, ...)
pulls its randomness from an :class:`RngHub` substream addressed by a
string key. Two properties follow:

* **Reproducibility** -- a study run with the same seed produces bit-exact
  identical results, regardless of execution order, because each substream
  is derived from ``(root_seed, key)`` rather than from a shared mutable
  generator.
* **Independence** -- tests that touch one module's rows do not perturb the
  random draws of another module, so adding an experiment never changes the
  outcome of an existing one.

Keys are free-form strings; by convention they are slash-separated paths
such as ``"module/A0/bank/0/row/1234/retention"``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import numpy as np

from repro._ziggurat_tables import KI as _ZIGGURAT_KI
from repro._ziggurat_tables import WI as _ZIGGURAT_WI

# SeedSequence pool-mixing and PCG64 stream-initialization constants
# (numpy/random/bit_generator.pyx and pcg64.c). The kernels below
# replay both bit-exactly; tests/core/test_rng.py asserts equality
# against np.random.default_rng for every derivation path.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_DEFAULT_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_schedule(init: int, mult: int, steps: int) -> list:
    """The SeedSequence hash-constant chain ``(xor, mult)`` per step --
    seed-independent, so it is precomputed once at import."""
    table = []
    const = init
    for _ in range(steps):
        xor = const
        const = (const * mult) & _M32
        table.append((xor, const))
    return table


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


def _build_mixing_constants():
    """Stacked operands of the SeedSequence mixing phase.

    Entropy words 0-1 hash with schedule steps 0-1; pool rows 2-3 hash
    a zero word, a constant. Then each source row hashes once per
    destination (the other three rows, in row order, with consecutive
    schedule steps), and no destination reads another within a source
    iteration -- so one source's three updates run as one (4, n) pass
    whose source-row slot (dummy constants) is overwritten with the
    unchanged row after.
    """
    schedule = _hash_schedule(_INIT_A, _MULT_A, 16)
    zero_rows = []
    for xor, mult in schedule[2:4]:
        value = (xor * mult) & _M32
        zero_rows.append(value ^ (value >> 16))
    sources = []
    steps = iter(schedule[4:])
    for src in range(4):
        xors, mults = [0] * 4, [1] * 4
        for dst in range(4):
            if dst != src:
                xors[dst], mults[dst] = next(steps)
        sources.append((_column(xors), _column(mults)))
    entropy = schedule[:2]
    return (
        _column([xor for xor, _ in entropy]),
        _column([mult for _, mult in entropy]),
        _column(zero_rows),
        sources,
    )


(_ENTROPY_XORS, _ENTROPY_MULTS, _ZERO_WORD_HASHES,
 _SOURCE_HASHES) = _build_mixing_constants()
#: Output-phase constants of the 8 generated state words, as (2, 4, 1):
#: word ``4 * a + b`` draws from pool row ``b``.
_OUTPUT_SCHEDULE = _hash_schedule(_INIT_B, _MULT_B, 8)
_OUTPUT_XORS = _column([x for x, _ in _OUTPUT_SCHEDULE]).reshape(2, 4, 1)
_OUTPUT_MULTS = _column([m for _, m in _OUTPUT_SCHEDULE]).reshape(2, 4, 1)


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(8, np.uint32)`` per seed, as
    an (8, n) uint32 array, with the entropy-pool mixing vectorized
    across the batch (the hash-constant schedule is seed-independent,
    so every lane shares it). Seeds are uint64; the entropy words are
    then ``[lo32]`` or ``[lo32, hi32]``, and because a missing second
    word hashes identically to a zero word, one two-word layout covers
    both cases.
    """
    # Explicit little-endian: each seed's entropy words are its two
    # 32-bit halves, low first.
    halves = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(
        -1, 2
    ).T
    pool = np.empty((4, halves.shape[1]), dtype=np.uint32)
    values = (halves ^ _ENTROPY_XORS) * _ENTROPY_MULTS
    pool[:2] = values ^ (values >> _XSHIFT)
    pool[2:] = _ZERO_WORD_HASHES
    for src, (xors, mults) in enumerate(_SOURCE_HASHES):
        row = pool[src]
        values = (row ^ xors) * mults
        values ^= values >> _XSHIFT
        values *= _MIX_MULT_R
        mixed = pool * _MIX_MULT_L
        mixed -= values
        mixed ^= mixed >> _XSHIFT
        mixed[src] = row
        pool = mixed
    values = (pool ^ _OUTPUT_XORS) * _OUTPUT_MULTS
    return (values ^ (values >> _XSHIFT)).reshape(8, -1)


def _build_first_step():
    """The PCG64 seeding plus one LCG step as one affine map on 16-bit
    limbs of the 8 SeedSequence words.

    ``PCG64`` seeds with ``initstate = w0:w1`` and ``inc = 2 * (w2:w3)
    + 1`` (``w_i = u[2i+1]:u[2i]``, 128-bit values as high:low 64-bit
    halves), sets ``state = (inc + initstate) * M + inc`` and steps once
    more before its first output, so that output's state is
    ``initstate * M^2 + (w2:w3) * 2B + B`` with ``B = M^2 + M + 1``, all
    mod 2^128. Row ``m`` of the returned (4, 16) matrix holds the 32-bit
    limb ``m`` of each input limb's coefficient (``K * 2^position mod
    2^128``); a 16-bit limb times a 32-bit entry, summed over 16 inputs,
    stays far below 2^64, so one integer matmul yields the output state
    as four carry-pending 32-bit columns.
    """
    mult2 = _PCG_DEFAULT_MULT * _PCG_DEFAULT_MULT
    offset = (mult2 + _PCG_DEFAULT_MULT + 1) & _M128
    factors = (mult2 & _M128,) * 4 + ((2 * offset) & _M128,) * 4
    # 32-bit position of word u within its 128-bit value (u0..u3 make
    # initstate, u4..u7 the stream selector).
    positions = (2, 3, 0, 1, 2, 3, 0, 1)
    matrix = np.zeros((4, 16), dtype=np.uint64)
    for word, (factor, position) in enumerate(zip(factors, positions)):
        for half in range(2):
            coefficient = (factor << (32 * position + 16 * half)) & _M128
            for limb in range(4):
                matrix[limb, word + 8 * half] = (
                    coefficient >> (32 * limb)
                ) & _M32
    limbs = [(offset >> (32 * limb)) & _M32 for limb in range(4)]
    return matrix, np.array(limbs, dtype=np.uint64)[:, None]


_FIRST_STEP_MATRIX, _FIRST_STEP_OFFSET = _build_first_step()
_U32 = np.uint64(32)


def _pcg64_first_outputs(seeds: np.ndarray) -> np.ndarray:
    """``np.random.PCG64(seed).random_raw()`` per seed, vectorized: the
    SeedSequence words, the seeding plus first LCG step as one integer
    matmul (:func:`_build_first_step`), then the XSL-RR output
    ``rotr64(hi ^ lo, hi >> 58)``."""
    words = _seed_sequence_words(seeds)
    limbs = np.concatenate(
        (words & np.uint32(0xFFFF), words >> _XSHIFT)
    ).astype(np.uint64)
    columns = _FIRST_STEP_MATRIX @ limbs
    columns += _FIRST_STEP_OFFSET
    low, high = columns[0::2] + (columns[1::2] << _U32)
    high += (columns[1] + (columns[0] >> _U32)) >> _U32
    mixed = high ^ low
    rotation = high >> np.uint64(58)
    return (mixed >> rotation) | (
        mixed << ((np.uint64(64) - rotation) & np.uint64(63))
    )


def _ziggurat_fast_path(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ``random_standard_normal`` first iteration on 64-bit
    outputs: ``(draws, accepted)``. Bits 0-7 pick the layer, bit 8 the
    sign and bits 9-60 the magnitude ``rabs``; a lane is accepted, and
    its draw final, iff ``rabs < KI[layer]``. Rejected lanes (the wedge
    and tail tests, which read further outputs) carry no valid draw."""
    layers = outputs.astype(np.uint8)  # the low byte
    magnitudes = (outputs >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    draws = magnitudes.astype(np.float64) * _ZIGGURAT_WI[layers]
    # Negation flips the sign bit, also of a zero draw.
    draws.view(np.uint64)[...] ^= (outputs << np.uint64(55)) & np.uint64(
        1 << 63
    )
    return draws, magnitudes < _ZIGGURAT_KI[layers]


def standard_normal_draws(seeds: np.ndarray) -> Tuple[np.ndarray, int]:
    """``np.random.default_rng(seed).standard_normal()`` per uint64 seed,
    bit for bit: ``(draws, singles)``.

    The first PCG64 output of every lane is computed vectorized and the
    ziggurat's fast path resolves ~98.5 % of lanes; the ``singles``
    rejected lanes fall back to a per-seed generator one at a time.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    draws, accepted = _ziggurat_fast_path(_pcg64_first_outputs(seeds))
    if accepted.all():
        return draws, 0
    rejected = np.flatnonzero(~accepted)
    for lane in rejected.tolist():
        draws[lane] = np.random.default_rng(int(seeds[lane])).standard_normal()
    return draws, rejected.size


def derive_seed(root_seed: int, key: str) -> int:
    """Derive a 64-bit child seed from a root seed and a string key.

    Uses BLAKE2b over the concatenation so that nearby keys (e.g. row 12 vs
    row 13) yield statistically independent streams.
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngHub:
    """Factory of independent, deterministic numpy generators.

    Parameters
    ----------
    root_seed:
        The study-level seed. Everything downstream derives from it.
    """

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, int):
            raise TypeError(f"root_seed must be an int, got {type(root_seed)!r}")
        self._root_seed = root_seed

    @property
    def root_seed(self) -> int:
        """The root seed this hub was constructed with."""
        return self._root_seed

    def generator(self, key: str) -> np.random.Generator:
        """Return a fresh generator for ``key``.

        Calling this twice with the same key returns two generators that
        produce the same sequence -- substreams are *stateless* with respect
        to the hub, which is what makes evaluation order irrelevant.
        """
        return np.random.default_rng(derive_seed(self._root_seed, key))

    def suffix_seeds(self, prefix: str, suffixes: Iterable[int]) -> np.ndarray:
        """``derive_seed(root_seed, prefix + str(suffix))`` per integer
        suffix, as uint64: the shared prefix is hashed once and each
        key's hash continues from a copy of that state."""
        base = hashlib.blake2b(
            f"{self._root_seed}:{prefix}".encode("utf-8"), digest_size=8
        )
        digests = []
        for suffix in suffixes:
            digest = base.copy()
            digest.update(b"%d" % suffix)
            digests.append(digest.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8")

    def spawn(self, key: str) -> "RngHub":
        """Return a child hub rooted at ``(root_seed, key)``.

        Useful for handing a subsystem its own namespace without leaking
        the parent's key layout into it.
        """
        return RngHub(derive_seed(self._root_seed, key))

    def __repr__(self) -> str:
        return f"RngHub(root_seed={self._root_seed})"
