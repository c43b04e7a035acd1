"""Bit-exactness of the bulk RNG derivation kernels.

``RngHub.standard_normals`` and ``standard_normal_draws`` (the fused
probe engine's jitter prefetch) must reproduce
``RngHub.generator(key).standard_normal()`` for every key: the
vectorized SeedSequence pool mixing, the PCG64 first output and the
ziggurat fast path must match numpy's reference implementations bit for
bit, and the committed ziggurat tables must be numpy's.
"""

import numpy as np
import pytest

from repro._ziggurat_tables import KI, WI
from repro.rng import (
    RngHub,
    _pcg64_first_outputs,
    _seed_sequence_words,
    _ziggurat_fast_path,
    derive_seed,
    standard_normal_draws,
)

_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INC = (0x1234567 << 1) | 1


def _rotl(value, shift):
    shift &= 63
    return ((value << shift) | (value >> (64 - shift))) & _M64


def _state_emitting(output, high=0x0123456789ABCDEF):
    """The 128-bit LCG state whose XSL-RR output is ``output``: pick the
    high word, invert the rotation for the low word."""
    return (high << 64) | (high ^ _rotl(output, high >> 58))


def _generator_at(state, inc):
    """A numpy generator whose next step lands on ``state``: undo one
    LCG step with the multiplier's inverse mod 2^128."""
    before = ((state - inc) * pow(_MULT, -1, 1 << 128)) & _M128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": before, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator, np.random.Generator(bit_generator)


def _numpy_draw(output):
    """``(draw, fast)``: numpy's ``standard_normal`` on a stream whose
    first output is ``output``, and whether it returned after exactly
    one step (the fast path)."""
    state = _state_emitting(output)
    bit_generator, generator = _generator_at(state, _INC)
    draw = generator.standard_normal()
    return draw, bit_generator.state["state"]["state"] == state


def _output(layer, magnitude, sign=0):
    return layer | (sign << 8) | (magnitude << 9)


def _derive_ki():
    """Per layer, the smallest magnitude numpy rejects (binary search:
    acceptance is ``rabs < ki[layer]``)."""
    table = []
    for layer in range(256):
        low, high = 0, 1 << 52
        while low < high:
            mid = (low + high) // 2
            if _numpy_draw(_output(layer, mid))[1]:
                low = mid + 1
            else:
                high = mid
        table.append(low)
    return table


def _layer1_scale():
    """``wi[1]``: layer 1 always rejects (``ki[1] = 0``), so build a
    stream whose second output is 0 -- the wedge test then accepts
    ``x = 1 * wi[1]`` after exactly two steps."""
    first = _state_emitting(_output(1, 1))
    for high in (0x0FEDCBA987654320, 0x0FEDCBA987654321):
        second = (high << 64) | high  # XSL-RR output 0
        inc = (second - first * _MULT) & _M128
        if inc & 1:
            break
    bit_generator, generator = _generator_at(first, inc)
    draw = generator.standard_normal()
    assert bit_generator.state["state"]["state"] == second
    return draw


def _derive_wi():
    """Per layer, ``x / 2^k`` at ``rabs = 2^k`` (exact); ``k = 0``."""
    table = []
    for layer in range(256):
        if layer == 1:
            table.append(_layer1_scale())
            continue
        draw, fast = _numpy_draw(_output(layer, 1))
        assert fast
        table.append(draw)
    return table


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBulkPcg64States:
    @pytest.mark.parametrize(
        "seeds",
        [
            [0],
            [1, 2, 3],
            [0xFFFFFFFF, 0x100000000, 0xFFFFFFFFFFFFFFFF],
            list(range(64)),
            [derive_seed(7, f"row/{i}") for i in range(32)],
        ],
    )
    def test_matches_numpy_seed_sequence(self, seeds):
        words = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
        outputs = _pcg64_first_outputs(np.array(seeds, dtype=np.uint64))
        assert words.shape == (8, len(seeds))
        for lane, seed in enumerate(seeds):
            reference = np.random.SeedSequence(seed).generate_state(
                8, np.uint32
            )
            assert words[:, lane].tolist() == reference.tolist()
            assert int(outputs[lane]) == np.random.PCG64(seed).random_raw()

    def test_empty_batch(self):
        empty = np.array([], dtype=np.uint64)
        assert _seed_sequence_words(empty).shape == (8, 0)
        assert _pcg64_first_outputs(empty).shape == (0,)
        draws, singles = standard_normal_draws(empty)
        assert draws.shape == (0,) and singles == 0


class TestStandardNormals:
    def test_matches_per_key_generators(self):
        hub = RngHub(123)
        keys = [f"bank/0/row/{row}/measurement_jitter/{session}"
                for row in range(4) for session in range(2, 32, 3)]
        draws = hub.standard_normals(keys)
        assert len(draws) == len(keys)
        for key, draw in zip(keys, draws):
            assert draw == hub.generator(key).standard_normal()

    def test_order_and_repetition_independent(self):
        hub = RngHub(5)
        keys = ["a", "b", "a"]
        first, second, third = hub.standard_normals(keys)
        assert first == third
        assert hub.standard_normals(["b", "a"]).tolist() == [second, first]

    def test_distinct_roots_give_distinct_streams(self):
        draws_a = RngHub(1).standard_normals(["k"])
        draws_b = RngHub(2).standard_normals(["k"])
        assert draws_a[0] != draws_b[0]

    def test_suffix_seeds_equal_derive_seed(self):
        hub = RngHub(9)
        sessions = [0, 3, 7, 10**12, -4]
        seeds = hub.suffix_seeds("bank/1/row/77/jitter/", sessions)
        assert seeds.tolist() == [
            derive_seed(9, f"bank/1/row/77/jitter/{session}")
            for session in sessions
        ]
        assert hub.suffix_seeds("x/", []).shape == (0,)

    @pytest.mark.parametrize("root", [0, 0x5EED_CAFE])
    def test_bit_exact_over_many_keys(self, root):
        """50k keys per root through batches of 0, 1, 20 and 128 lanes,
        rejected lanes (the per-seed fallback) included."""
        hub = RngHub(root)
        sizes = (0, 1, 20, 128)
        draws, rejected, start, turn = [], 0, 0, 0
        total = 50_000
        while start < total:
            size = min(sizes[turn % len(sizes)], total - start)
            turn += 1
            seeds = hub.suffix_seeds("bank/0/row/5/jitter/",
                                     range(start, start + size))
            block, singles = standard_normal_draws(seeds)
            assert block.shape == (size,)
            draws.append(block)
            rejected += singles
            start += size
        reference = [
            hub.generator(f"bank/0/row/5/jitter/{session}").standard_normal()
            for session in range(total)
        ]
        assert np.array_equal(_bits(np.concatenate(draws)), _bits(reference))
        # ~1.3 % of first outputs miss the fast path (layer 1 always).
        assert 0.005 * total < rejected < 0.03 * total


class TestZigguratFastPath:
    def test_committed_tables_match_numpy(self):
        assert KI.tolist() == _derive_ki()
        assert _bits(WI).tolist() == _bits(_derive_wi()).tolist()
        assert KI[0] == 0xEF33D8025EF6A and KI[1] == 0

    @pytest.mark.parametrize("sign", [0, 1])
    def test_hand_built_outputs_match_numpy(self, sign):
        top = (1 << 52) - 1
        outputs = [
            _output(0, int(KI[0]) - 1, sign),  # layer 0, last accepted
            _output(0, int(KI[0]), sign),  # layer 0's tail
            _output(0, top, sign),
            _output(1, 0, sign),  # layer 1 always rejects
            _output(1, 12345, sign),
            _output(7, 0, sign),  # a signed zero
        ]
        for layer in (2, 3, 17, 128, 254, 255):
            ki = int(KI[layer])
            outputs += [_output(layer, ki - 1, sign),
                        _output(layer, ki, sign),
                        _output(layer, ki + 1, sign)]
        outputs.append(_output(9, 1, sign) | (0b111 << 61))  # unused bits
        draws, accepted = _ziggurat_fast_path(
            np.array(outputs, dtype=np.uint64)
        )
        for output, draw, ok in zip(outputs, draws, accepted):
            reference, fast = _numpy_draw(output)
            assert bool(ok) == fast, hex(output)
            if fast:
                assert _bits(draw) == _bits(reference), hex(output)
        assert accepted.tolist().count(False) == 2 + 2 + 6 * 2
