"""Bank command state machine and fault physics."""

import numpy as np
import pytest

from repro.dram.bank import _residue_fold, _residue_minima, _sensitivity_groups
from repro.dram.patterns import STANDARD_PATTERNS
from repro.errors import DramAddressError, DramCommandError
from repro.units import ns

PATTERN = STANDARD_PATTERNS[0]  # 0xFF: charges true (even-physical) rows


@pytest.fixture
def bank(b3_module):
    return b3_module.bank(0)


def _fill(bank, row, bits):
    bank.activate(row)
    bank.write_row(bits)
    bank.precharge()


def _read(bank, row, trcd=None):
    bank.activate(row, trcd=trcd)
    bits = bank.read_row()
    bank.precharge()
    return bits


class TestStateMachine:
    def test_act_while_open_rejected(self, bank):
        bank.activate(5)
        with pytest.raises(DramCommandError):
            bank.activate(6)

    def test_read_requires_open_row(self, bank):
        with pytest.raises(DramCommandError):
            bank.read_column(0)

    def test_write_requires_open_row(self, bank):
        with pytest.raises(DramCommandError):
            bank.write_column(0, np.zeros(64, dtype=np.uint8))

    def test_precharge_is_idempotent(self, bank):
        bank.precharge()
        bank.activate(5)
        bank.precharge()
        bank.precharge()
        assert bank.open_row is None

    def test_hammer_requires_closed_bank(self, bank):
        bank.activate(5)
        with pytest.raises(DramCommandError):
            bank.hammer([6], 100)

    def test_address_bounds(self, bank):
        with pytest.raises(DramAddressError):
            bank.activate(10**6)
        bank.activate(5)
        with pytest.raises(DramAddressError):
            bank.read_column(10**6)

    def test_write_payload_validated(self, bank):
        bank.activate(5)
        with pytest.raises(DramCommandError):
            bank.write_column(0, np.zeros(63, dtype=np.uint8))
        with pytest.raises(DramCommandError):
            bank.write_row(np.zeros(17, dtype=np.uint8))


class TestDataPath:
    def test_write_read_roundtrip(self, bank, small_geometry):
        bits = PATTERN.row_bits(small_geometry.row_bits)
        _fill(bank, 8, bits)
        assert np.array_equal(_read(bank, 8), bits)

    def test_column_write_read(self, bank):
        payload = np.ones(64, dtype=np.uint8)
        bank.activate(9)
        bank.write_column(3, payload)
        assert np.array_equal(bank.read_column(3), payload)
        bank.precharge()

    def test_unwritten_row_reads_powerup_noise(self, bank):
        bits = _read(bank, 100)
        assert 0 < bits.mean() < 1  # pseudo-random mix of 0s and 1s


class TestHammering:
    def test_damage_accumulates_and_clears_on_rewrite(
        self, bank, small_geometry
    ):
        row_bits = small_geometry.row_bits
        victim = 50
        aggressors = bank.mapping.physical_neighbors(victim)
        _fill(bank, victim, PATTERN.row_bits(row_bits))
        bank.hammer(aggressors, 10_000)
        assert bank.row_hammer_damage(victim) > 0
        _fill(bank, victim, PATTERN.row_bits(row_bits))
        assert bank.row_hammer_damage(victim) == 0.0

    @staticmethod
    def _charged_pattern(bank, victim):
        """The stripe polarity that charges the victim's cells."""
        physical = bank.mapping.to_physical(victim)
        return STANDARD_PATTERNS[1 if physical % 2 else 0]

    def test_enough_hammers_flip_bits(self, bank, small_geometry):
        row_bits = small_geometry.row_bits
        victim = 50
        pattern = self._charged_pattern(bank, victim)
        aggressors = bank.mapping.physical_neighbors(victim)
        for aggressor in aggressors:
            _fill(bank, aggressor, pattern.inverse_bits(row_bits))
        _fill(bank, victim, pattern.row_bits(row_bits))
        bank.hammer(aggressors, 2_000_000)
        flips = np.sum(_read(bank, victim) != pattern.row_bits(row_bits))
        assert flips > 0

    def test_flips_are_repeatable_locations(self, bank, small_geometry):
        """RowHammer flips land at consistently predictable locations
        (Section 1)."""
        row_bits = small_geometry.row_bits
        victim = 50
        pattern = self._charged_pattern(bank, victim)
        aggressors = bank.mapping.physical_neighbors(victim)

        def attack():
            _fill(bank, victim, pattern.row_bits(row_bits))
            bank.hammer(aggressors, 1_000_000)
            return frozenset(
                np.flatnonzero(
                    _read(bank, victim) != pattern.row_bits(row_bits)
                ).tolist()
            )

        first, second = attack(), attack()
        # Identical up to measurement jitter on marginal cells.
        assert len(first & second) >= 0.7 * max(len(first), len(second), 1)

    def test_double_sided_beats_single_sided(self, bank, small_geometry):
        """Section 4.2: double-sided attacks are the most effective."""
        row_bits = small_geometry.row_bits
        victim = 60
        aggressors = bank.mapping.physical_neighbors(victim)

        pattern = self._charged_pattern(bank, victim)

        def flips(rows, count):
            for aggressor in rows:
                _fill(bank, aggressor, pattern.inverse_bits(row_bits))
            _fill(bank, victim, pattern.row_bits(row_bits))
            bank.hammer(rows, count)
            return int(
                np.sum(_read(bank, victim) != pattern.row_bits(row_bits))
            )

        count = 1_500_000
        assert flips(aggressors, count) >= flips(aggressors[:1], count)

    def test_uncharged_cells_never_flip(self, bank, small_geometry):
        """The 0x00 stripe leaves a true-cell row uncharged: no flips."""
        row_bits = small_geometry.row_bits
        victim = 50  # physical 50 (direct parity via mirrored %4 -> 50)
        physical = bank.mapping.to_physical(victim)
        pattern = STANDARD_PATTERNS[1]  # 0x00
        if physical % 2 == 1:
            pattern = STANDARD_PATTERNS[0]  # discharged for anti rows
        aggressors = bank.mapping.physical_neighbors(victim)
        _fill(bank, victim, pattern.row_bits(row_bits))
        bank.hammer(aggressors, 3_000_000)
        assert np.array_equal(
            _read(bank, victim), pattern.row_bits(row_bits)
        )


class TestRetention:
    def test_decay_after_long_wait(self, b3_module, small_geometry):
        bank = b3_module.bank(0)
        b3_module.env.set_temperature(80.0)
        row_bits = small_geometry.row_bits
        row = 30
        physical = bank.mapping.to_physical(row)
        pattern = STANDARD_PATTERNS[1 if physical % 2 else 0]
        _fill(bank, row, pattern.row_bits(row_bits))
        b3_module.env.advance(16.0)  # 16 s ≫ many cells' retention
        flips = np.sum(_read(bank, row) != pattern.row_bits(row_bits))
        assert flips > 0

    def test_no_decay_within_nominal_window(self, b3_module, small_geometry):
        bank = b3_module.bank(0)
        b3_module.env.set_temperature(80.0)
        row_bits = small_geometry.row_bits
        row = 30
        physical = bank.mapping.to_physical(row)
        pattern = STANDARD_PATTERNS[1 if physical % 2 else 0]
        _fill(bank, row, pattern.row_bits(row_bits))
        b3_module.env.advance(0.064)
        assert np.array_equal(
            _read(bank, row), pattern.row_bits(row_bits)
        )


class TestActivationLatency:
    def test_short_trcd_corrupts_reads(self, bank, small_geometry):
        row_bits = small_geometry.row_bits
        row = 40
        physical = bank.mapping.to_physical(row)
        pattern = STANDARD_PATTERNS[1 if physical % 2 else 0]
        _fill(bank, row, pattern.row_bits(row_bits))
        corrupted = _read(bank, row, trcd=ns(3.0))
        assert np.any(corrupted != pattern.row_bits(row_bits))

    def test_corruption_not_persistent(self, bank, small_geometry):
        row_bits = small_geometry.row_bits
        row = 40
        physical = bank.mapping.to_physical(row)
        pattern = STANDARD_PATTERNS[1 if physical % 2 else 0]
        _fill(bank, row, pattern.row_bits(row_bits))
        _read(bank, row, trcd=ns(3.0))  # corrupted sensing pass
        clean = _read(bank, row, trcd=ns(36.0))
        assert np.array_equal(clean, pattern.row_bits(row_bits))

    def test_nominal_trcd_clean_at_nominal_vpp(self, bank, small_geometry):
        row_bits = small_geometry.row_bits
        row = 40
        physical = bank.mapping.to_physical(row)
        pattern = STANDARD_PATTERNS[1 if physical % 2 else 0]
        _fill(bank, row, pattern.row_bits(row_bits))
        assert np.array_equal(
            _read(bank, row, trcd=ns(13.5)), pattern.row_bits(row_bits)
        )


class TestRefresh:
    def test_refresh_restores_hammer_damage(self, bank, small_geometry):
        victim = 70
        aggressors = bank.mapping.physical_neighbors(victim)
        _fill(bank, victim, PATTERN.row_bits(small_geometry.row_bits))
        bank.hammer(aggressors, 10_000)
        assert bank.row_hammer_damage(victim) > 0
        # March REF through the whole bank.
        for _ in range(8192):
            bank.refresh()
        assert bank.row_hammer_damage(victim) == 0.0

    def test_refresh_rejected_while_row_open(self, bank):
        bank.activate(5)
        with pytest.raises(DramCommandError):
            bank.refresh()


def _reference_minima(values, member):
    """The one-stage ``reshape(-1, 8)`` reduction the folds replace."""
    grouped = np.full(values.size, np.inf, dtype=values.dtype)
    grouped[member] = values[member]
    return tuple(float(v) for v in grouped.reshape(-1, 8).min(axis=0))


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


class TestResidueFolds:
    """The two-stage residue folds equal the one-stage ``(-1, 8)``
    reduction bit for bit, whatever the member set."""

    @pytest.mark.parametrize("size", [256, 8192, 65536])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_minima_match_one_stage_reduction(self, size, dtype):
        rng = np.random.default_rng(size)
        values = rng.lognormal(3.0, 1.0, size).astype(dtype)
        values[rng.choice(size, size // 64, replace=False)] = np.inf
        sparse = np.sort(rng.choice(size, 5, replace=False))
        mask = rng.random(size) < 0.5
        single_residue = np.arange(3, size, 8)
        members = {
            "sparse": sparse,
            "empty": np.array([], dtype=np.intp),
            "mask": mask,
            "inverted mask": ~mask,
            "single residue": single_residue,
            "whole row": slice(None),
        }
        for name, member in members.items():
            assert _bits(_residue_minima(values, member)) == _bits(
                _reference_minima(values, member)
            ), name

    @pytest.mark.parametrize("size", [256, 8192, 65536])
    def test_maxima_match_one_stage_reduction(self, size):
        rng = np.random.default_rng(size + 1)
        factors = rng.lognormal(0.0, 0.02, size).astype(np.float32)
        factors[rng.integers(size)] = np.inf
        expected = tuple(float(v) for v in factors.reshape(-1, 8).max(axis=0))
        assert _bits(_residue_fold(factors, np.maximum)) == _bits(expected)


@pytest.mark.parametrize(
    "weak_values", [[], [1.5, 1.2, 1.5, 2.0], [1.5, 1.2] * 8]
)
def test_sensitivity_groups_are_distinct_and_ascending(weak_values):
    """The bulk group (exponent 1, when any cell has it), then one group
    per distinct weak value in ascending order; every cell in one."""
    sensitivity = np.ones(16, dtype=np.float32)
    sensitivity[16 - len(weak_values):] = weak_values
    groups = _sensitivity_groups(sensitivity)
    expected = list(np.unique(sensitivity))
    assert [value for value, _ in groups] == expected
    covered = np.zeros(sensitivity.size, dtype=int)
    for value, member in groups:
        assert np.all(sensitivity[member] == value)
        covered[member] += 1
    assert np.all(covered == 1)
