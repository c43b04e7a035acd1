"""Module, chip view, SPD, environment, and TRR substrates."""

import numpy as np
import pytest

from repro.dram.chip import Chip
from repro.dram.environment import ModuleEnvironment
from repro.dram.mapping import DirectMapping
from repro.dram.module import DramModule
from repro.dram.profiles import module_profile
from repro.dram.spd import SpdRecord
from repro.dram.trr import TargetRowRefresh, TrrConfig
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    DramAddressError,
)
from repro.softmc.program import Program


class TestChip:
    def test_x8_rank_has_8_chips(self):
        chip = Chip(0, 8)
        assert chip.rank_width // chip.width == 8

    def test_bit_positions_partition_the_row(self):
        chips = [Chip(i, 8) for i in range(8)]
        covered = np.concatenate([c.bit_positions(512) for c in chips])
        assert sorted(covered.tolist()) == list(range(512))

    def test_slice_row(self):
        chip = Chip(1, 8)
        row = np.arange(128)
        sliced = chip.slice_row(row)
        assert sliced.size == 16
        assert sliced[0] == 8  # beat 0, chip 1 owns bits 8..15

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            Chip(0, 5)

    def test_index_range_checked(self):
        with pytest.raises(ConfigurationError):
            Chip(8, 8)


class TestEnvironment:
    def test_advance_monotone(self):
        env = ModuleEnvironment()
        env.advance(1.5)
        assert env.now == 1.5
        with pytest.raises(ConfigurationError):
            env.advance(-1.0)

    def test_setters_validate(self):
        env = ModuleEnvironment()
        with pytest.raises(ConfigurationError):
            env.set_vpp(0.0)
        with pytest.raises(ConfigurationError):
            env.set_temperature(400.0)


class TestModule:
    def test_identity(self, b3_module):
        assert b3_module.name == "B3"
        assert b3_module.vppmin == 1.6
        assert len(b3_module.chips) == 8  # x8 part

    def test_communication_gate(self, b3_module):
        b3_module.env.set_vpp(1.6)
        assert b3_module.responsive
        b3_module.check_communication()
        b3_module.env.set_vpp(1.5)
        assert not b3_module.responsive
        with pytest.raises(CommunicationError):
            b3_module.check_communication()

    def test_execute_command_api(self, b3_infra):
        program = Program()
        program.act(0, 5)
        payload = np.ones(64, dtype=np.uint8)
        program.wr(0, 2, payload)
        read_index = program.rd(0, 2)
        program.pre(0)
        program.ref()
        result = b3_infra.host.execute(program)
        assert np.array_equal(result.data(read_index), payload)
        assert result.commands_issued == 5

    def test_execute_refuses_when_mute(self, b3_infra):
        b3_infra.module.env.set_vpp(1.0)
        program = Program()
        program.act(0, 5)
        with pytest.raises(CommunicationError):
            b3_infra.host.execute(program)

    def test_bank_index_checked(self, b3_module):
        with pytest.raises(DramAddressError):
            b3_module.bank(99)

    def test_seed_determinism(self, small_geometry):
        profile = module_profile("C5")
        a = DramModule(profile, geometry=small_geometry, seed=5)
        b = DramModule(profile, geometry=small_geometry, seed=5)
        bits_a = a.bank(0)._cells.cell_tolerances(10)
        bits_b = b.bank(0)._cells.cell_tolerances(10)
        assert np.array_equal(bits_a, bits_b)

    def test_spd_reflects_profile(self, b3_module):
        spd = b3_module.spd
        assert isinstance(spd, SpdRecord)
        assert spd.dimm_model == "M393A1K43BB1-CTD6Y"
        assert spd.die_revision == "B"
        assert "Samsung" in spd.manufacturer

    def test_spd_blank_fields_become_none(self):
        spd = SpdRecord.from_profile(module_profile("A7"))
        assert spd.die_revision is None
        assert spd.manufacturing_date is None

    def test_activation_count_tracks_hammers(self, b3_module):
        before = b3_module.activation_count()
        b3_module.bank(0).hammer([10], 1000)
        assert b3_module.activation_count() == before + 1000


class TestTrr:
    def test_tracker_counts_heavy_hitters(self):
        trr = TargetRowRefresh(DirectMapping(128), TrrConfig(table_size=2))
        trr.observe_activation(10, count=100)
        trr.observe_activation(20, count=50)
        trr.observe_activation(30, count=10)  # evicts via decrement
        tracked = trr.tracked_rows()
        assert tracked.get(10, 0) > tracked.get(30, 0)

    def test_victims_released_above_threshold(self):
        trr = TargetRowRefresh(
            DirectMapping(128), TrrConfig(action_threshold=50)
        )
        trr.observe_activation(10, count=49)
        assert trr.victims_to_refresh() == []
        trr.observe_activation(10, count=1)
        assert sorted(trr.victims_to_refresh()) == [9, 11]
        # Counter reset after acting.
        assert trr.victims_to_refresh() == []

    def test_no_observations_no_victims(self):
        trr = TargetRowRefresh(DirectMapping(128))
        assert trr.victims_to_refresh() == []

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            TrrConfig(table_size=0)
        with pytest.raises(ConfigurationError):
            TrrConfig(action_threshold=0)

    def test_trr_defeated_by_withholding_ref(self, small_geometry):
        """Section 4.1: all TRR defenses require REF commands to act."""
        module = DramModule(
            module_profile("B3"), geometry=small_geometry, seed=1,
            trr_enabled=True, trr_config=TrrConfig(action_threshold=1000),
        )
        bank = module.bank(0)
        victim = 40
        aggressors = bank.mapping.physical_neighbors(victim)
        bank.hammer(aggressors, 50_000)
        # Without REF the tracker never fires: damage stays.
        assert bank.row_hammer_damage(victim) > 0
        bank.refresh()  # first REF lets TRR refresh the victims
        assert bank.row_hammer_damage(victim) == 0.0
