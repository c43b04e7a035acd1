"""Trace generation, replay, and attack feasibility."""

import pytest

from repro.dram.calibration import ModuleGeometry
from repro.dram.module import DramModule
from repro.dram.profiles import module_profile
from repro.errors import AnalysisError, ConfigurationError
from repro.system import ControllerPolicy, MemoryController
from repro.system.trace import (
    Op,
    TraceEntry,
    attack_feasibility,
    random_trace,
    replay,
    rowhammer_trace,
    sequential_trace,
)
from repro.units import ms, ns

GEOMETRY = ModuleGeometry(rows_per_bank=512, banks=2, row_bits=2048)


def make_controller(name="C5", seed=1):
    module = DramModule(module_profile(name), geometry=GEOMETRY, seed=seed)
    return MemoryController(module, ControllerPolicy.nominal())


class TestGenerators:
    def test_sequential(self):
        trace = sequential_trace(0x100, 4, stride=16)
        assert [e.address for e in trace] == [0x100, 0x110, 0x120, 0x130]
        assert all(e.op is Op.READ for e in trace)

    def test_random_within_capacity(self):
        controller = make_controller()
        trace = random_trace(controller.mapping, 200, seed=3)
        assert len(trace) == 200
        assert all(0 <= e.address < controller.mapping.capacity for e in trace)
        assert all(e.address % 8 == 0 for e in trace)

    def test_random_deterministic(self):
        controller = make_controller()
        a = random_trace(controller.mapping, 50, seed=5)
        b = random_trace(controller.mapping, 50, seed=5)
        assert a == b

    def test_alignment_enforced(self):
        with pytest.raises(ConfigurationError):
            TraceEntry(Op.READ, 3)

    def test_rowhammer_trace_alternates(self):
        controller = make_controller()
        trace = list(
            rowhammer_trace(controller.mapping, 0, [10, 12], hammer_count=3)
        )
        assert len(trace) == 6
        assert trace[0].address != trace[1].address
        assert trace[0].address == trace[2].address


class TestReplay:
    def test_sequential_is_row_buffer_friendly(self):
        controller = make_controller()
        stats = replay(
            controller, sequential_trace(0, 64, stride=8)
        )
        assert stats.row_hits / (stats.row_hits + stats.row_misses) > 0.9

    def test_hammer_trace_forces_activations(self):
        """Every access of the attack loop re-activates (the loop's whole
        point): zero row-buffer hits."""
        controller = make_controller()
        bank = controller.module.bank(0)
        victim = 40
        aggressors = bank.mapping.physical_neighbors(victim)
        stats = replay(
            controller,
            rowhammer_trace(controller.mapping, 0, aggressors, 500),
        )
        assert stats.row_hits == 0
        assert stats.activations == 1000
        # The victim accumulated real hammer damage through the
        # controller path.
        assert bank.row_hammer_damage(victim) > 0

    def test_write_replay(self):
        controller = make_controller()
        trace = sequential_trace(0, 4, op=Op.WRITE)
        replay(controller, trace, write_payload=b"\x77" * 8)
        assert controller.read(0, 8) == b"\x77" * 8

    def test_payload_validated(self):
        controller = make_controller()
        with pytest.raises(ConfigurationError):
            replay(controller, [], write_payload=b"xy")


class TestFeasibility:
    def test_footnote8_numbers(self):
        """4.8K (weakest modern chip) and 140.7K (A5) both fit many times
        over in a 64 ms window -- the paper's system-level feasibility."""
        weakest = attack_feasibility(4_800)
        assert weakest.attacks_per_window > 100
        strongest = attack_feasibility(140_700)
        assert strongest.attacks_per_window >= 1.0
        assert strongest.attacks_per_window < weakest.attacks_per_window

    def test_reduced_vpp_shrinks_headroom(self):
        # B3: 16.6K -> 21.1K at V_PPmin.
        nominal = attack_feasibility(16_600)
        reduced = attack_feasibility(21_100)
        assert reduced.attacks_per_window < nominal.attacks_per_window

    def test_validation(self):
        with pytest.raises(AnalysisError):
            attack_feasibility(0)
        with pytest.raises(AnalysisError):
            attack_feasibility(1000, trefw=0.0)

    def test_window_math(self):
        report = attack_feasibility(1000, trefw=ms(64.0), trc=ns(64.0))
        assert report.window_activations == 1_000_000
        assert report.attacks_per_window == pytest.approx(500.0)
