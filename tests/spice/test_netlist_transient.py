"""Netlist construction and the transient solver, validated against
closed-form circuit theory."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice.components import Mosfet, MosType
from repro.spice.netlist import GROUND, Circuit
from repro.spice.transient import TransientSolver


class TestNetlist:
    def test_duplicate_names_rejected(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1e3, name="R1")
        with pytest.raises(NetlistError):
            circuit.add_resistor("b", "0", 1e3, name="R1")

    def test_auto_names_unique(self):
        circuit = Circuit()
        r1 = circuit.add_resistor("a", "0", 1e3)
        r2 = circuit.add_resistor("b", "0", 1e3)
        assert r1.name != r2.name

    def test_two_sources_one_node_rejected(self):
        circuit = Circuit()
        circuit.add_source("n", [(0.0, 1.0)])
        circuit.add_source("n", [(0.0, 2.0)])
        circuit.add_resistor("n", "0", 1.0)
        with pytest.raises(NetlistError):
            circuit.source_nodes()

    def test_cannot_drive_ground(self):
        circuit = Circuit()
        circuit.add_source(GROUND, [(0.0, 1.0)])
        with pytest.raises(NetlistError):
            circuit.source_nodes()

    def test_unknown_nodes_exclude_pinned(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 1.0)])
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-9)
        assert circuit.unknown_nodes() == ["out"]

    def test_validate_needs_unknowns(self):
        circuit = Circuit()
        circuit.add_source("a", [(0.0, 1.0)])
        with pytest.raises(NetlistError):
            circuit.validate()


class TestTransientAgainstTheory:
    def test_rc_discharge_matches_analytic(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1e3)
        circuit.add_capacitor("a", "0", 1e-9, initial_voltage=1.0)
        result = TransientSolver(circuit).solve(
            t_stop=3e-6, dt=5e-9, initial={"a": 1.0}
        )
        tau = 1e-6
        analytic = np.exp(-result.times / tau)
        assert np.max(np.abs(result.node("a") - analytic)) < 2e-3

    def test_rc_charging_from_source(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 1.0)])
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-9)
        result = TransientSolver(circuit).solve(t_stop=8e-6, dt=5e-9)
        assert float(result.final("out")) == pytest.approx(1.0, abs=2e-3)
        # Value at one time constant.
        index = np.argmin(np.abs(result.times - 1e-6))
        assert float(result.node("out")[index]) == pytest.approx(
            1 - np.exp(-1), abs=5e-3
        )

    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 2.0)])
        circuit.add_resistor("in", "mid", 1e3)
        circuit.add_resistor("mid", "0", 3e3)
        circuit.add_capacitor("mid", "0", 1e-15)  # parasitics
        result = TransientSolver(circuit).solve(t_stop=1e-9, dt=1e-12)
        assert float(result.final("mid")) == pytest.approx(1.5, abs=1e-3)

    def test_charge_sharing_between_capacitors(self):
        """Two capacitors through a resistor settle at the
        charge-weighted average voltage."""
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 2e-9, initial_voltage=1.0)
        circuit.add_resistor("a", "b", 1e3)
        circuit.add_capacitor("b", "0", 1e-9)
        result = TransientSolver(circuit).solve(
            t_stop=2e-5, dt=2e-8, initial={"a": 1.0, "b": 0.0}
        )
        expected = 2e-9 * 1.0 / (2e-9 + 1e-9)
        assert float(result.final("a")) == pytest.approx(expected, abs=2e-3)
        assert float(result.final("b")) == pytest.approx(expected, abs=2e-3)

    def test_nmos_source_follower_saturates_at_vg_minus_vth(self):
        circuit = Circuit()
        circuit.add_source("g", [(0.0, 1.7)])
        circuit.add_source("d", [(0.0, 1.2)])
        circuit.add_mosfet(Mosfet(
            gate="g", drain="d", source="cell", mos_type=MosType.NMOS,
            width=55e-9, length=85e-9, kp=3e-4, vth=0.72,
        ))
        circuit.add_capacitor("cell", "0", 16.8e-15)
        result = TransientSolver(circuit).solve(
            t_stop=60e-9, dt=5e-11, initial={"cell": 0.0}
        )
        # Observation 10's mechanism: the follower cuts off at Vg - Vth.
        assert float(result.final("cell")) == pytest.approx(0.98, abs=0.01)

    def test_batched_parameters_solve_together(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", np.array([1e3, 2e3]))
        circuit.add_capacitor("a", "0", 1e-9, initial_voltage=1.0)
        solver = TransientSolver(circuit)
        result = solver.solve(t_stop=2e-6, dt=1e-8, initial={"a": 1.0})
        final = result.final("a")
        assert final.shape == (2,)
        assert final[1] > final[0]  # larger tau decays slower

    def test_inconsistent_batch_rejected(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", np.array([1e3, 2e3]))
        circuit.add_capacitor("a", "0", np.array([1e-9, 1e-9, 1e-9]))
        with pytest.raises(NetlistError):
            TransientSolver(circuit)

    def test_bad_time_grid_rejected(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1e3)
        circuit.add_capacitor("a", "0", 1e-9)
        solver = TransientSolver(circuit)
        with pytest.raises(NetlistError):
            solver.solve(t_stop=1e-9, dt=1e-8)

    def test_initial_condition_on_pinned_node_rejected(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 1.0)])
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-9)
        solver = TransientSolver(circuit)
        with pytest.raises(NetlistError):
            solver.solve(t_stop=1e-6, dt=1e-8, initial={"in": 0.5})

    def test_first_crossing_measurement(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 1.0)])
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-9)
        result = TransientSolver(circuit).solve(t_stop=5e-6, dt=5e-9)
        crossing = float(np.atleast_1d(result.first_crossing("out", 0.5))[0])
        assert crossing == pytest.approx(np.log(2) * 1e-6, rel=0.02)

    def test_first_crossing_nan_when_never(self):
        circuit = Circuit()
        circuit.add_source("in", [(0.0, 1.0)])
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-9)
        result = TransientSolver(circuit).solve(t_stop=1e-7, dt=1e-9)
        crossing = np.atleast_1d(result.first_crossing("out", 0.99))
        assert np.isnan(crossing[0])

    def test_unrecorded_node_raises(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1e3)
        circuit.add_capacitor("a", "0", 1e-9)
        result = TransientSolver(circuit).solve(
            t_stop=1e-6, dt=1e-8, record=["a"]
        )
        with pytest.raises(NetlistError):
            result.node("zebra")
