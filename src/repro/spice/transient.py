"""Batched nonlinear transient analysis.

Backward-Euler integration with damped Newton iteration, vectorized over
a Monte-Carlo batch: every component value may be an array of shape
``(B,)``, and the solver factorizes ``B`` small Jacobians per Newton
step with ``numpy.linalg.solve``. The circuits of this study have about
half a dozen unknown nodes, so the per-step cost is dominated by the
vectorized device evaluations -- exactly the regime where running the
whole 10K-sample Monte-Carlo batch through one solver pass wins.

The Jacobian is computed by forward differences of the residual; with
level-1 devices this is as accurate as analytic stamps and eliminates an
entire class of sign errors around MOSFET source/drain swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, NetlistError
from repro.spice.components import GMIN
from repro.spice.netlist import GROUND, Circuit

#: Perturbation for the finite-difference Jacobian [V].
_FD_EPS = 1e-6


@dataclass
class TransientResult:
    """Waveforms of a transient run.

    ``voltages[node]`` has shape ``(T,)`` for scalar circuits or
    ``(T, B)`` for batched ones; ``times`` has shape ``(T,)``.
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]

    def node(self, name: str) -> np.ndarray:
        """Waveform of one node."""
        try:
            return self.voltages[name]
        except KeyError:
            raise NetlistError(
                f"node {name!r} was not recorded; have {sorted(self.voltages)}"
            ) from None

    def final(self, name: str) -> np.ndarray:
        """Final value of one node."""
        return self.node(name)[-1]

    def first_crossing(
        self, name: str, threshold: float, rising: bool = True
    ) -> np.ndarray:
        """Earliest time each batch sample crosses ``threshold``.

        Returns NaN for samples that never cross -- the measurement
        convention for "activation never completed".
        """
        waveform = self.node(name)
        if waveform.ndim == 1:
            waveform = waveform[:, None]
        if rising:
            crossed = waveform >= threshold
        else:
            crossed = waveform <= threshold
        any_crossing = crossed.any(axis=0)
        first_index = crossed.argmax(axis=0)
        times = self.times[first_index].astype(float)
        times[~any_crossing] = np.nan
        return times if times.size > 1 else times


class TransientSolver:
    """Backward-Euler + Newton transient solver for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        max_newton: int = 60,
        tolerance: float = 1e-9,
    ):
        circuit.validate()
        self._circuit = circuit
        self._max_newton = max_newton
        self._tolerance = tolerance
        self._unknowns = circuit.unknown_nodes()
        self._sources = circuit.source_nodes()
        self._index = {node: i for i, node in enumerate(self._unknowns)}
        self._batch = self._infer_batch()

    # -- setup -------------------------------------------------------------------

    def _infer_batch(self) -> int:
        batch = 1
        values = []
        for r in self._circuit.resistors:
            values.append(r.resistance)
        for c in self._circuit.capacitors:
            values.extend((c.capacitance, c.initial_voltage))
        for m in self._circuit.mosfets:
            values.extend((m.width, m.length, m.kp, m.vth))
        for s in self._circuit.sources:
            values.extend(v for _, v in s.points)
        for value in values:
            shape = np.shape(value)
            if shape:
                if len(shape) != 1:
                    raise NetlistError(
                        f"batched values must be 1-D, got shape {shape}"
                    )
                if batch not in (1, shape[0]):
                    raise NetlistError(
                        f"inconsistent batch sizes: {batch} vs {shape[0]}"
                    )
                batch = max(batch, shape[0])
        return batch

    # -- residual -----------------------------------------------------------------

    def _node_voltage(
        self, node: str, unknowns: np.ndarray, pinned: Dict[str, np.ndarray]
    ) -> np.ndarray:
        if node == GROUND:
            return np.zeros(self._batch)
        if node in self._index:
            return unknowns[:, self._index[node]]
        return pinned[node]

    def _residual(
        self,
        unknowns: np.ndarray,
        pinned: Dict[str, np.ndarray],
        prev_cap_diff: List[np.ndarray],
        dt: float,
    ) -> np.ndarray:
        """KCL residual at every unknown node, shape (B, N)."""
        circuit = self._circuit
        residual = np.zeros_like(unknowns)

        def add(node: str, current: np.ndarray) -> None:
            index = self._index.get(node)
            if index is not None:
                residual[:, index] += current

        voltage = lambda node: self._node_voltage(node, unknowns, pinned)

        for r in circuit.resistors:
            i = (voltage(r.node_a) - voltage(r.node_b)) / r.resistance
            add(r.node_a, i)
            add(r.node_b, -i)
        for c, prev in zip(circuit.capacitors, prev_cap_diff):
            diff = voltage(c.node_a) - voltage(c.node_b)
            i = np.asarray(c.capacitance) * (diff - prev) / dt
            add(c.node_a, i)
            add(c.node_b, -i)
        for m in circuit.mosfets:
            i = m.current(voltage(m.gate), voltage(m.drain), voltage(m.source))
            add(m.drain, i)
            add(m.source, -i)
        # gmin to ground on every unknown node.
        residual += GMIN * unknowns
        return residual

    # -- solve --------------------------------------------------------------------

    def solve(
        self,
        t_stop: float,
        dt: float,
        initial: Optional[Dict[str, float]] = None,
        record: Optional[Sequence[str]] = None,
    ) -> TransientResult:
        """Run the transient from 0 to ``t_stop`` with fixed step ``dt``.

        Parameters
        ----------
        initial:
            Initial voltages of unknown nodes (defaults to 0; source
            nodes always start on their waveform).
        record:
            Node names to record (default: all unknown and source nodes).
        """
        if dt <= 0 or t_stop <= dt:
            raise NetlistError(f"bad time grid: t_stop={t_stop}, dt={dt}")
        steps = int(round(t_stop / dt))
        times = np.arange(steps + 1) * dt
        batch = self._batch
        n = len(self._unknowns)

        state = np.zeros((batch, n))
        initial = initial or {}
        for node, value in initial.items():
            if node not in self._index:
                raise NetlistError(f"initial condition on non-unknown {node!r}")
            state[:, self._index[node]] = np.broadcast_to(value, (batch,))

        recorded = list(record) if record is not None else (
            self._unknowns + sorted(self._sources)
        )
        history = {node: np.empty((steps + 1, batch)) for node in recorded}

        def pinned_at(t: float) -> Dict[str, np.ndarray]:
            return {
                node: np.broadcast_to(
                    np.asarray(source.voltage(t), dtype=float), (batch,)
                ).copy()
                for node, source in self._sources.items()
            }

        def store(step: int, pinned: Dict[str, np.ndarray]) -> None:
            for node in recorded:
                if node in self._index:
                    history[node][step] = state[:, self._index[node]]
                elif node == GROUND:
                    history[node][step] = 0.0
                else:
                    history[node][step] = pinned[node]

        # Capacitor history initialised from the provided state.
        pinned = pinned_at(0.0)
        cap_diff = [
            self._node_voltage(c.node_a, state, pinned)
            - self._node_voltage(c.node_b, state, pinned)
            for c in self._circuit.capacitors
        ]
        store(0, pinned)

        for step in range(1, steps + 1):
            t = times[step]
            pinned = pinned_at(t)
            state = self._newton(state, pinned, cap_diff, dt, t)
            cap_diff = [
                self._node_voltage(c.node_a, state, pinned)
                - self._node_voltage(c.node_b, state, pinned)
                for c in self._circuit.capacitors
            ]
            store(step, pinned)

        squeezed = {
            node: (values[:, 0] if batch == 1 else values)
            for node, values in history.items()
        }
        return TransientResult(times=times, voltages=squeezed)

    def _newton(
        self,
        state: np.ndarray,
        pinned: Dict[str, np.ndarray],
        cap_diff: List[np.ndarray],
        dt: float,
        t: float,
    ) -> np.ndarray:
        n = len(self._unknowns)
        x = state.copy()
        for iteration in range(self._max_newton):
            f = self._residual(x, pinned, cap_diff, dt)
            worst = np.abs(f).max()
            if worst < self._tolerance:
                return x
            jacobian = np.empty((x.shape[0], n, n))
            for j in range(n):
                perturbed = x.copy()
                perturbed[:, j] += _FD_EPS
                f_j = self._residual(perturbed, pinned, cap_diff, dt)
                jacobian[:, :, j] = (f_j - f) / _FD_EPS
            try:
                delta = np.linalg.solve(jacobian, f[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as error:
                raise ConvergenceError(
                    f"singular Jacobian at t={t:.3e}s: {error}"
                ) from error
            # Damped update: limit per-iteration voltage moves to 0.5 V
            # (standard SPICE-style limiting keeps MOSFETs stable).
            delta = np.clip(delta, -0.5, 0.5)
            x = x - delta
        raise ConvergenceError(
            f"Newton failed to converge at t={t:.3e}s "
            f"(residual {worst:.2e} A after {self._max_newton} iterations)"
        )
