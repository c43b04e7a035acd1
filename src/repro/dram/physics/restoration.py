"""Charge-restoration model (Section 6.2 of the paper).

After row activation, the sense amplifier restores each cell of the row
toward ``V_DD`` through the access transistor's channel. Two effects of
reduced V_PP matter:

* **Saturation** (Observation 10): the cell voltage cannot exceed
  ``V_PP - V_TH``; below ``V_PP ~= V_DD + V_TH`` the cell is left
  under-charged no matter how long the row stays open.
* **Slowdown** (Observation 11): the weaker channel stretches the time to
  reach any given level, widening and right-shifting the tRAS_min
  distribution.

The restoration trajectory is modeled as an exponential approach to the
saturation voltage with a V_PP-dependent time constant -- the closed-form
solution of the RC charging problem with the channel conductance
proportional to overdrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.physics.transistor import AccessTransistorModel
from repro.errors import ConfigurationError
from repro.units import ns


@dataclass(frozen=True)
class RestorationModel:
    """Charge-restoration behaviour of one cell.

    Parameters
    ----------
    transistor:
        The access transistor model (supplies V_TH and saturation).
    vdd:
        Core supply voltage driving the bitline high level.
    tau_nominal:
        Restoration time constant at nominal overdrive [s]. Chosen so the
        nominal tRAS (32 ns) comfortably completes restoration, with the
        paper-reported guardband.
    nominal_vpp:
        The V_PP at which ``tau_nominal`` is defined.
    restore_fraction:
        Restoration counts as complete when the cell is within
        ``1 - restore_fraction`` of its saturation level (e.g. 0.95).
    """

    transistor: AccessTransistorModel = AccessTransistorModel()
    vdd: float = 1.2
    tau_nominal: float = ns(7.0)
    nominal_vpp: float = 2.5
    restore_fraction: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.restore_fraction < 1.0:
            raise ConfigurationError(
                f"restore_fraction must be in (0, 1): {self.restore_fraction}"
            )
        if self.tau_nominal <= 0:
            raise ConfigurationError(f"tau_nominal must be positive: {self.tau_nominal}")

    # -- saturation -----------------------------------------------------------

    def saturation_voltage(self, vpp: float) -> float:
        """Maximum restorable cell voltage at ``vpp`` (Observation 10)."""
        return self.transistor.max_restorable_voltage(vpp, self.vdd)

    # -- dynamics -------------------------------------------------------------

    def time_constant(self, vpp: float) -> float:
        """Restoration RC time constant at ``vpp``.

        The channel conductance scales with the average overdrive seen
        while pulling the cell from mid-level toward saturation; the time
        constant is inversely proportional to it.
        """
        v_mid = 0.5 * self.saturation_voltage(vpp)
        od = self.transistor.overdrive(vpp, v_mid)
        od_nom = self.transistor.overdrive(
            self.nominal_vpp, 0.5 * self.saturation_voltage(self.nominal_vpp)
        )
        if od <= 1e-6:
            return math.inf
        return self.tau_nominal * od_nom / od

    def restored_voltage(self, vpp: float, duration: float, v_start: float = 0.6) -> float:
        """Cell voltage after holding the row open for ``duration`` seconds.

        Exponential approach from ``v_start`` (the post-charge-sharing
        level, typically near V_DD/2) toward the saturation voltage.
        """
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0: {duration}")
        v_sat = self.saturation_voltage(vpp)
        if v_sat <= v_start:
            return v_sat
        tau = self.time_constant(vpp)
        if math.isinf(tau):
            return v_start
        return v_sat - (v_sat - v_start) * math.exp(-duration / tau)

    def restoration_latency(self, vpp: float, v_start: float = 0.6) -> float:
        """Minimum tRAS to restore to ``restore_fraction`` of saturation.

        Returns ``inf`` when the channel cannot conduct at all.
        """
        v_sat = self.saturation_voltage(vpp)
        target = self.restore_fraction * v_sat
        if target <= v_start:
            return 0.0
        tau = self.time_constant(vpp)
        if math.isinf(tau):
            return math.inf
        # Solve v_sat - (v_sat - v_start) e^{-t/tau} = target.
        return tau * math.log((v_sat - v_start) / (v_sat - target))

    def charge_margin(self, vpp: float, v_read_threshold: float = 0.6) -> float:
        """Noise margin of a fully-restored charged cell at ``vpp``.

        The margin is the headroom between the restored level and the
        sensing threshold; it scales both the RowHammer tolerance
        (a smaller margin means fewer disturbance events suffice to flip
        the cell) and the retention time.
        """
        return max(0.0, self.saturation_voltage(vpp) - v_read_threshold)

    def margin_ratio(self, vpp: float, v_read_threshold: float = 0.6) -> float:
        """Charge margin at ``vpp`` relative to nominal V_PP, in (0, 1]."""
        nominal = self.charge_margin(self.nominal_vpp, v_read_threshold)
        if nominal <= 0:
            raise ConfigurationError(
                "nominal charge margin is non-positive; check vdd/vth/threshold"
            )
        return max(1e-3, self.charge_margin(vpp, v_read_threshold) / nominal)
