"""Access-transistor model.

A DRAM cell's access transistor is an NMOS whose gate is driven to V_PP
when the row's wordline is asserted (Section 2.2). Its behaviour enters
the study in two ways:

* the **overdrive** ``V_PP - V_TH - V_source`` sets the channel strength,
  and thereby how fast charge sharing and restoration proceed
  (Observations 8 and 11);
* the transistor **cuts off** when the cell voltage rises to within V_TH
  of the gate, which caps the restored cell voltage at
  ``min(V_DD, V_PP - V_TH)`` (Observation 10).

The model is deliberately simple -- a threshold plus a smooth-max -- and is
shared between the behavioral chip model and the calibration formulas; the
full nonlinear I-V curve lives in :mod:`repro.spice.components` where the
circuit simulator needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Default *effective* threshold for the behavioral model of real chips.
#: Real devices operate reliably down to V_PP = 1.4 V (Table 3, module A0)
#: which the paper's own SPICE model cannot explain (footnote 13); an
#: effective threshold near 0.45 V reconciles the two.
DEVICE_VTH = 0.45


@dataclass(frozen=True)
class AccessTransistorModel:
    """Analytic access-transistor behaviour.

    Parameters
    ----------
    vth:
        Threshold voltage in volts.
    smoothing:
        Width (in volts) of the soft transition around cutoff. A small
        positive value keeps derivatives finite, which the calibration
        solvers appreciate; ``0`` gives a hard threshold.
    """

    vth: float = DEVICE_VTH
    smoothing: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.vth < 2.0:
            raise ConfigurationError(f"vth out of plausible range: {self.vth}")
        if self.smoothing < 0:
            raise ConfigurationError(f"smoothing must be >= 0: {self.smoothing}")

    def overdrive(self, vpp: float, v_source: float) -> float:
        """Gate overdrive ``max(0, vpp - vth - v_source)``, smoothed.

        ``v_source`` is the higher of the cell and bitline voltages at the
        transistor's source terminal.
        """
        raw = vpp - self.vth - v_source
        if self.smoothing == 0.0:
            return max(0.0, raw)
        # softplus with width = smoothing; ~= max(0, raw) away from 0.
        scaled = raw / self.smoothing
        if scaled > 40.0:
            return raw
        return self.smoothing * float(np.log1p(np.exp(scaled)))

    def conducts(self, vpp: float, v_source: float) -> bool:
        """True if the channel is on (overdrive meaningfully positive)."""
        return vpp - self.vth - v_source > 0.0

    def max_restorable_voltage(self, vpp: float, vdd: float) -> float:
        """The voltage a cell can be restored to (Observation 10).

        The sense amplifier drives the bitline to ``vdd``; the access
        transistor passes charge only while the cell is more than ``vth``
        below the gate, so restoration saturates at
        ``min(vdd, vpp - vth)``.
        """
        if vdd <= 0:
            raise ConfigurationError(f"vdd must be positive: {vdd}")
        return min(vdd, max(0.0, vpp - self.vth))

    @classmethod
    def device(cls, vth: float = DEVICE_VTH) -> "AccessTransistorModel":
        """The effective-threshold model for real-chip behaviour."""
        return cls(vth=vth)
