"""External V_PP power supply model (TTi PL068-P).

The paper removes the interposer's V_PP shunt resistor and drives the
module's V_PP rail from a bench supply with +-1 mV setpoint precision
(Section 4.1). The model enforces the instrument's range, quantizes the
setpoint to 1 mV, and drives the module environment's rail.
"""

from __future__ import annotations

from repro.dram.environment import ModuleEnvironment
from repro.errors import PowerDroopError, PowerSupplyError

#: Rail voltage a transient droop sags to before the supply recovers --
#: far below every module's V_PPmin, so the module resets.
DROOP_FLOOR = 0.9


class PowerSupply:
    """Bench power supply wired to a module's V_PP rail.

    Parameters
    ----------
    env:
        The module environment whose ``vpp`` this supply drives.
    min_voltage / max_voltage:
        Instrument output range [V]. The PL068-P is a 6 V / 8 A unit.
    precision:
        Setpoint quantum [V]; 1 mV per the paper.
    fault_injector:
        Optional :class:`repro.service.faults.FaultInjector`; its
        ``tick("supply")`` hook runs on every setpoint change and may
        raise :class:`~repro.errors.PowerDroopError` to simulate a
        transient output droop.
    """

    def __init__(
        self,
        env: ModuleEnvironment,
        min_voltage: float = 0.0,
        max_voltage: float = 6.0,
        precision: float = 1e-3,
        fault_injector=None,
    ):
        if not 0 < precision <= 0.1:
            raise PowerSupplyError(f"implausible precision: {precision}")
        if min_voltage >= max_voltage:
            raise PowerSupplyError("empty voltage range")
        self._env = env
        self._min = min_voltage
        self._max = max_voltage
        self._precision = precision
        self._setpoint = env.vpp
        self._output_enabled = True
        self._fault_injector = fault_injector

    @property
    def setpoint(self) -> float:
        """Programmed output voltage [V]."""
        return self._setpoint

    def set_voltage(self, voltage: float) -> float:
        """Program the output voltage; returns the quantized setpoint."""
        if not self._min <= voltage <= self._max:
            raise PowerSupplyError(
                f"setpoint {voltage} V outside range "
                f"[{self._min}, {self._max}] V"
            )
        quantized = round(voltage / self._precision) * self._precision
        self._setpoint = quantized
        if self._fault_injector is not None:
            try:
                self._fault_injector.tick("supply")
            except PowerDroopError:
                # The rail sags below brown-out before the supply
                # recovers; the module resets and the attempt is lost.
                self._env.set_vpp(min(quantized, DROOP_FLOOR))
                raise
        if self._output_enabled:
            self._env.set_vpp(quantized)
        return quantized

    def enable_output(self) -> None:
        """Turn the output stage on (applies the setpoint to the rail)."""
        self._output_enabled = True
        self._env.set_vpp(self._setpoint)

    def disable_output(self) -> None:
        """Turn the output stage off.

        The rail is left at a residual near-zero voltage -- the module will
        not communicate until output is re-enabled.
        """
        self._output_enabled = False
        self._env.set_vpp(1e-3)
