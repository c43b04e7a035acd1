"""Temperature controller model (MaxWell FT200 + heater pads).

The paper clamps chip temperature with a PID controller at +-0.1 degC
precision (Section 4.1): RowHammer and tRCD tests at 50 degC, retention
tests at 80 degC. The model quantizes the setpoint to the instrument
precision and charges a settling delay against simulated time.
"""

from __future__ import annotations

from repro.dram.environment import ModuleEnvironment
from repro.errors import ConfigurationError


class TemperatureController:
    """PID temperature controller clamped to the module's heater pads.

    Parameters
    ----------
    env:
        The module environment whose temperature this controller drives.
    precision:
        Setpoint quantum [degC] (0.1 per the paper).
    min_temperature:
        The infrastructure's minimum stable temperature. The paper's
        bench cannot cool below 50 degC (footnote 6), which is why the
        RowHammer/tRCD characterization runs there.
    settle_rate:
        Seconds of settling time charged per degC of setpoint change.
    """

    def __init__(
        self,
        env: ModuleEnvironment,
        precision: float = 0.1,
        min_temperature: float = 50.0,
        max_temperature: float = 95.0,
        settle_rate: float = 2.0,
    ):
        if precision <= 0:
            raise ConfigurationError(f"precision must be positive: {precision}")
        if min_temperature >= max_temperature:
            raise ConfigurationError("empty temperature range")
        self._env = env
        self._precision = precision
        self._min = min_temperature
        self._max = max_temperature
        self._settle_rate = settle_rate

    @property
    def current(self) -> float:
        """Measured chip temperature [degC]."""
        return self._env.temperature

    def set_target(self, temperature: float) -> float:
        """Drive the chips to ``temperature``; returns the settled value.

        Settling time (proportional to the step) is charged against the
        simulated clock, and the reached temperature is quantized to the
        controller precision.
        """
        if not self._min <= temperature <= self._max:
            raise ConfigurationError(
                f"setpoint {temperature} degC outside supported range "
                f"[{self._min}, {self._max}]"
            )
        quantized = round(temperature / self._precision) * self._precision
        step = abs(quantized - self._env.temperature)
        if step > 0:
            self._env.advance(step * self._settle_rate)
        self._env.set_temperature(quantized)
        return quantized
