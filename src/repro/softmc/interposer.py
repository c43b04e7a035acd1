"""DIMM interposer model (Adexelec DDR4 riser with current metering).

The paper's interposer routes the module's V_PP through a shunt resistor
for current measurement; the shunt is *removed* to electrically decouple
the FPGA's V_PP rail so the external supply has exclusive control
(Section 4.1). The model tracks that rework step -- the infrastructure
refuses to hand V_PP control to the bench supply while the shunt still
bridges the rails -- and estimates V_PP current from activation activity.
"""

from __future__ import annotations

from repro.dram.module import DramModule
from repro.errors import ConfigurationError

#: Charge drawn from the V_PP rail per row activation [C]. Wordline
#: drivers pump a few nC per activation in DDR4-class parts; the precise
#: value only scales the reported current.
_CHARGE_PER_ACTIVATION = 2e-9


class Interposer:
    """Riser card between the FPGA slot and the module under test."""

    def __init__(self, module: DramModule):
        self._module = module
        self._shunt_installed = True
        self._last_activations = 0
        self._last_time = module.env.now

    def remove_shunt(self) -> None:
        """Perform the paper's rework: disconnect the FPGA's V_PP rail."""
        self._shunt_installed = False

    def require_isolated_vpp(self) -> None:
        """Assert the external supply has exclusive V_PP control."""
        if self._shunt_installed:
            raise ConfigurationError(
                "V_PP shunt still installed: the FPGA rail would fight the "
                "external supply; call remove_shunt() first"
            )

    def measure_vpp_current(self) -> float:
        """Average V_PP current [A] since the previous measurement.

        Estimated from the module's activation count -- the V_PP rail
        powers only wordline assertion (Section 2.2), so activations are
        the dominant draw.
        """
        now = self._module.env.now
        activations = self._module.activation_count()
        d_act = activations - self._last_activations
        d_t = now - self._last_time
        self._last_activations = activations
        self._last_time = now
        if d_t <= 0:
            return 0.0
        return d_act * _CHARGE_PER_ACTIVATION / d_t
