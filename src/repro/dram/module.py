"""The simulated DDR4 DIMM.

A :class:`DramModule` ties together the Table 3 profile (identity +
calibration anchors), the derived device physics, the per-bank arrays,
the optional TRR defense, and the shared operating environment (V_PP,
temperature, simulated time) that the SoftMC infrastructure manipulates.

The module is the unit the paper characterizes: the infrastructure sets
its wordline voltage, and every observable -- bit flips, latency
requirements, retention behaviour -- flows from the banks' physics.
"""

from __future__ import annotations

from typing import List

from repro.dram.bank import Bank
from repro.dram.calibration import ModuleCalibration, ModuleGeometry, calibrate
from repro.dram.chip import Chip
from repro.dram.environment import ModuleEnvironment
from repro.dram.mapping import make_mapping
from repro.dram.profiles import ModuleProfile
from repro.dram.spd import SpdRecord
from repro.dram.trr import TargetRowRefresh, TrrConfig
from repro.errors import CommunicationError, DramAddressError
from repro.rng import RngHub


class DramModule:
    """One simulated DDR4 DIMM.

    Parameters
    ----------
    profile:
        The Table 3 module profile to instantiate.
    geometry:
        Array geometry override (rows per bank, banks, row bits).
    seed:
        Root seed for all of the module's stochastic structure. Two
        modules built from the same profile and seed are bit-identical.
    trr_enabled:
        Install the TRR defense model. The paper's tests leave this off
        (equivalently: never issue REF); the TRR-interaction example
        turns it on.
    """

    def __init__(
        self,
        profile: ModuleProfile,
        geometry: ModuleGeometry = None,
        seed: int = 0,
        trr_enabled: bool = False,
        trr_config: TrrConfig = None,
    ):
        self._profile = profile
        self._calibration = calibrate(profile, geometry)
        self._env = ModuleEnvironment()
        self._hub = RngHub(seed).spawn(f"module/{profile.name}")
        geometry = self._calibration.geometry

        width = int(profile.chip_org.lstrip("x"))
        self._chips = [Chip(i, width) for i in range(64 // width)]

        self._banks: List[Bank] = []
        for index in range(geometry.banks):
            mapping = make_mapping(
                self._calibration.vendor.mapping_kind, geometry.rows_per_bank
            )
            trr = (
                TargetRowRefresh(mapping, trr_config) if trr_enabled else None
            )
            self._banks.append(
                Bank(index, self._calibration, mapping, self._hub, self._env, trr)
            )

    # -- identity -----------------------------------------------------------------

    @property
    def profile(self) -> ModuleProfile:
        """The Table 3 profile this module was built from."""
        return self._profile

    @property
    def name(self) -> str:
        """Short module name (e.g. ``"B3"``)."""
        return self._profile.name

    @property
    def calibration(self) -> ModuleCalibration:
        """Derived device-model parameters."""
        return self._calibration

    @property
    def geometry(self) -> ModuleGeometry:
        """Array geometry."""
        return self._calibration.geometry

    @property
    def spd(self) -> SpdRecord:
        """The module's SPD metadata."""
        return SpdRecord.from_profile(self._profile)

    @property
    def chips(self) -> List[Chip]:
        """Lock-step chip views of the rank."""
        return list(self._chips)

    @property
    def env(self) -> ModuleEnvironment:
        """Shared operating environment (V_PP, temperature, clock)."""
        return self._env

    def bank(self, index: int) -> Bank:
        """Access one bank."""
        if not 0 <= index < len(self._banks):
            raise DramAddressError(
                f"bank {index} out of range [0, {len(self._banks)})"
            )
        return self._banks[index]

    @property
    def banks(self) -> List[Bank]:
        """All banks."""
        return list(self._banks)

    # -- operating conditions -------------------------------------------------------

    @property
    def vppmin(self) -> float:
        """Lowest V_PP at which the module still communicates
        (Section 4.1's definition of V_PPmin)."""
        return self._profile.vppmin

    @property
    def responsive(self) -> bool:
        """Whether the module can communicate at the current V_PP."""
        return self._env.vpp >= self._profile.vppmin - 1e-9

    def check_communication(self) -> None:
        """Raise if the module cannot respond (V_PP below V_PPmin)."""
        if not self.responsive:
            raise CommunicationError(
                f"module {self.name} does not respond at "
                f"V_PP = {self._env.vpp:.2f} V (V_PPmin = {self.vppmin:.2f} V)"
            )

    # -- statistics ---------------------------------------------------------------------

    def activation_count(self) -> int:
        """Total activations issued across all banks (includes hammer
        loops); feeds the interposer's current-draw model."""
        return sum(bank.total_activations for bank in self._banks)
