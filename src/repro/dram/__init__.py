"""Behavioral DDR4 DRAM device model.

This subpackage replaces the paper's 272 physical DDR4 chips with a
simulated device whose command-level observable behaviour (which bits flip
after which command sequences, at which wordline voltage) matches the
characteristics reported in the paper.

Layering, bottom-up:

* :mod:`repro.dram.constants`, :mod:`repro.dram.timing` -- JEDEC DDR4
  vocabulary (commands are SoftMC programs, :mod:`repro.softmc`).
* :mod:`repro.dram.physics` -- analytic circuit-derived models of how the
  wordline voltage affects activation, restoration, disturbance and
  retention. This is the heart of the substitution: the paper's trends
  *emerge* from these models rather than being tabulated.
* :mod:`repro.dram.cell`, :mod:`repro.dram.bank`, :mod:`repro.dram.chip`,
  :mod:`repro.dram.module` -- array organization and the command state
  machine.
* :mod:`repro.dram.mapping` -- DRAM-internal logical-to-physical row
  address mapping schemes.
* :mod:`repro.dram.vendor`, :mod:`repro.dram.profiles` -- manufacturer
  parameter distributions and the 30 module profiles of Table 3.
* :mod:`repro.dram.trr` -- in-DRAM Target Row Refresh defense model.
* :mod:`repro.dram.ecc` -- Hamming SECDED (72,64).
* :mod:`repro.dram.spd` -- serial-presence-detect metadata.
"""

from repro.dram.constants import (
    NOMINAL_TRCD,
    NOMINAL_TREFW,
    NOMINAL_VDD,
    NOMINAL_VPP,
)
from repro.dram.module import DramModule
from repro.dram.profiles import (
    MODULE_PROFILES,
    build_module,
    module_profile,
)
from repro.dram.timing import TimingParameters
from repro.dram.vendor import Vendor, VendorProfile

__all__ = [
    "DramModule",
    "MODULE_PROFILES",
    "NOMINAL_TRCD",
    "NOMINAL_TREFW",
    "NOMINAL_VDD",
    "NOMINAL_VPP",
    "TimingParameters",
    "Vendor",
    "VendorProfile",
    "build_module",
    "module_profile",
]
