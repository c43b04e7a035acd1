"""The 30 DDR4 module profiles of Table 3 (Appendix A).

Each :class:`ModuleProfile` records a tested module's identity (DIMM
model, density, organization, die revision, date -- Table 1/3) and its
measured RowHammer anchors: minimum ``HC_first`` and BER at nominal V_PP
(2.5 V), at the module's ``V_PPmin``, and at the recommended operating
point ``V_PPRec``. The behavioral device model is *calibrated* to these
anchors (see :mod:`repro.dram.calibration`): the anchors pin each
module's weakest-row tolerance and its V_PP response, and everything
else -- per-row/per-cell heterogeneity, reversal populations, retention
tails -- is drawn from vendor-level distributions around them.

Additional per-module reliability character comes from Sections 6.1/6.3:

* ``trcd_at_vppmin_ns`` -- modules A0--A2 require 24 ns and B2/B5 require
  15 ns activation latency at reduced V_PP (Observation 7); all other
  modules stay within the 13.5 ns nominal with a reduced guardband.
* ``retention_tiers`` -- modules B6/B8/B9 and C1/C3/C5/C9 exhibit
  retention bit flips at the 64 ms nominal refresh window when operated
  at V_PPmin (Observation 13); Figure 11 gives the per-row flip-count
  character encoded here as weak-row tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dram.vendor import Vendor
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetentionTier:
    """A population of weak rows with clustered short-retention cells.

    Attributes
    ----------
    row_fraction:
        Fraction of rows belonging to this tier.
    mean_weak_cells:
        Mean number of weak cells per tier row (Poisson).
    failing_window:
        The refresh window [s] the tier's cells fail when the module is
        operated at its V_PPmin (64 ms or 128 ms in Figure 11). The
        weak cells' nominal retention median is *derived* from this at
        calibration time: it sits just far enough above the window that
        the cells are clean at nominal V_PP and only the reduced-V_PP
        restoration shortfall pulls them below it.
    retention_sigma:
        Lognormal sigma of the tier's weak-cell retention times (narrow:
        the tier is a distinct defect population).
    vpp_sensitivity:
        Multiplier on the retention model's margin exponent for the
        tier's cells. Weak cells sit behind marginal access paths, so
        the reduced-V_PP restoration shortfall hits them much harder --
        which is what makes them fail their window at V_PPmin while
        staying clean at nominal V_PP (Observation 13).
    """

    row_fraction: float
    mean_weak_cells: float
    failing_window: float
    retention_sigma: float = 0.12
    vpp_sensitivity: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.row_fraction <= 1.0:
            raise ConfigurationError(
                f"row_fraction must be in [0, 1]: {self.row_fraction}"
            )
        if self.mean_weak_cells <= 0 or self.failing_window <= 0:
            raise ConfigurationError("tier parameters must be positive")


#: Weak-cell tier that fails the 64 ms window at V_PPmin.
_TIER_64MS = 0.064
#: Weak-cell tier that fails the 128 ms window at V_PPmin.
_TIER_128MS = 0.128


@dataclass(frozen=True)
class ModuleProfile:
    """Identity and calibration anchors of one tested DIMM (Table 3)."""

    name: str
    vendor: Vendor
    dimm_model: str
    die_density: str
    frequency_mts: int
    chip_org: str
    die_revision: str
    mfr_date: str
    num_chips: int
    # RowHammer anchors (Table 3): minimum HC_first across tested rows and
    # the corresponding module BER at a 300K hammer count.
    hcfirst_nominal: float
    ber_nominal: float
    vppmin: float
    hcfirst_at_vppmin: float
    ber_at_vppmin: float
    vpp_recommended: float
    hcfirst_at_rec: float
    ber_at_rec: float
    # Reliability character (Sections 6.1 / 6.3).
    trcd_nominal_ns: float = 11.0
    trcd_at_vppmin_ns: float = 12.5
    retention_tiers: Tuple[RetentionTier, ...] = ()
    vth_eff: float = 0.45

    def __post_init__(self) -> None:
        if not 1.0 <= self.vppmin < 2.5:
            raise ConfigurationError(f"{self.name}: vppmin out of range: {self.vppmin}")
        if not self.vppmin <= self.vpp_recommended <= 2.5:
            raise ConfigurationError(
                f"{self.name}: vpp_recommended must lie in [vppmin, 2.5]"
            )
        for anchor in ("hcfirst_nominal", "hcfirst_at_vppmin", "hcfirst_at_rec"):
            if getattr(self, anchor) <= 0:
                raise ConfigurationError(f"{self.name}: {anchor} must be positive")
        for anchor in ("ber_nominal", "ber_at_vppmin", "ber_at_rec"):
            if not 0.0 < getattr(self, anchor) < 1.0:
                raise ConfigurationError(f"{self.name}: {anchor} must be in (0, 1)")


def _p(name, vendor, model, density, freq, org, rev, date, chips,
       hc0, ber0, vmin, hc_min, ber_min, vrec, hc_rec, ber_rec,
       trcd0=11.0, trcd_min=12.5, tiers=()):
    """Compact constructor keeping the Table 3 transcription readable."""
    return ModuleProfile(
        name=name, vendor=vendor, dimm_model=model, die_density=density,
        frequency_mts=freq, chip_org=org, die_revision=rev, mfr_date=date,
        num_chips=chips, hcfirst_nominal=hc0, ber_nominal=ber0, vppmin=vmin,
        hcfirst_at_vppmin=hc_min, ber_at_vppmin=ber_min,
        vpp_recommended=vrec, hcfirst_at_rec=hc_rec, ber_at_rec=ber_rec,
        trcd_nominal_ns=trcd0, trcd_at_vppmin_ns=trcd_min,
        retention_tiers=tuple(tiers),
    )


_A, _B, _C = Vendor.A, Vendor.B, Vendor.C

#: Tier describing Mfr. B's 64 ms failures (Fig. 11a: ~15.5 % of rows with
#: ~4 single-flip words; ~0.01 % of rows with ~116).
_B_TIERS = (
    RetentionTier(0.155, 4.0, _TIER_64MS),
    RetentionTier(0.0001, 116.0, _TIER_64MS),
    RetentionTier(0.047, 2.0, _TIER_128MS),
)
#: Tier describing Mfr. C's 64 ms failures (Fig. 11a: ~0.2 % of rows, one
#: single-flip word; Fig. 11b: ~0.2 % at 128 ms).
_C_TIERS = (
    RetentionTier(0.002, 1.0, _TIER_64MS),
    RetentionTier(0.002, 1.0, _TIER_128MS),
)
#: Mfr. A never fails 64 ms; 0.1 % of rows show one erroneous word at
#: 128 ms (Fig. 11b).
_A_TIERS = (RetentionTier(0.001, 1.0, _TIER_128MS),)


#: All 30 tested modules, transcribed from Table 3.
MODULE_PROFILES: Dict[str, ModuleProfile] = {
    p.name: p
    for p in [
        # ---- Mfr. A (Micron): 112 chips --------------------------------
        _p("A0", _A, "MTA18ASF2G72PZ-2G3B1QK", "8Gb", 2400, "x4", "B", "11-19", 16,
           39_800, 1.24e-3, 1.4, 42_200, 1.00e-3, 1.4, 42_200, 1.00e-3,
           trcd0=11.3, trcd_min=23.3, tiers=_A_TIERS),
        _p("A1", _A, "MTA18ASF2G72PZ-2G3B1QK", "8Gb", 2400, "x4", "B", "11-19", 16,
           42_200, 9.90e-4, 1.4, 46_400, 7.83e-4, 1.4, 46_400, 7.83e-4,
           trcd0=11.2, trcd_min=23.4, tiers=_A_TIERS),
        _p("A2", _A, "MTA18ASF2G72PZ-2G3B1QK", "8Gb", 2400, "x4", "B", "11-19", 16,
           41_000, 1.24e-3, 1.7, 39_800, 1.35e-3, 2.1, 42_100, 1.55e-3,
           trcd0=11.4, trcd_min=23.2, tiers=_A_TIERS),
        _p("A3", _A, "CT4G4DFS8266.C8FF", "4Gb", 2666, "x8", "F", "07-21", 8,
           16_700, 3.33e-2, 1.4, 16_500, 3.52e-2, 1.7, 17_000, 3.48e-2,
           trcd0=10.8, trcd_min=11.23, tiers=_A_TIERS),
        _p("A4", _A, "CT4G4DFS8266.C8FF", "4Gb", 2666, "x8", "F", "07-21", 8,
           14_400, 3.18e-2, 1.5, 14_400, 3.33e-2, 2.5, 14_400, 3.18e-2,
           trcd0=10.6, trcd_min=11.18, tiers=_A_TIERS),
        _p("A5", _A, "CT4G4SFS8213.C8FBD1", "4Gb", 2400, "x8", "-", "48-16", 8,
           140_700, 1.39e-6, 2.4, 145_400, 3.39e-6, 2.4, 145_400, 3.39e-6,
           trcd0=10.9, trcd_min=11.16, tiers=_A_TIERS),
        _p("A6", _A, "CT4G4DFS8266.C8FF", "4Gb", 2666, "x8", "F", "07-21", 8,
           16_500, 3.50e-2, 1.5, 16_500, 3.66e-2, 2.5, 16_500, 3.50e-2,
           trcd0=10.7, trcd_min=11.37, tiers=_A_TIERS),
        _p("A7", _A, "CMV4GX4M1A2133C15", "4Gb", 2133, "x8", "-", "-", 8,
           16_500, 3.42e-2, 1.8, 16_500, 3.52e-2, 2.5, 16_500, 3.42e-2,
           trcd0=11.0, trcd_min=11.7, tiers=_A_TIERS),
        _p("A8", _A, "MTA18ASF2G72PZ-2G3B1QG", "8Gb", 2400, "x4", "B", "11-19", 16,
           35_200, 2.38e-3, 1.4, 39_800, 2.07e-3, 1.4, 39_800, 2.07e-3,
           trcd0=11.1, trcd_min=11.82, tiers=_A_TIERS),
        _p("A9", _A, "CMV4GX4M1A2133C15", "4Gb", 2133, "x8", "-", "-", 8,
           14_300, 3.33e-2, 1.5, 14_300, 3.48e-2, 1.6, 14_600, 3.47e-2,
           trcd0=10.5, trcd_min=11.04, tiers=_A_TIERS),
        # ---- Mfr. B (Samsung): 80 chips --------------------------------
        _p("B0", _B, "M378A1K43DB2-CTD", "8Gb", 2666, "x8", "D", "10-21", 8,
           7_900, 1.18e-1, 2.0, 7_600, 1.22e-1, 2.5, 7_900, 1.18e-1,
           trcd0=10.9, trcd_min=11.47),
        _p("B1", _B, "M378A1K43DB2-CTD", "8Gb", 2666, "x8", "D", "10-21", 8,
           7_300, 1.26e-1, 2.0, 7_600, 1.28e-1, 2.0, 7_600, 1.28e-1,
           trcd0=10.8, trcd_min=11.5),
        _p("B2", _B, "F4-2400C17S-8GNT", "4Gb", 2400, "x8", "F", "02-21", 8,
           11_200, 2.52e-2, 1.6, 12_000, 2.22e-2, 1.6, 12_000, 2.22e-2,
           trcd0=11.5, trcd_min=14.3),
        _p("B3", _B, "M393A1K43BB1-CTD6Y", "8Gb", 2666, "x8", "B", "52-20", 8,
           16_600, 2.73e-3, 1.6, 21_100, 1.09e-3, 1.6, 21_100, 1.09e-3,
           trcd0=10.6, trcd_min=11.18),
        _p("B4", _B, "M393A1K43BB1-CTD6Y", "8Gb", 2666, "x8", "B", "52-20", 8,
           21_000, 2.95e-3, 1.8, 19_900, 2.52e-3, 2.0, 21_100, 2.68e-3,
           trcd0=10.7, trcd_min=11.15),
        _p("B5", _B, "M471A5143EB0-CPB", "4Gb", 2133, "x8", "E", "08-17", 8,
           21_000, 7.78e-3, 1.8, 21_000, 6.02e-3, 2.0, 21_100, 8.67e-3,
           trcd0=11.6, trcd_min=14.2),
        _p("B6", _B, "CMK16GX4M2B3200C16", "8Gb", 3200, "x8", "-", "-", 8,
           10_300, 1.14e-2, 1.7, 10_500, 9.82e-3, 1.7, 10_500, 9.82e-3,
           trcd0=10.8, trcd_min=11.45, tiers=_B_TIERS),
        _p("B7", _B, "M378A1K43DB2-CTD", "8Gb", 2666, "x8", "D", "10-21", 8,
           7_300, 1.32e-1, 2.0, 7_600, 1.33e-1, 2.0, 7_600, 1.33e-1,
           trcd0=10.9, trcd_min=11.37),
        _p("B8", _B, "CMK16GX4M2B3200C16", "8Gb", 3200, "x8", "-", "-", 8,
           11_600, 2.88e-2, 1.7, 10_500, 2.37e-2, 1.8, 11_700, 2.58e-2,
           trcd0=10.7, trcd_min=11.48, tiers=_B_TIERS),
        _p("B9", _B, "M471A5244CB0-CRC", "8Gb", 2133, "x8", "C", "19-19", 8,
           11_800, 2.68e-2, 1.7, 8_800, 2.39e-2, 1.8, 12_300, 2.54e-2,
           trcd0=10.8, trcd_min=11.61, tiers=_B_TIERS),
        # ---- Mfr. C (SK Hynix): 80 chips --------------------------------
        _p("C0", _C, "F4-2400C17S-8GNT", "4Gb", 2400, "x8", "B", "02-21", 8,
           19_300, 7.29e-3, 1.7, 23_400, 6.61e-3, 1.7, 23_400, 6.61e-3,
           trcd0=10.9, trcd_min=11.47),
        _p("C1", _C, "F4-2400C17S-8GNT", "4Gb", 2400, "x8", "B", "02-21", 8,
           19_300, 6.31e-3, 1.7, 20_600, 5.90e-3, 1.7, 20_600, 5.90e-3,
           trcd0=10.8, trcd_min=11.29, tiers=_C_TIERS),
        _p("C2", _C, "KSM32RD8/16HDR", "8Gb", 3200, "x8", "D", "48-20", 8,
           9_600, 2.82e-2, 1.5, 9_200, 2.34e-2, 2.3, 10_000, 2.89e-2,
           trcd0=10.6, trcd_min=11.35),
        _p("C3", _C, "KSM32RD8/16HDR", "8Gb", 3200, "x8", "D", "48-20", 8,
           9_300, 2.57e-2, 1.5, 8_900, 2.21e-2, 2.3, 9_700, 2.66e-2,
           trcd0=10.7, trcd_min=11.48, tiers=_C_TIERS),
        _p("C4", _C, "HMAA4GU6AJR8N-XN", "16Gb", 3200, "x8", "A", "51-20", 8,
           11_600, 3.22e-2, 1.5, 11_700, 2.88e-2, 1.5, 11_700, 2.88e-2,
           trcd0=10.8, trcd_min=11.39),
        _p("C5", _C, "HMAA4GU6AJR8N-XN", "16Gb", 3200, "x8", "A", "51-20", 8,
           9_400, 3.28e-2, 1.5, 12_700, 2.85e-2, 1.5, 12_700, 2.85e-2,
           trcd0=10.9, trcd_min=11.42, tiers=_C_TIERS),
        _p("C6", _C, "CMV4GX4M1A2133C15", "4Gb", 2133, "x8", "C", "-", 8,
           14_200, 3.08e-2, 1.6, 15_500, 2.25e-2, 1.6, 15_500, 2.25e-2,
           trcd0=10.7, trcd_min=11.09),
        _p("C7", _C, "CMV4GX4M1A2133C15", "4Gb", 2133, "x8", "C", "-", 8,
           11_700, 3.24e-2, 1.6, 13_600, 2.60e-2, 1.6, 13_600, 2.60e-2,
           trcd0=10.8, trcd_min=11.29),
        _p("C8", _C, "KSM32RD8/16HDR", "8Gb", 3200, "x8", "D", "48-20", 8,
           11_400, 2.69e-2, 1.6, 9_500, 2.57e-2, 2.5, 11_400, 2.69e-2,
           trcd0=10.6, trcd_min=11.47),
        _p("C9", _C, "F4-2400C17S-8GNT", "4Gb", 2400, "x8", "B", "02-21", 8,
           12_600, 2.18e-2, 1.7, 15_200, 1.63e-2, 1.7, 15_200, 1.63e-2,
           trcd0=10.9, trcd_min=11.47, tiers=_C_TIERS),
    ]
}


def module_profile(name: str) -> ModuleProfile:
    """Look up a module profile by its Table 3 name (e.g. ``"B3"``)."""
    try:
        return MODULE_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown module {name!r}; available: {sorted(MODULE_PROFILES)}"
        ) from None


def total_chip_count() -> int:
    """Total chips across all profiles; the paper tests 272."""
    return sum(p.num_chips for p in MODULE_PROFILES.values())


def build_module(name: str, **kwargs):
    """Construct a simulated :class:`~repro.dram.module.DramModule` for a
    Table 3 profile. Keyword arguments are forwarded to the module
    constructor (e.g. ``seed``, ``geometry``)."""
    from repro.dram.module import DramModule  # local import: avoid cycle

    return DramModule(module_profile(name), **kwargs)
