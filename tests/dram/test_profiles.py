"""Table 3 module profiles and vendor parameters."""

import pytest

from repro.dram.profiles import (
    _TIER_64MS,
    MODULE_PROFILES,
    build_module,
    module_profile,
    total_chip_count,
)
from repro.dram.vendor import VENDOR_PROFILES, Vendor
from repro.errors import ConfigurationError


def fails_nominal_trcd(profile):
    """True if the module needs more than the 13.5 ns nominal tRCD at
    reduced V_PP (Observation 7's five offender modules)."""
    return profile.trcd_at_vppmin_ns > 13.5


def fails_retention_at_64ms(profile):
    """True if the module exhibits retention flips at the 64 ms window
    when operated at V_PPmin (Observation 13's seven modules)."""
    return any(
        tier.failing_window <= _TIER_64MS + 1e-9
        for tier in profile.retention_tiers
    )


def test_paper_population():
    # Table 1 / Section 1: 272 chips across 30 DIMMs, 10 per vendor.
    assert total_chip_count() == 272
    assert len(MODULE_PROFILES) == 30
    for vendor in Vendor:
        assert sum(
            p.vendor is vendor for p in MODULE_PROFILES.values()
        ) == 10


def test_module_names_follow_vendor_letter():
    for name, profile in MODULE_PROFILES.items():
        assert name[0] == profile.vendor.value


def test_chip_counts_match_rank_width():
    for profile in MODULE_PROFILES.values():
        width = int(profile.chip_org.lstrip("x"))
        assert profile.num_chips * width == 64


def test_trcd_offenders_match_paper():
    # Observation 7: A0-A2 need 24 ns, B2/B5 need 15 ns.
    offenders = {
        name for name, p in MODULE_PROFILES.items() if fails_nominal_trcd(p)
    }
    assert offenders == {"A0", "A1", "A2", "B2", "B5"}
    for name in ("A0", "A1", "A2"):
        assert 21.0 <= MODULE_PROFILES[name].trcd_at_vppmin_ns <= 24.0
    for name in ("B2", "B5"):
        assert 13.5 < MODULE_PROFILES[name].trcd_at_vppmin_ns <= 15.0


def test_offending_chip_count_is_64():
    # Observation 7: 208 of 272 chips work at nominal tRCD; 48 need 24 ns
    # and 16 need 15 ns.
    failing = [p for p in MODULE_PROFILES.values() if fails_nominal_trcd(p)]
    assert sum(p.num_chips for p in failing) == 64


def test_retention_offenders_match_paper():
    # Observation 13: B6/B8/B9 and C1/C3/C5/C9 flip at 64 ms at V_PPmin.
    offenders = {
        name
        for name, p in MODULE_PROFILES.items()
        if fails_retention_at_64ms(p)
    }
    assert offenders == {"B6", "B8", "B9", "C1", "C3", "C5", "C9"}


def test_vppmin_extremes_match_paper():
    # Section 7: lowest V_PPmin 1.4 V (A0), highest 2.4 V (A5).
    assert MODULE_PROFILES["A0"].vppmin == 1.4
    assert MODULE_PROFILES["A5"].vppmin == 2.4
    assert min(p.vppmin for p in MODULE_PROFILES.values()) == 1.4
    assert max(p.vppmin for p in MODULE_PROFILES.values()) == 2.4


def test_b3_anchor_values():
    profile = module_profile("B3")
    assert profile.hcfirst_nominal == 16_600
    assert profile.ber_nominal == pytest.approx(2.73e-3)
    assert profile.vppmin == 1.6
    assert profile.hcfirst_at_vppmin == 21_100


def test_recommended_vpp_within_range():
    for profile in MODULE_PROFILES.values():
        assert profile.vppmin <= profile.vpp_recommended <= 2.5


def test_unknown_module_rejected():
    with pytest.raises(ConfigurationError):
        module_profile("Z9")


def test_vendor_profiles_cover_all_vendors():
    assert set(VENDOR_PROFILES) == set(Vendor)
    mapping_kinds = {v.mapping_kind for v in VENDOR_PROFILES.values()}
    assert mapping_kinds == {"direct", "mirrored", "scrambled"}


def test_build_module_constructs_device():
    module = build_module("A5")
    assert module.name == "A5"
    assert module.vppmin == 2.4
