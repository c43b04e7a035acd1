"""Retention profiling (REAPER-style weak-row discovery)."""

import pytest

from repro.core.context import TestContext
from repro.core.profiling import profile_for_policy, profile_weak_rows
from repro.core.scale import StudyScale
from repro.dram.calibration import ModuleGeometry
from repro.errors import ConfigurationError
from repro.softmc.infrastructure import TestInfrastructure


def weak_fraction(profile):
    """Fraction of tested rows that failed the window."""
    return len(profile.weak_rows) / profile.rows_tested

GEOMETRY = ModuleGeometry(rows_per_bank=512, banks=1, row_bits=2048)


@pytest.fixture
def b6_ctx():
    scale = StudyScale.tiny()
    infra = TestInfrastructure.for_module("B6", geometry=GEOMETRY, seed=5)
    return TestContext(infra, scale)


@pytest.fixture
def a4_ctx():
    scale = StudyScale.tiny()
    infra = TestInfrastructure.for_module("A4", geometry=GEOMETRY, seed=5)
    return TestContext(infra, scale)


def test_offender_module_yields_weak_rows(b6_ctx):
    rows = list(range(4, 68))
    profile = profile_weak_rows(b6_ctx, rows)
    # B6 carries the Mfr. B 64 ms tier (~15.5% of rows).
    assert 0.02 < weak_fraction(profile) < 0.5
    assert all(row in rows for row in profile.weak_rows)
    assert profile.vpp == pytest.approx(1.7)  # defaults to V_PPmin


def test_clean_module_yields_nothing(a4_ctx):
    profile = profile_weak_rows(a4_ctx, list(range(4, 36)))
    assert profile.weak_rows == ()
    assert weak_fraction(profile) == 0.0


def test_profiling_at_nominal_vpp_is_clean(b6_ctx):
    profile = profile_weak_rows(b6_ctx, list(range(4, 36)), vpp=2.5)
    # The tier only fails once reduced V_PP erodes the restored charge.
    assert weak_fraction(profile) <= 0.05


def test_passes_union_failures(b6_ctx):
    rows = list(range(4, 68))
    single = profile_weak_rows(b6_ctx, rows, passes=1)
    double = profile_weak_rows(b6_ctx, rows, passes=2)
    assert set(single.weak_rows) <= set(double.weak_rows)


def test_policy_packaging(b6_ctx):
    rows = list(range(4, 68))
    pairs = profile_for_policy(b6_ctx, rows)
    assert all(bank == 0 for bank, _ in pairs)
    # Usable directly by the controller policy.
    from repro.system import ControllerPolicy

    policy = ControllerPolicy.nominal().with_mitigations(
        selective_refresh_rows=pairs
    )
    assert policy.selective_refresh_rows == pairs


def test_passes_validated(b6_ctx):
    with pytest.raises(ConfigurationError):
        profile_weak_rows(b6_ctx, [4], passes=0)
