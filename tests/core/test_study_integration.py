"""End-to-end campaign integration tests (tiny scale)."""

import pytest

from repro.core.study import CharacterizationStudy
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def b3_study():
    from repro.core.scale import StudyScale

    study = CharacterizationStudy(scale=StudyScale.tiny(), seed=2)
    return study.run(modules=["B3"], tests=("rowhammer", "trcd", "retention"))


def test_vpp_grid_reaches_paper_vppmin(b3_study):
    module = b3_study.module("B3")
    assert module.vpp_levels[0] == 2.5
    assert module.vppmin == pytest.approx(1.6)  # Table 3


def test_every_row_measured_at_every_level(b3_study):
    module = b3_study.module("B3")
    scale = b3_study.scale
    for vpp in module.vpp_levels:
        assert module.rowhammer_at(vpp).sum() == scale.rows_per_module
        assert module.trcd_at(vpp).sum() == scale.rows_per_module
        assert module.retention_at(vpp).sum() == (
            scale.rows_per_module * len(scale.retention_windows)
        )


def test_rowhammer_records_well_formed(b3_study):
    module = b3_study.module("B3")
    for record in module.rowhammer:
        assert 0.0 <= record.ber <= 1.0
        assert record.ber == max(record.ber_iterations)
        assert 0 <= record.wcdp_index < 6
        if record.hcfirst is not None:
            assert record.hcfirst > 0


def test_trcd_on_command_clock_grid(b3_study):
    from repro.dram.constants import SOFTMC_COMMAND_CLOCK

    module = b3_study.module("B3")
    for record in module.trcd:
        slots = record.trcd_min / SOFTMC_COMMAND_CLOCK
        assert slots == pytest.approx(round(slots))


def test_retention_ber_monotone_in_window(b3_study):
    module = b3_study.module("B3")
    for vpp in module.vpp_levels:
        by_row = {}
        for record in module.retention.take(module.retention_at(vpp)):
            by_row.setdefault(record.row, []).append(
                (record.trefw, record.ber)
            )
        for series in by_row.values():
            bers = [b for _, b in sorted(series)]
            assert bers == sorted(bers)


def test_study_is_deterministic():
    from repro.core.scale import StudyScale

    scale = StudyScale.tiny()
    a = CharacterizationStudy(scale=scale, seed=5).run(
        modules=["C5"], tests=("rowhammer",)
    )
    b = CharacterizationStudy(scale=scale, seed=5).run(
        modules=["C5"], tests=("rowhammer",)
    )
    records_a = [(r.row, r.vpp, r.hcfirst, r.ber) for r in a.module("C5").rowhammer]
    records_b = [(r.row, r.vpp, r.hcfirst, r.ber) for r in b.module("C5").rowhammer]
    assert records_a == records_b


def test_unknown_test_type_rejected(tiny_scale):
    study = CharacterizationStudy(scale=tiny_scale)
    with pytest.raises(ConfigurationError):
        study.run_module("B3", tests=("zebra",))


def test_reverse_engineered_adjacency_study(tiny_scale):
    """A (small) study can run entirely on discovered adjacency."""
    from repro.core.scale import StudyScale
    from repro.dram.calibration import ModuleGeometry
    from repro.units import ms

    scale = StudyScale(
        rows_per_module=4, row_chunks=2, iterations=1,
        hcfirst_min_step=16_000,
        retention_windows=(ms(64.0),),
        geometry=ModuleGeometry(rows_per_bank=256, banks=1, row_bits=1024),
    )
    study = CharacterizationStudy(
        scale=scale, seed=1, reverse_engineer_adjacency=True
    )
    result = study.run_module("C5", tests=("rowhammer",), vpp_levels=[2.5])
    assert len(result.rowhammer) == 4
