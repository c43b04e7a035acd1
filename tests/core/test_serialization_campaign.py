"""Study persistence, row-chunk planning, and pooled campaigns through
the orchestration service, differentially against sequential studies."""

import json

import pytest

from repro.core.campaign import CHUNK_GAP, module_mapping, plan_row_chunks
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.serialization import (
    SCHEMA_VERSION,
    save_study,
    study_from_columns,
    study_to_columns,
    study_to_dict,
)
from repro.core.study import CharacterizationStudy
from repro.errors import AnalysisError
from repro.service import CampaignService


def _campaign(modules, tests, max_workers, **kwargs):
    """A tiny-scale, seed-6 campaign through the orchestration service."""
    service = CampaignService(
        modules, tests=tests, scale=StudyScale.tiny(), seed=6,
        max_workers=max_workers, **kwargs,
    )
    return service.run().study


@pytest.fixture(scope="module")
def small_study():
    study = CharacterizationStudy(scale=StudyScale.tiny(), seed=4)
    return study.run(modules=["C5"], tests=("rowhammer", "retention"))


def _records(study):
    module = study.module("C5")
    return (
        [(r.row, r.vpp, r.hcfirst, r.ber, r.ber_iterations)
         for r in module.rowhammer],
        [(r.row, r.vpp, r.trefw, r.ber, tuple(sorted(r.word_flip_histogram.items())))
         for r in module.retention],
    )


class TestSerialization:
    def test_roundtrip_lossless(self, small_study):
        restored = study_from_columns(study_to_columns(small_study))
        assert _records(restored) == _records(small_study)
        assert restored.seed == small_study.seed
        assert restored.scale == small_study.scale

    def test_file_roundtrip(self, small_study, tmp_path):
        """``save_study`` writes the study's document."""
        path = tmp_path / "study.json"
        save_study(small_study, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(study_to_dict(small_study))
        )

    def test_schema_version_checked(self, small_study):
        data = study_to_columns(small_study)
        current = b'"schema_version": %d' % SCHEMA_VERSION
        assert current in data
        with pytest.raises(AnalysisError):
            study_from_columns(data.replace(
                current, b'"schema_version": %d' % (SCHEMA_VERSION + 1), 1
            ))

    def test_analyses_work_on_restored_study(self, small_study):
        from repro.core.analysis import normalized_curves

        restored = study_from_columns(study_to_columns(small_study))
        curves = normalized_curves(restored, "ber")
        assert "C5" in curves


class TestParallelCampaign:
    def test_matches_sequential(self):
        sequential = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=6
        ).run(modules=["B3", "C5"], tests=("rowhammer",))
        pooled = _campaign(["B3", "C5"], ("rowhammer",), max_workers=2)
        for name in ("B3", "C5"):
            assert (
                pooled.module(name).rowhammer
                == sequential.module(name).rowhammer
            )

    def test_single_worker_fallback(self):
        sequential = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=6
        ).run(modules=["C5"], tests=("rowhammer",))
        inline = _campaign(["C5"], ("rowhammer",), max_workers=1)
        assert inline.module("C5").rowhammer == (
            sequential.module("C5").rowhammer
        )

    def test_module_granularity_matches_sequential(self):
        """One chunk per module: whole modules fan out over the pool."""
        sequential = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=6
        ).run(modules=["B3", "C5"], tests=("rowhammer",))
        pooled = _campaign(
            ["B3", "C5"], ("rowhammer",), max_workers=2,
            chunks_per_module=1,
        )
        for name in ("B3", "C5"):
            assert (
                pooled.module(name).rowhammer
                == sequential.module(name).rowhammer
            )


class TestChunkGranularity:
    def test_plan_respects_gap_and_balance(self):
        scale = StudyScale.tiny()
        mapping = module_mapping("C5", scale)
        rows = sample_rows(
            mapping.num_rows, scale.rows_per_module, scale.row_chunks
        )
        chunks = plan_row_chunks(rows, mapping, 4)
        assert sorted(row for chunk in chunks for row in chunk) == rows
        assert 1 < len(chunks) <= 4
        # Rows in different chunks are physically far enough apart that
        # their probes share no session state.
        for first in range(len(chunks)):
            for second in range(first + 1, len(chunks)):
                for a in chunks[first]:
                    for b in chunks[second]:
                        assert abs(
                            mapping.to_physical(a) - mapping.to_physical(b)
                        ) >= CHUNK_GAP

    def test_plan_empty_row_list(self):
        scale = StudyScale.tiny()
        mapping = module_mapping("C5", scale)
        assert plan_row_chunks([], mapping, 4) == []

    def test_plan_more_chunks_than_rows(self):
        """A chunk budget beyond the row count must not emit empty
        chunks; isolated rows each get their own chunk."""
        scale = StudyScale.tiny()
        mapping = module_mapping("C5", scale)
        rows = sample_rows(mapping.num_rows, 3, 3)
        chunks = plan_row_chunks(rows, mapping, 64)
        assert all(chunks)
        assert len(chunks) <= len(rows)
        assert sorted(row for chunk in chunks for row in chunk) == sorted(rows)

    def test_plan_single_chunk_when_coupled(self):
        scale = StudyScale.tiny()
        mapping = module_mapping("C5", scale)
        # Physically contiguous rows can never be split.
        physical = [mapping.to_logical(p) for p in range(10, 18)]
        chunks = plan_row_chunks(physical, mapping, 4)
        assert len(chunks) == 1
        assert chunks[0] == sorted(physical)

    def test_chunk_parallel_matches_sequential(self):
        scale = StudyScale.tiny()
        sequential = CharacterizationStudy(scale=scale, seed=6).run(
            modules=["B3", "C5"], tests=("rowhammer", "retention")
        )
        pooled = _campaign(
            ["B3", "C5"], ("rowhammer", "retention"), max_workers=2,
            chunks_per_module=4,
        )
        for name in ("B3", "C5"):
            seq = sequential.module(name)
            par = pooled.module(name)
            assert par.vppmin == seq.vppmin
            assert par.vpp_levels == seq.vpp_levels
            # Frozen-dataclass equality: record-for-record identical, in
            # the sequential emission order.
            assert par.rowhammer == seq.rowhammer
            assert par.retention == seq.retention
