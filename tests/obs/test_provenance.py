"""Provenance manifests: construction and schema validation."""

import pytest

from repro.errors import AnalysisError
from repro.obs.provenance import (
    PROVENANCE_SCHEMA,
    build_provenance,
    code_version,
    validate_provenance,
)


def _block(**overrides):
    block = build_provenance(
        fingerprint="abc123",
        seed=7,
        cache="miss",
        wall_seconds=1.5,
        counters={"repro_probes_hammer_total": 10},
    )
    block.update(overrides)
    return block


class TestBuild:
    def test_required_fields_present_and_valid(self):
        block = _block()
        assert block["schema"] == PROVENANCE_SCHEMA
        assert block["fingerprint"] == "abc123"
        assert block["seed"] == 7
        assert block["cache"] == "miss"
        assert block["wall_seconds"] == 1.5
        assert block["created"] > 0
        assert validate_provenance(block) is block

    def test_extra_keys_pass_through(self):
        block = build_provenance(
            fingerprint="abc", seed=0, cache="off",
            wall_seconds=0.0, counters={},
            tests=["rowhammer"], modules=["C5"], scale="tiny",
        )
        assert block["tests"] == ["rowhammer"]
        assert block["modules"] == ["C5"]
        assert block["scale"] == "tiny"
        validate_provenance(block)

    def test_counters_sorted_and_stringified(self):
        block = build_provenance(
            fingerprint="abc", seed=0, cache="hit",
            wall_seconds=0.0, counters={"b": 2, "a": 1},
        )
        assert list(block["counters"]) == ["a", "b"]

    def test_attached_block_names_no_engine(self):
        from repro.core.scale import StudyScale
        from repro.core.study import StudyResult
        from repro.harness.cache import attach_provenance

        study = StudyResult(scale=StudyScale.tiny(), seed=0)
        attach_provenance(study, ("rowhammer",), ("C5",), 0, 0.0, {})
        assert "probe_engine" not in study.provenance
        validate_provenance(study.provenance)

    def test_older_block_with_engine_still_validates(self):
        block = _block(probe_engine="command")
        assert validate_provenance(block)["probe_engine"] == "command"

    def test_code_version_mentions_package(self):
        version = code_version()
        assert version.startswith("repro-")
        assert code_version() is version  # cached per process


class TestValidate:
    def test_non_dict_rejected(self):
        with pytest.raises(AnalysisError, match="must be a dict"):
            validate_provenance(["not", "a", "dict"])

    def test_missing_key_named(self):
        block = _block()
        del block["fingerprint"]
        with pytest.raises(AnalysisError, match="fingerprint"):
            validate_provenance(block)

    def test_wrong_type_named(self):
        with pytest.raises(AnalysisError, match="seed"):
            validate_provenance(_block(seed="seven"))

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(AnalysisError, match="wall_seconds"):
            validate_provenance(_block(wall_seconds=True))

    def test_unknown_schema_rejected(self):
        with pytest.raises(AnalysisError, match="schema"):
            validate_provenance(_block(schema="repro.obs/provenance/v0"))

    def test_cache_state_restricted(self):
        for state in ("hit", "miss", "off"):
            validate_provenance(_block(cache=state))
        with pytest.raises(AnalysisError, match="cache"):
            validate_provenance(_block(cache="warm"))

    def test_non_numeric_counter_rejected(self):
        with pytest.raises(AnalysisError, match="not numeric"):
            validate_provenance(_block(counters={"x": "many"}))

    def test_negative_wall_clock_rejected(self):
        with pytest.raises(AnalysisError, match="negative"):
            validate_provenance(_block(wall_seconds=-1.0))

    def test_all_problems_reported_together(self):
        block = _block()
        del block["seed"]
        del block["cache"]
        with pytest.raises(AnalysisError, match="seed.*cache"):
            validate_provenance(block)
