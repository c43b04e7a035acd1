"""JobSpec parsing/validation and job persistence."""

import pytest

from repro.api.jobs import Job, JobSpec, JobStateDir
from repro.errors import ConfigurationError


class TestJobSpecParsing:
    def test_defaults(self):
        spec = JobSpec.from_payload({})
        assert spec.scale == "tiny" and spec.seed == 0
        assert spec.priority == 0 and spec.workers == 0
        assert len(spec.modules) > 0 and len(spec.tests) > 0

    def test_explicit_campaign(self):
        spec = JobSpec.from_payload({
            "modules": ["C5", "A0"], "tests": ["rowhammer"],
            "scale": "bench", "seed": 7, "priority": 3,
            "unit_timeout": 2.5, "workers": 2,
        })
        assert spec.modules == ("C5", "A0")
        assert spec.scale == "bench" and spec.seed == 7
        assert spec.unit_timeout == 2.5

    @pytest.mark.parametrize("payload", [
        {"modules": ["ZZ9"]},
        {"tests": ["not-a-test"]},
        {"scale": "galactic"},
        {"probe_engine": "quantum"},
        {"priority": -1},
        {"priority": 99},
        {"priority": "high"},
        {"seed": "zero"},
        {"workers": -1},
        {"unit_timeout": 0},
        {"max_attempts": 0},
        {"experiment": "not-registered"},
    ])
    def test_rejects_bad_payloads(self, payload):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(payload)

    def test_rejects_non_object_payload(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(["not", "an", "object"])

    def test_allowlists_enforced(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(
                {"modules": ["C5"]}, allowed_modules=("A0",)
            )
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(
                {"experiment": "fig3"}, allowed_experiments=("fig5",)
            )

    def test_experiment_expansion_matches_registry(self):
        from repro.harness.registry import get_spec

        spec = JobSpec.from_payload({"experiment": "fig3"})
        declared = get_spec("fig3").resolved_studies(seed=0)[0]
        assert spec.tests == tuple(declared.tests)
        assert spec.modules == tuple(declared.modules)
        assert spec.experiment == "fig3"

    def test_round_trips_through_dict(self):
        spec = JobSpec.from_payload({
            "modules": ["C5"], "tests": ["rowhammer"], "seed": 3,
            "priority": 2, "unit_timeout": 1.5,
        })
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_fingerprint_is_request_content_hash(self):
        one = JobSpec.from_payload({"modules": ["C5", "A0"]})
        two = JobSpec.from_payload({"modules": ["A0", "C5"]})
        assert one.fingerprint() == two.fingerprint()  # order-normalized
        other = JobSpec.from_payload({"modules": ["C5"], "seed": 1})
        assert other.fingerprint() != one.fingerprint()

    def test_fingerprint_matches_study_fingerprint(self):
        from repro.core.scale import StudyScale
        from repro.harness.cache import study_fingerprint

        request = {"modules": ["C5"], "tests": ["rowhammer"], "seed": 4,
                   "scale": "tiny"}
        expected = study_fingerprint(
            ("rowhammer",), ("C5",), StudyScale.tiny(), 4
        )
        assert JobSpec.from_payload(request).fingerprint() == expected
        # A record an older server persisted with an engine name hashes
        # the same request: the engine is not part of it.
        spec = JobSpec.from_payload(request).as_dict()
        assert "probe_engine" not in spec
        legacy = JobSpec.from_dict(dict(spec, probe_engine="command"))
        assert legacy.fingerprint() == expected


class TestJobPersistence:
    def test_save_load_round_trip(self, tmp_path):
        state = JobStateDir(str(tmp_path))
        job = Job.create(JobSpec.from_payload({"modules": ["C5"]}), "t1")
        job.state = "completed"
        job.metrics = {"units_completed": 2}
        state.save(job)
        loaded = state.load_all()
        assert len(loaded) == 1
        assert loaded[0].id == job.id
        assert loaded[0].state == "completed"
        assert loaded[0].spec == job.spec
        assert loaded[0].metrics == {"units_completed": 2}

    def test_corrupt_job_file_skipped(self, tmp_path):
        state = JobStateDir(str(tmp_path))
        job = Job.create(JobSpec.from_payload({"modules": ["C5"]}), "t1")
        state.save(job)
        with open(state.path("job-corrupt"), "w") as handle:
            handle.write("{not json")
        loaded = state.load_all()
        assert [j.id for j in loaded] == [job.id]
