"""Program plumbing: validation contracts, fingerprints, lint, e2e.

Every front end -- runner CLI, service CLI, HTTP API -- must reject an
unknown program name with the same uniform contract (exit 2 on the
CLIs, HTTP 400 on the API) and the same error text, and a non-trivial
program must flow through each front end to a finished study with no
engine-layer special-casing. Fingerprints follow the schedule, not the
name: the default program leaves cache keys byte-identical to a
pre-DSL request, renamed-identical programs share entries, and any
other schedule gets its own.
"""

import pytest

from repro.core.scale import StudyScale
from repro.errors import ConfigurationError
from repro.harness.cache import study_fingerprint
from repro.harness.lint import check_program_source, check_programs
from repro.harness.registry import run_experiment
from repro.harness.runner import main as runner_main
from repro.harness.store import StudyStore
from repro.harness.validation import validate_program
from repro.progdsl import get_program, register_program
from repro.service.checkpoint import campaign_fingerprint
from repro.service.orchestrator import CampaignService
from repro.service.__main__ import main as service_main


class TestValidation:
    def test_none_and_known_names_pass_through(self):
        assert validate_program(None) is None
        assert validate_program("quad-sided") == "quad-sided"

    def test_unknown_name_lists_the_available_programs(self):
        with pytest.raises(ConfigurationError) as exc:
            validate_program("nope")
        message = str(exc.value)
        assert "unknown program id(s): nope" in message
        assert "available:" in message
        assert "double-sided" in message


class TestExitCodeContract:
    def test_runner_rejects_unknown_program_with_exit_2(self, capsys):
        assert runner_main(["fig3", "--no-cache", "--program", "nope"]) == 2
        assert "unknown program id(s): nope" in capsys.readouterr().err

    def test_service_rejects_unknown_program_with_exit_2(self, capsys):
        code = service_main([
            "--modules", "C5", "--tests", "rowhammer", "--scale", "tiny",
            "--no-checkpoint", "--quiet", "--program", "nope",
        ])
        assert code == 2
        assert "unknown program id(s): nope" in capsys.readouterr().err

    def test_api_rejects_unknown_program_with_400(self, tmp_path):
        from repro.api import ApiServer

        api = ApiServer(
            str(tmp_path / "store"), str(tmp_path / "state"), workers=1
        )
        status, document = api.handle(
            "POST", "/v1/jobs", {},
            {"modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
             "seed": 0, "program": "nope"},
            "default",
        )
        assert status == 400
        assert "unknown program id(s): nope" in document["error"]

    def test_api_accepts_known_program_with_202(self, tmp_path):
        from repro.api import ApiServer

        api = ApiServer(
            str(tmp_path / "store"), str(tmp_path / "state"), workers=1
        )
        status, document = api.handle(
            "POST", "/v1/jobs", {},
            {"modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
             "seed": 0, "program": "four-sided-decoy"},
            "default",
        )
        assert status == 202
        assert document["job"]["state"] == "queued"


class TestFingerprints:
    def test_default_program_keeps_the_pre_dsl_fingerprint(self, tiny_scale):
        base = study_fingerprint(("rowhammer",), ("C5",), tiny_scale, 0)
        assert study_fingerprint(
            ("rowhammer",), ("C5",), tiny_scale, 0, program="double-sided"
        ) == base

    def test_non_default_program_changes_the_fingerprint(self, tiny_scale):
        base = study_fingerprint(("rowhammer",), ("C5",), tiny_scale, 0)
        quad = study_fingerprint(
            ("rowhammer",), ("C5",), tiny_scale, 0, program="quad-sided"
        )
        assert quad != base

    def test_renamed_identical_programs_share_a_fingerprint(self, tiny_scale):
        register_program(get_program("quad-sided").renamed("qs-alias"))
        assert study_fingerprint(
            ("rowhammer",), ("C5",), tiny_scale, 0, program="qs-alias"
        ) == study_fingerprint(
            ("rowhammer",), ("C5",), tiny_scale, 0, program="quad-sided"
        )

    def test_campaign_fingerprint_follows_the_same_normalization(
        self, tiny_scale
    ):
        def fp(program):
            return campaign_fingerprint(
                ("rowhammer",), ("C5",), tiny_scale, 0, None,
                program=program,
            )

        assert fp("double-sided") == fp(None)
        assert fp("quad-sided") != fp(None)


class TestLintContract:
    def test_raw_act_streams_are_flagged(self):
        source = (
            "def attack(program, bank):\n"
            "    for _ in range(100):\n"
            "        program.act(bank, 12)\n"
        )
        violations = check_program_source("x.py", source)
        assert any(".act(" in message for _, _, message in violations)

    def test_hammer_ref_loops_are_flagged(self):
        source = (
            "def schedule(program, bank, rows):\n"
            "    for chunk in chunks:\n"
            "        program.hammer(bank, rows, chunk)\n"
            "        program.ref()\n"
        )
        violations = check_program_source("x.py", source)
        assert any(
            "hand-rolls" in message for _, _, message in violations
        )

    def test_sanctioned_builders_pass(self):
        source = (
            "def schedule(program, bank, rows, counts):\n"
            "    program.hammer_rounds(bank, rows, counts, refresh=True)\n"
            "    for row in rows:\n"
            "        program.hammer(bank, [row], 1000)\n"
        )
        assert check_program_source("x.py", source) == []

    def test_the_tree_is_clean(self):
        assert check_programs() == []


class TestEndToEnd:
    """A 4-sided+decoy program through every front end, engine untouched."""

    def test_runner_layer(self, tiny_scale):
        output = run_experiment(
            "fig3", scale=tiny_scale, modules=("C5",),
            program="four-sided-decoy",
        )
        assert output.tables

    def test_orchestrator_layer(self, tiny_scale):
        outcome = CampaignService(
            modules=["C5"], tests=("rowhammer",), scale=tiny_scale, seed=0,
            program="four-sided-decoy", checkpoint_base=None,
        ).run()
        study = outcome.study
        assert study.modules["C5"].rowhammer

    def test_api_layer(self, tmp_path):
        from repro.api.jobs import Job, JobSpec, run_job

        spec = JobSpec.from_payload({
            "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
            "seed": 0, "program": "four-sided-decoy",
        })
        job = Job.create(spec, "default")
        store = StudyStore(str(tmp_path))
        run_job(job, store)
        assert job.state == "completed", job.error
        assert store.contains(job.fingerprint)

    def test_program_changes_the_study_it_produces(self, tmp_path):
        from repro.api.jobs import Job, JobSpec

        plain = JobSpec.from_payload({
            "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
            "seed": 0,
        })
        programmed = JobSpec.from_payload({
            "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
            "seed": 0, "program": "four-sided-decoy",
        })
        assert Job.create(plain, "t").fingerprint != (
            Job.create(programmed, "t").fingerprint
        )
