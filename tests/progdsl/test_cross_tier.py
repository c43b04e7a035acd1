"""Cross-tier bit-identity of compiled DSL programs.

Every registered program must produce the same probe answers on both
probe engines -- the command engine executing the emitted instruction
stream is the reference; the fused kernel replays the program against
presorted threshold reductions and must agree bit for bit. A structurally-default program must additionally be
indistinguishable -- results *and* probe/command counters -- from the
pre-DSL code path it normalizes to.
"""

import pytest

from repro.core.context import TestContext
from repro.core.probe import open_hammer_session, one_shot_hammer_ber
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.dram.patterns import STANDARD_PATTERNS
from repro.progdsl import compile_program
from repro.softmc.infrastructure import TestInfrastructure

ENGINES = ("command", "fused")
MODULE = "B3"
SEED = 11
ROW = 64
HAMMER_COUNTS = (60_000, 120_000, 240_000)


def _context(kind, program=None, module=MODULE):
    scale = StudyScale.tiny()
    infra = TestInfrastructure.for_module(
        module, geometry=scale.geometry, seed=SEED
    )
    return TestContext(infra, scale, probe_engine=kind, program=program)


def _session_answers(ctx, pattern):
    with open_hammer_session(ctx, ROW, pattern) as probe:
        return (
            [probe.ber(hc) for hc in HAMMER_COUNTS],
            probe.any_flip(90_000),
        )


class TestProgramBitIdentity:
    @pytest.mark.parametrize("name", [
        "single-sided", "double-sided", "quad-sided", "four-sided-decoy",
    ])
    def test_compiled_programs_agree_across_tiers(self, name):
        program = compile_program(name)
        pattern = STANDARD_PATTERNS[0]
        answers = {
            kind: _session_answers(_context(kind, program), pattern)
            for kind in ENGINES
        }
        for kind in ENGINES[1:]:
            assert answers[kind] == answers["command"], (
                f"{name}: {kind} diverges from the command reference"
            )

    def test_refresh_fallback_agrees_across_tiers(self):
        # Refresh interleaving is data-dependent: every tier must route
        # to the emitted-stream fallback and still agree exactly.
        program = compile_program("double-sided-refresh")
        pattern = STANDARD_PATTERNS[0]
        answers = {
            kind: one_shot_hammer_ber(
                _context(kind, program), ROW, pattern, 120_001
            )
            for kind in ENGINES
        }
        assert len(set(answers.values())) == 1, answers

    def test_one_shot_matches_session(self):
        program = compile_program("quad-sided")
        pattern = STANDARD_PATTERNS[1]
        one_shot = one_shot_hammer_ber(
            _context("fused", program), ROW, pattern, 90_000
        )
        ctx = _context("fused", program)
        with open_hammer_session(ctx, ROW, pattern) as probe:
            in_session = probe.ber(90_000)
        assert one_shot == in_session


class TestDefaultProgramIsTheLegacyPath:
    @pytest.mark.parametrize("kind", ENGINES)
    def test_results_and_counters_match_legacy(self, kind):
        pattern = STANDARD_PATTERNS[0]
        legacy_ctx = _context(kind)
        legacy = _session_answers(legacy_ctx, pattern)
        program_ctx = _context(kind, compile_program("double-sided"))
        programmed = _session_answers(program_ctx, pattern)
        assert programmed == legacy
        assert (
            program_ctx.engine.counters.as_dict()
            == legacy_ctx.engine.counters.as_dict()
        )


class TestStudyLevelEquivalence:
    def test_default_program_study_is_bit_identical(self, tiny_scale):
        """The acceptance pin: a study run through the compiled
        ``double-sided`` program matches the pre-DSL schedule's study
        exactly -- records and fingerprint."""
        baseline = CharacterizationStudy(
            scale=tiny_scale, seed=3
        ).run_module(MODULE, tests=("rowhammer",), vpp_levels=[2.5, 2.2])
        programmed = CharacterizationStudy(
            scale=tiny_scale, seed=3, program="double-sided"
        ).run_module(MODULE, tests=("rowhammer",), vpp_levels=[2.5, 2.2])
        assert programmed.rowhammer == baseline.rowhammer
        assert programmed.vpp_levels == baseline.vpp_levels

    def test_non_default_program_changes_the_records(self, tiny_scale):
        baseline = CharacterizationStudy(
            scale=tiny_scale, seed=3
        ).run_module(MODULE, tests=("rowhammer",), vpp_levels=[2.5])
        programmed = CharacterizationStudy(
            scale=tiny_scale, seed=3, program="quad-sided"
        ).run_module(MODULE, tests=("rowhammer",), vpp_levels=[2.5])
        assert programmed.rowhammer != baseline.rowhammer
