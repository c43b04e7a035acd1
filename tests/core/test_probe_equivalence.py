"""Differential tests: the kernel probe engine vs the command path.

The fused kernel engine must be *bit-identical* to the validated
``Program``/``SoftMCHost`` reference for every quantity the studies
record -- HC_first, RowHammer BER (including per-iteration values),
tRCD_min and retention BER/histograms -- across modules of all three
vendors and multiple V_PP levels, on its kernel sessions and on the
sessions a sensing hazard hands to the command oracle alike. Alg. 2's
kernel is pinned down to the post-sweep device state. Any divergence
here means the kernel's replay of the command schedule (session counters,
simulated-time offsets, damage deposit order, sorted-threshold
reductions) has drifted from the host's semantics.
"""

import functools

import pytest

from repro.core.context import TestContext
from repro.core.fused import FusedProbeEngine
from repro.core.probe import (
    ENGINE_NAMES,
    CommandProbeEngine,
    make_engine,
)
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.core.trcd import find_trcd_min
from repro.dram.cell import CellParameterGenerator
from repro.dram.constants import NOMINAL_TRCD
from repro.dram.patterns import STANDARD_PATTERNS
from repro.errors import ConfigurationError, FpgaTimeoutError
from repro.harness.registry import run_experiment
from repro.service.faults import FaultInjector, FaultSpec
from repro.softmc.infrastructure import TestInfrastructure
from repro.softmc.program import Program

MODULES = ("A0", "B3", "C5")
VPP_LEVELS = (2.5, 2.2)


def _row_data(ctx, row):
    """The raw stored bits of a logical row (bypasses the command bus)."""
    bank = ctx.infra.module.bank(0)
    return bank._rows[bank.mapping.to_physical(row)].data


def _run(name, engine_kind):
    study = CharacterizationStudy(
        scale=StudyScale.tiny(), seed=3, probe_engine=engine_kind
    )
    return study.run_module(
        name, tests=("rowhammer", "retention"), vpp_levels=list(VPP_LEVELS)
    )


@pytest.fixture
def hazard_fallback(monkeypatch):
    """Force every kernel session onto the sensing-hazard fallback, the
    command oracle (as if activation corruption could fire
    everywhere)."""
    monkeypatch.setattr(
        "repro.core.fused._sensing_exact", lambda *args: False
    )


@pytest.fixture(scope="module", params=MODULES)
def trcd_pair(request):
    """Alg. 2 interleaved with Alg. 1 over each module's whole V_PP grid
    (down to V_PPmin, where A0's rows walk *up* from the nominal tRCD)."""
    name = request.param

    def run(engine_kind):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine=engine_kind
        )
        return study.run_module(name, tests=("rowhammer", "trcd"))

    return name, run("command"), run("fused")


@pytest.fixture(scope="module", params=MODULES)
def engine_pair(request):
    name = request.param
    return name, _run(name, "command"), _run(name, "fused")


class TestStudyEquivalence:
    def test_rowhammer_records_identical(self, engine_pair):
        name, command, fused = engine_pair
        assert len(command.rowhammer) == len(fused.rowhammer)
        assert {r.vpp for r in fused.rowhammer} == set(VPP_LEVELS)
        for reference, kernel in zip(command.rowhammer, fused.rowhammer):
            # Frozen dataclasses: equality covers hcfirst, ber and every
            # per-iteration BER value exactly (no tolerance).
            assert kernel == reference

    def test_retention_records_identical(self, engine_pair):
        name, command, fused = engine_pair
        assert len(command.retention) == len(fused.retention)
        for reference, kernel in zip(command.retention, fused.retention):
            assert kernel == reference
            assert kernel.word_flip_histogram == reference.word_flip_histogram

    def test_trcd_records_identical(self, trcd_pair):
        name, command, fused = trcd_pair
        assert len(command.trcd) == len(command.vpp_levels) * len(
            {r.row for r in command.trcd}
        )
        assert fused.trcd == command.trcd
        # Alg. 1 runs between a row's Alg. 2 sweeps on the same device,
        # so it also pins the replayed bookkeeping.
        assert fused.rowhammer == command.rowhammer
        if name == "A0":
            assert max(r.trcd_min for r in command.trcd) > NOMINAL_TRCD

    @pytest.mark.parametrize("name", MODULES)
    def test_hazard_sessions_keep_counter_parity(
        self, name, monkeypatch, hazard_fallback
    ):
        """With every kernel session on the command oracle, the fused
        engine's probe and command counts equal the command engine's,
        and its fallbacks still publish as labeled children."""
        from repro.obs.metrics import MetricsRegistry

        contexts = {}
        build = CharacterizationStudy.build_context

        def capture(study, module):
            ctx = build(study, module)
            contexts[study.probe_engine] = ctx
            return ctx

        monkeypatch.setattr(CharacterizationStudy, "build_context", capture)
        command = _run(name, "command")
        fused = _run(name, "fused")
        assert fused.rowhammer == command.rowhammer
        assert fused.retention == command.retention
        reference = contexts["command"].engine.counters
        counters = contexts["fused"].engine.counters
        for field in ("hammer_probes", "retention_probes", "commands_issued"):
            assert getattr(counters, field) == getattr(reference, field)
        registry = MetricsRegistry()
        counters.publish(registry=registry)
        family = registry.counter(
            "repro_probe_fallbacks_total", labels=("kind", "reason")
        )
        for kind in ("hammer", "retention"):
            sessions = getattr(counters, f"probe_fallbacks_{kind}_sensing")
            assert sessions > 0
            assert family.labels(kind=kind, reason="sensing").value == sessions

    def test_fused_engine_selected_by_default(self):
        study = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, FusedProbeEngine)


class TestDirectProbeEquivalence:
    """Probe-by-probe comparison on fresh, independent benches."""

    def _contexts(self, name, kinds=("command", "fused")):
        contexts = []
        for kind in kinds:
            infra = TestInfrastructure.for_module(
                name, geometry=StudyScale.tiny().geometry, seed=11
            )
            contexts.append(TestContext(infra, StudyScale.tiny(),
                                        probe_engine=kind))
        return contexts

    @pytest.mark.parametrize("name", MODULES)
    def test_hammer_ber_sequence(self, name):
        command_ctx, fused_ctx = self._contexts(name)
        pattern = STANDARD_PATTERNS[0]
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_vpp(vpp)
            for count in (60_000, 120_000, 240_000):
                reference = command_ctx.engine.hammer_ber(
                    command_ctx, 5, pattern, count
                )
                candidate = fused_ctx.engine.hammer_ber(
                    fused_ctx, 5, pattern, count
                )
                assert candidate == reference

    @pytest.mark.parametrize("name", MODULES)
    def test_retention_sequence(self, name):
        command_ctx, fused_ctx = self._contexts(name)
        pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fused_ctx):
                ctx.infra.set_vpp(vpp)
                ctx.infra.set_temperature(80.0)
            for trefw in windows:
                reference = command_ctx.engine.retention_probe(
                    command_ctx, 5, pattern, trefw
                )
                candidate = fused_ctx.engine.retention_probe(
                    fused_ctx, 5, pattern, trefw
                )
                assert candidate == reference

    def _hammer_sessions(self, ctx, pattern, counts):
        answers = []
        for vpp in VPP_LEVELS:
            ctx.infra.set_vpp(vpp)
            with ctx.engine.hammer_session(ctx, 5, pattern) as session:
                for count in counts:
                    answers.append((session.ber(count),
                                    session.any_flip(count)))
                answers.append(tuple(session.ber_ladder(counts[0], 3)))
            answers.append(_row_data(ctx, 5).tobytes())
        return answers

    def _retention_sessions(self, ctx, pattern, windows):
        answers = []
        for vpp in VPP_LEVELS:
            ctx.infra.set_vpp(vpp)
            ctx.infra.set_temperature(80.0)
            with ctx.engine.retention_session(ctx, 5, pattern) as session:
                for trefw in windows:
                    answers.append(session.ber(trefw))
                    answers.append(session.worst_probe(trefw, 2))
                answers.append(session.worst_ladder(windows, 2))
            answers.append(_row_data(ctx, 5).tobytes())
        return answers

    @pytest.mark.parametrize("name", MODULES)
    def test_batch_hammer_session_sequence(self, name, monkeypatch):
        """A schedule-batched kernel session's per-probe answers (scalar
        reductions), and those of a session its sensing-hazard fallback
        hands to the command oracle, match the command path probe for
        probe, including the deferred data materialization at close."""
        pattern = STANDARD_PATTERNS[0]
        counts = (60_000, 120_000, 240_000, 480_000)
        command_ctx, fused_ctx = self._contexts(name)
        reference = self._hammer_sessions(command_ctx, pattern, counts)
        assert self._hammer_sessions(fused_ctx, pattern, counts) == reference
        monkeypatch.setattr(
            "repro.core.fused._sensing_exact", lambda *args: False
        )
        (fallback_ctx,) = self._contexts(name, ("fused",))
        assert self._hammer_sessions(
            fallback_ctx, pattern, counts
        ) == reference
        assert fallback_ctx.engine.counters.probe_fallbacks_hammer_sensing

    @pytest.mark.parametrize("name", MODULES)
    def test_batch_retention_session_sequence(self, name, monkeypatch):
        pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        command_ctx, fused_ctx = self._contexts(name)
        reference = self._retention_sessions(command_ctx, pattern, windows)
        assert self._retention_sessions(
            fused_ctx, pattern, windows
        ) == reference
        monkeypatch.setattr(
            "repro.core.fused._sensing_exact", lambda *args: False
        )
        (fallback_ctx,) = self._contexts(name, ("fused",))
        assert self._retention_sessions(
            fallback_ctx, pattern, windows
        ) == reference
        counters = fallback_ctx.engine.counters
        assert counters.probe_fallbacks_retention_sensing


def _device_state(ctx):
    """Everything Alg. 2's bookkeeping touches: the clock, the bank's
    activation count and every materialized row's state (in
    materialization order)."""
    bank = ctx.infra.module.bank(0)
    rows = [
        (
            physical, state.session, state.damage_bulk,
            state.damage_outlier, state.last_restore_time,
            state.vpp_at_restore, state.pattern_index,
            state.data.tobytes(), state.cache.get("_flip_guard"),
        )
        for physical, state in bank._rows.items()
    ]
    return ctx.infra.module.env.now, bank.total_activations, rows


class TestTrcdSweepEquivalence:
    """Alg. 2 sweeps on fresh benches: the command oracle vs the fused
    kernel, down to the post-sweep device state."""

    ROW = 40

    def _contexts(self, name, kinds=("command", "fused")):
        contexts = []
        for kind in kinds:
            infra = TestInfrastructure.for_module(
                name, geometry=StudyScale.tiny().geometry, seed=11
            )
            infra.set_temperature(50.0)
            contexts.append(TestContext(infra, StudyScale.tiny(),
                                        probe_engine=kind))
        return contexts

    def _sweeps(self, contexts, vpp=None, iterations=None):
        values = []
        for ctx in contexts:
            ctx.infra.set_vpp(vpp or ctx.infra.module.vppmin)
            values.append([
                find_trcd_min(ctx, row, pattern, iterations=iterations)
                for row in (self.ROW, self.ROW + 1, self.ROW)
                for pattern in STANDARD_PATTERNS[:2]
            ])
        return values

    def _assert_identical(self, contexts, values):
        command = contexts[0]
        for ctx, value in zip(contexts[1:], values[1:]):
            assert value == values[0]
            assert _device_state(ctx) == _device_state(command)
            counters = ctx.engine.counters
            assert counters.trcd_probes == command.engine.counters.trcd_probes
            assert counters.trcd_fallbacks_retention_guard == 0
            assert counters.commands_issued == 0
            assert counters.sweep_hits + counters.sweep_misses == 0

    @pytest.mark.parametrize("case", [
        # (module, V_PP or None for V_PPmin, iterations)
        ("A0", 2.5, None),   # clean at nominal tRCD: walks down
        ("A0", 1.6, None),   # faulty at nominal tRCD: walks up
        ("B3", None, None),  # at V_PPmin
        ("C5", 2.5, 1),      # one iteration: the WCDP ranking path
    ], ids=["walk-down", "walk-up", "vppmin", "one-iteration"])
    def test_sweep_state_identical(self, case):
        name, vpp, iterations = case
        contexts = self._contexts(name)
        values = self._sweeps(contexts, vpp, iterations)
        self._assert_identical(contexts, values)
        direction = values[0][0] > NOMINAL_TRCD
        if case[1] == 1.6:
            assert direction
        elif case[1] == 2.5:
            assert not direction

    def test_sweep_after_aging(self):
        """Large pending damage and a week of decay sit on the row
        before the first WRITE: the replay must not depend on them."""
        contexts = self._contexts("A0")
        before = self._sweeps(contexts, 2.5)
        for ctx in contexts:
            aging = Program()
            aging.hammer_doublesided(
                0, ctx.adjacency.neighbors(0, self.ROW), 100_000
            )
            ctx.infra.host.execute(aging)
            ctx.infra.module.env.advance(7 * 24 * 3600.0)
        after = self._sweeps(contexts, 2.5)
        self._assert_identical(
            contexts, [b + a for b, a in zip(before, after)]
        )

    def test_trcd_stability_table_identical(self, monkeypatch):
        from repro.harness.experiments import trcd_stability

        outputs = []
        for kind in ("command", "fused"):
            # The experiment builds its own contexts; the engine seam is
            # the TestContext it constructs.
            monkeypatch.setattr(
                trcd_stability, "TestContext",
                functools.partial(TestContext, probe_engine=kind),
            )
            outputs.append(run_experiment(
                "trcd_stability", scale=StudyScale.tiny(), modules=("B3",)
            ))
        for output in outputs[1:]:
            assert output.render() == outputs[0].render()
            assert output.data == outputs[0].data

    def test_per_column_falls_back_to_command(self):
        command, fused = self._contexts("A0")
        values = [
            find_trcd_min(ctx, self.ROW, STANDARD_PATTERNS[0],
                          iterations=1, per_column=True)
            for ctx in (command, fused)
        ]
        assert values[0] == values[1]
        assert _device_state(fused) == _device_state(command)
        assert fused.engine.counters.trcd_fallbacks_per_column == 1

    def test_retention_guard_falls_back_to_command(self, monkeypatch):
        from repro.dram.bank import TrcdSweep

        monkeypatch.setattr(
            TrcdSweep, "min_charged_retention", lambda self: 0.0
        )
        contexts = self._contexts("A0")
        values = self._sweeps(contexts, 2.5)
        assert values[0] == values[1]
        assert _device_state(contexts[1]) == _device_state(contexts[0])
        counters = contexts[1].engine.counters
        assert counters.trcd_fallbacks_retention_guard == 6

    def test_unarmed_injector_keeps_the_kernel(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=11,
            fault_injector=FaultInjector(None),
        )
        ctx = TestContext(infra, StudyScale.tiny(), probe_engine="fused")
        find_trcd_min(ctx, self.ROW, STANDARD_PATTERNS[0])
        assert ctx.engine.counters.trcd_fallbacks_fault_injector == 0
        assert ctx.engine.counters.trcd_probes > 0

    @pytest.mark.parametrize("after", [40, 900])
    def test_armed_fault_fires_at_the_same_tick(self, monkeypatch, after):
        """An armed injector keeps Alg. 2 on the command path, so an
        FPGA timeout strikes the same instruction on the fused engine
        as on the command engine."""
        contexts = {}
        build = CharacterizationStudy.build_context

        def capture(study, name):
            ctx = build(study, name)
            contexts[study.probe_engine] = ctx
            return ctx

        monkeypatch.setattr(CharacterizationStudy, "build_context", capture)
        injectors = {}
        for kind in ("command", "fused"):
            injectors[kind] = FaultInjector(
                FaultSpec(kind="fpga_timeout", after=after)
            )
            study = CharacterizationStudy(
                scale=StudyScale.tiny(), seed=3, probe_engine=kind,
                fault_injector=injectors[kind],
            )
            with pytest.raises(FpgaTimeoutError):
                study.run_module("A0", tests=("trcd",))
        command, fused = contexts["command"], contexts["fused"]
        assert injectors["fused"].fired and injectors["command"].fired
        # Same simulated instant, same activation count, same probe
        # count.
        assert _device_state(fused)[:2] == _device_state(command)[:2]
        counters = fused.engine.counters
        assert counters.trcd_probes == command.engine.counters.trcd_probes
        assert counters.trcd_probes > 0
        assert counters.trcd_fallbacks_fault_injector > 0


class TestEngineSelection:
    def test_explicit_kind_beats_env(self, monkeypatch):
        # The constructor argument is the only selector: the variable
        # older versions read selects nothing.
        monkeypatch.setenv("REPRO_PROBE_ENGINE", "command")
        default = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        assert isinstance(default.build_context("A0").engine,
                          FusedProbeEngine)
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine="command"
        )
        assert isinstance(study.build_context("A0").engine,
                          CommandProbeEngine)

    def test_unknown_engine_rejected(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        with pytest.raises(ConfigurationError, match="fused"):
            TestContext(infra, StudyScale.tiny(), probe_engine="warp")

    def test_engine_names_are_kernel_and_oracle(self):
        assert ENGINE_NAMES == ("fused", "command")

    @pytest.mark.parametrize("retired", ["batch", "fast"])
    def test_retired_engines_rejected(self, retired):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        with pytest.raises(ConfigurationError, match=retired):
            TestContext(infra, StudyScale.tiny(), probe_engine=retired)

    def test_fused_engine_selected_explicitly(self):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine="fused"
        )
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, FusedProbeEngine)
        assert ctx.engine.name == "fused"

    def test_trr_forces_command_engine(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3,
            trr_enabled=True,
        )
        ctx = TestContext(infra, StudyScale.tiny())
        assert isinstance(make_engine(ctx), CommandProbeEngine)

    def test_trr_forces_command_even_when_fused_requested(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3,
            trr_enabled=True,
        )
        ctx = TestContext(infra, StudyScale.tiny())
        assert isinstance(make_engine(ctx, kind="fused"), CommandProbeEngine)

    def test_probe_counters_recorded(self):
        study = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        ctx = study.build_context("A0")
        from repro.core.rowhammer import measure_ber

        measure_ber(ctx, 5, STANDARD_PATTERNS[0], 10_000)
        assert ctx.engine.counters.hammer_probes == 1
        assert ctx.engine.counters.commands_issued > 0


class TestSweepCache:
    """The sweep LRU and its traffic counters. Its cap is the constant
    ``repro.core.fused._SWEEP_CACHE_SIZE``, which tests patch to force
    evictions."""

    @pytest.fixture
    def capacity(self, monkeypatch):
        def patch(entries):
            monkeypatch.setattr("repro.core.fused._SWEEP_CACHE_SIZE", entries)
        return patch

    def _context(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        return TestContext(infra, StudyScale.tiny(), probe_engine="fused")

    def test_capacity_default_and_override(self, capacity):
        assert self._context().engine._sweep_capacity == 1024
        capacity(7)
        assert self._context().engine._sweep_capacity == 7

    def test_hit_miss_counters(self):
        ctx = self._context()
        pattern = STANDARD_PATTERNS[0]
        ctx.engine.hammer_ber(ctx, 5, pattern, 1_000)
        assert ctx.engine.counters.sweep_misses == 1
        assert ctx.engine.counters.sweep_hits == 0
        ctx.engine.hammer_ber(ctx, 5, pattern, 1_000)
        assert ctx.engine.counters.sweep_hits == 1
        assert ctx.engine.counters.sweep_evictions == 0

    def test_capacity_one_evicts(self, capacity):
        capacity(1)
        ctx = self._context()
        ctx.engine.hammer_ber(ctx, 5, STANDARD_PATTERNS[0], 1_000)
        ctx.engine.hammer_ber(ctx, 9, STANDARD_PATTERNS[0], 1_000)
        ctx.engine.hammer_ber(ctx, 5, STANDARD_PATTERNS[0], 1_000)
        counters = ctx.engine.counters
        assert counters.sweep_misses == 3
        assert counters.sweep_evictions == 2
        assert counters.sweep_hits == 0

    def test_sessions_save_lookups(self):
        """One sweep resolution serves a whole session: repeated probes
        are counted as saved LRU lookups (the ``measure_worst_ber``
        satellite fix)."""
        from tests.core.hammer_oracle import measure_worst_ber

        ctx = self._context()
        ber, values = measure_worst_ber(
            ctx, 5, STANDARD_PATTERNS[0], 50_000, 4
        )
        counters = ctx.engine.counters
        assert len(values) == 4
        assert ber == max(values)
        assert counters.sweep_misses == 1
        assert counters.sweep_saved_lookups == 3

    @pytest.mark.parametrize("fallback", [False, True])
    def test_every_session_probe_after_the_first_saves_a_lookup(
        self, monkeypatch, fallback
    ):
        if fallback:
            monkeypatch.setattr(
                "repro.core.fused._sensing_exact", lambda *args: False
            )
        ctx = self._context()
        ctx.infra.set_temperature(80.0)
        with ctx.engine.hammer_session(
            ctx, 5, STANDARD_PATTERNS[0]
        ) as session:
            session.ber(50_000)
            session.any_flip(50_000)
            session.ber_ladder(50_000, 3)
        with ctx.engine.retention_session(
            ctx, 5, STANDARD_PATTERNS[2]
        ) as session:
            session.ber(0.5)
            session.ber(0.5)
            session.worst_probe(0.5, 3)
            session.worst_ladder((0.25, 0.5), 2)
        counters = ctx.engine.counters
        assert counters.sweep_misses == 2
        assert counters.sweep_saved_lookups == (5 - 1) + (9 - 1)

    def test_counters_flow_into_profile(self, capacity):
        capacity(1)
        ctx = self._context()
        ctx.engine.hammer_ber(ctx, 5, STANDARD_PATTERNS[0], 1_000)
        summary = ctx.engine.counters.as_dict()
        assert summary["sweep_misses"] == 1


class TestSensingHazard:
    """A real sensing hazard: tRCD-offender rows at low V_PP, where the
    probes' safe tRCD no longer covers every cell's activation
    requirement, so kernel sessions run on the command oracle."""

    VPP_LEVELS = (2.5, 1.4)

    @pytest.fixture
    def offender_rows(self, monkeypatch):
        # Double every row's activation requirement: at A0's V_PPmin
        # the slowest cells then undercut the safe tRCD, at nominal V_PP
        # they do not.
        original = CellParameterGenerator.trcd_row_factor
        monkeypatch.setattr(
            CellParameterGenerator, "trcd_row_factor",
            lambda self, physical_row: 2.0 * original(self, physical_row),
        )

    def _study(self, monkeypatch, kind):
        contexts = []
        build = CharacterizationStudy.build_context

        def capture(study, name):
            ctx = build(study, name)
            contexts.append(ctx)
            return ctx

        monkeypatch.setattr(CharacterizationStudy, "build_context", capture)
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine=kind
        )
        result = study.run_module(
            "A0", tests=("rowhammer", "retention"),
            vpp_levels=list(self.VPP_LEVELS),
        )
        return result, contexts[0].engine.counters

    def test_fallback_counted_and_records_identical(
        self, monkeypatch, offender_rows
    ):
        command, _ = self._study(monkeypatch, "command")
        fused, counters = self._study(monkeypatch, "fused")
        assert counters.probe_fallbacks_hammer_sensing > 0
        assert counters.probe_fallbacks_retention_sensing > 0
        assert fused.rowhammer == command.rowhammer
        assert fused.retention == command.retention

    def test_program_fallback_counted_and_identical(self, offender_rows):
        from repro.core.probe import open_hammer_session
        from repro.progdsl import compile_program

        program = compile_program("quad-sided")
        answers = {}
        for kind in ("command", "fused"):
            infra = TestInfrastructure.for_module(
                "A0", geometry=StudyScale.tiny().geometry, seed=11
            )
            ctx = TestContext(infra, StudyScale.tiny(), probe_engine=kind,
                              program=program)
            infra.set_vpp(1.4)
            with open_hammer_session(ctx, 64, STANDARD_PATTERNS[0]) as probe:
                answers[kind] = [
                    probe.ber(count) for count in (60_000, 120_000)
                ]
            answers[kind].append(_row_data(ctx, 64).tobytes())
            counters = ctx.engine.counters
        assert answers["fused"] == answers["command"]
        assert counters.probe_fallbacks_program_sensing == 1

    def test_fallbacks_publish_by_kind(self):
        from repro.core.perf import ProbeCounters
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        ProbeCounters(
            probe_fallbacks_hammer_sensing=2,
            probe_fallbacks_program_sensing=1,
        ).publish(registry=registry)
        family = registry.counter(
            "repro_probe_fallbacks_total", labels=("kind", "reason")
        )
        assert family.labels(kind="hammer", reason="sensing").value == 2
        assert family.labels(kind="program", reason="sensing").value == 1
        assert family.labels(kind="retention", reason="sensing").value == 0
