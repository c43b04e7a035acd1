"""Differential tests: the kernelized probe engines vs the command path.

The fast, batch and fused engines must be *bit-identical* to the
validated ``Program``/``SoftMCHost`` reference for every quantity the
studies record -- HC_first, RowHammer BER (including per-iteration
values), tRCD_min and retention BER/histograms -- across modules of all
three vendors and multiple V_PP levels. Alg. 2's kernel is pinned down
to the post-sweep device state. Any divergence here means a kernel's
replay of the command schedule (session counters, simulated-time
offsets, damage deposit order, sorted-threshold reductions) has drifted
from the host's semantics.
"""

import pytest

from repro.core.context import TestContext
from repro.core.fused import FusedProbeEngine
from repro.core.probe import (
    BatchProbeEngine,
    CommandProbeEngine,
    FastProbeEngine,
    make_engine,
    sweep_cache_byte_capacity,
    sweep_cache_capacity,
)
from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.core.trcd import find_trcd_min
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


@pytest.fixture(scope="module", params=MODULES)
def trcd_quartet(request):
    """Alg. 2 interleaved with Alg. 1 over each module's whole V_PP grid
    (down to V_PPmin, where A0's rows walk *up* from the nominal tRCD)."""
    name = request.param

    def run(engine_kind):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine=engine_kind
        )
        return study.run_module(name, tests=("rowhammer", "trcd"))

    return (
        name, run("command"), run("fast"), run("batch"), run("fused"),
    )


@pytest.fixture(scope="module", params=MODULES)
def engine_quartet(request):
    name = request.param
    return (
        name,
        _run(name, "command"),
        _run(name, "fast"),
        _run(name, "batch"),
        _run(name, "fused"),
    )


class TestStudyEquivalence:
    def test_rowhammer_records_identical(self, engine_quartet):
        name, command, fast, batch, fused = engine_quartet
        assert len(command.rowhammer) == len(fast.rowhammer)
        assert len(command.rowhammer) == len(batch.rowhammer)
        assert len(command.rowhammer) == len(fused.rowhammer)
        assert {r.vpp for r in fast.rowhammer} == set(VPP_LEVELS)
        for reference, kernel, batched, cross in zip(
            command.rowhammer, fast.rowhammer, batch.rowhammer,
            fused.rowhammer,
        ):
            # Frozen dataclasses: equality covers hcfirst, ber and every
            # per-iteration BER value exactly (no tolerance).
            assert kernel == reference
            assert batched == reference
            assert cross == reference

    def test_retention_records_identical(self, engine_quartet):
        name, command, fast, batch, fused = engine_quartet
        assert len(command.retention) == len(fast.retention)
        assert len(command.retention) == len(batch.retention)
        assert len(command.retention) == len(fused.retention)
        for reference, kernel, batched, cross in zip(
            command.retention, fast.retention, batch.retention,
            fused.retention,
        ):
            assert kernel == reference
            assert batched == reference
            assert cross == reference
            assert (
                batched.word_flip_histogram == reference.word_flip_histogram
            )
            assert cross.word_flip_histogram == reference.word_flip_histogram

    def test_trcd_records_identical(self, trcd_quartet):
        name, command, fast, batch, fused = trcd_quartet
        assert len(command.trcd) == len(command.vpp_levels) * len(
            {r.row for r in command.trcd}
        )
        for kernel in (fast, batch, fused):
            assert kernel.trcd == command.trcd
            # Alg. 1 runs between a row's Alg. 2 sweeps on the same
            # device, so it also pins the replayed bookkeeping.
            assert kernel.rowhammer == command.rowhammer
        if name == "A0":
            assert max(r.trcd_min for r in command.trcd) > NOMINAL_TRCD

    def test_batch_engine_selected_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROBE_ENGINE", raising=False)
        study = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, BatchProbeEngine)


class TestDirectProbeEquivalence:
    """Probe-by-probe comparison on fresh, independent benches."""

    def _contexts(self, name, kinds=("command", "fast")):
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
        command_ctx, fast_ctx = self._contexts(name)
        pattern = STANDARD_PATTERNS[0]
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fast_ctx):
                ctx.infra.set_vpp(vpp)
            for count in (60_000, 120_000, 240_000):
                reference = command_ctx.engine.hammer_ber(
                    command_ctx, 5, pattern, count
                )
                candidate = fast_ctx.engine.hammer_ber(
                    fast_ctx, 5, pattern, count
                )
                assert candidate == reference

    @pytest.mark.parametrize("name", MODULES)
    def test_retention_sequence(self, name):
        command_ctx, fast_ctx = self._contexts(name)
        pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        for vpp in VPP_LEVELS:
            for ctx in (command_ctx, fast_ctx):
                ctx.infra.set_vpp(vpp)
                ctx.infra.set_temperature(80.0)
            for trefw in windows:
                reference = command_ctx.engine.retention_probe(
                    command_ctx, 5, pattern, trefw
                )
                candidate = fast_ctx.engine.retention_probe(
                    fast_ctx, 5, pattern, trefw
                )
                assert candidate == reference

    @pytest.mark.parametrize("name", MODULES)
    def test_batch_hammer_session_sequence(self, name):
        """A batch session's per-probe answers (scalar reductions) match
        the fast engine's per-probe vector path, including the deferred
        data materialization at close."""
        fast_ctx, batch_ctx = self._contexts(name, ("fast", "batch"))
        pattern = STANDARD_PATTERNS[0]
        counts = (60_000, 120_000, 240_000, 480_000)
        for vpp in VPP_LEVELS:
            for ctx in (fast_ctx, batch_ctx):
                ctx.infra.set_vpp(vpp)
            with fast_ctx.engine.hammer_session(
                fast_ctx, 5, pattern
            ) as reference, batch_ctx.engine.hammer_session(
                batch_ctx, 5, pattern
            ) as candidate:
                for count in counts:
                    assert candidate.ber(count) == reference.ber(count)
                    assert candidate.any_flip(count) == reference.any_flip(
                        count
                    )
            # The deferred flush must leave identical device state.
            assert (_row_data(fast_ctx, 5) == _row_data(batch_ctx, 5)).all()

    @pytest.mark.parametrize("name", MODULES)
    def test_batch_retention_session_sequence(self, name):
        fast_ctx, batch_ctx = self._contexts(name, ("fast", "batch"))
        pattern = STANDARD_PATTERNS[2]
        windows = list(StudyScale.tiny().retention_windows)
        for vpp in VPP_LEVELS:
            for ctx in (fast_ctx, batch_ctx):
                ctx.infra.set_vpp(vpp)
                ctx.infra.set_temperature(80.0)
            with fast_ctx.engine.retention_session(
                fast_ctx, 5, pattern
            ) as reference, batch_ctx.engine.retention_session(
                batch_ctx, 5, pattern
            ) as candidate:
                for trefw in windows:
                    assert candidate.ber(trefw) == reference.ber(trefw)
                    assert candidate.worst_probe(
                        trefw, 2
                    ) == reference.worst_probe(trefw, 2)
            assert (_row_data(fast_ctx, 5) == _row_data(batch_ctx, 5)).all()


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
    """Alg. 2 sweeps on fresh benches: the command oracle vs the batch
    and fused kernels, down to the post-sweep device state."""

    ROW = 40

    def _contexts(self, name, kinds=("command", "batch", "fused")):
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
        outputs = []
        for kind in ("command", "batch", "fused"):
            monkeypatch.setenv("REPRO_PROBE_ENGINE", kind)
            outputs.append(run_experiment(
                "trcd_stability", scale=StudyScale.tiny(), modules=("B3",)
            ))
        for output in outputs[1:]:
            assert output.render() == outputs[0].render()
            assert output.data == outputs[0].data

    def test_per_column_falls_back_to_command(self):
        command, batch = self._contexts("A0", ("command", "batch"))
        values = [
            find_trcd_min(ctx, self.ROW, STANDARD_PATTERNS[0],
                          iterations=1, per_column=True)
            for ctx in (command, batch)
        ]
        assert values[0] == values[1]
        assert _device_state(batch) == _device_state(command)
        assert batch.engine.counters.trcd_fallbacks_per_column == 1

    def test_retention_guard_falls_back_to_command(self, monkeypatch):
        from repro.dram.bank import TrcdSweep

        monkeypatch.setattr(
            TrcdSweep, "min_charged_retention", lambda self: 0.0
        )
        contexts = self._contexts("A0", ("command", "batch"))
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
        ctx = TestContext(infra, StudyScale.tiny(), probe_engine="batch")
        find_trcd_min(ctx, self.ROW, STANDARD_PATTERNS[0])
        assert ctx.engine.counters.trcd_fallbacks_fault_injector == 0
        assert ctx.engine.counters.trcd_probes > 0

    @pytest.mark.parametrize("after", [40, 900])
    def test_armed_fault_fires_at_the_same_tick(self, monkeypatch, after):
        """An armed injector keeps Alg. 2 on the command path, so an
        FPGA timeout strikes the same instruction on the batch engine
        as on the command engine."""
        contexts = {}
        build = CharacterizationStudy.build_context

        def capture(study, name):
            ctx = build(study, name)
            contexts[study.probe_engine] = ctx
            return ctx

        monkeypatch.setattr(CharacterizationStudy, "build_context", capture)
        injectors = {}
        for kind in ("command", "batch"):
            injectors[kind] = FaultInjector(
                FaultSpec(kind="fpga_timeout", after=after)
            )
            study = CharacterizationStudy(
                scale=StudyScale.tiny(), seed=3, probe_engine=kind,
                fault_injector=injectors[kind],
            )
            with pytest.raises(FpgaTimeoutError):
                study.run_module("A0", tests=("trcd",))
        command, batch = contexts["command"], contexts["batch"]
        assert injectors["batch"].fired and injectors["command"].fired
        # Same simulated instant, same activation count, same probe
        # count. (Whole-bank state differs by design here: the batch
        # engine's preheat materializes the sampled rows up front.)
        assert _device_state(batch)[:2] == _device_state(command)[:2]
        counters = batch.engine.counters
        assert counters.trcd_probes == command.engine.counters.trcd_probes
        assert counters.trcd_probes > 0
        assert counters.trcd_fallbacks_fault_injector > 0


class TestEngineSelection:
    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_ENGINE", "command")
        study = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, CommandProbeEngine)

    def test_explicit_kind_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_ENGINE", "command")
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine="fast"
        )
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, FastProbeEngine)
        assert not isinstance(ctx.engine, BatchProbeEngine)

    def test_unknown_engine_rejected(self):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        with pytest.raises(ConfigurationError, match="batch"):
            TestContext(infra, StudyScale.tiny(), probe_engine="warp")

    def test_fused_engine_selected_explicitly(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROBE_ENGINE", raising=False)
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=3, probe_engine="fused"
        )
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, FusedProbeEngine)
        assert ctx.engine.name == "fused"

    def test_fused_engine_selected_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_ENGINE", "fused")
        study = CharacterizationStudy(scale=StudyScale.tiny(), seed=3)
        ctx = study.build_context("A0")
        assert isinstance(ctx.engine, FusedProbeEngine)

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
    """The configurable sweep LRU and its traffic counters."""

    def _context(self, sweep_cache=None, probe_engine="fast"):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        return TestContext(infra, StudyScale.tiny(),
                           probe_engine=probe_engine,
                           sweep_cache=sweep_cache)

    def test_capacity_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        assert sweep_cache_capacity() == 1024
        assert sweep_cache_capacity(7) == 7
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "12")
        assert sweep_cache_capacity() == 12
        # An explicit override beats the environment.
        assert sweep_cache_capacity(3) == 3

    def test_capacity_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "zero")
        with pytest.raises(ConfigurationError):
            sweep_cache_capacity()
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        with pytest.raises(ConfigurationError):
            sweep_cache_capacity(0)

    def test_hit_miss_counters(self):
        ctx = self._context()
        pattern = STANDARD_PATTERNS[0]
        ctx.engine.hammer_ber(ctx, 5, pattern, 1_000)
        assert ctx.engine.counters.sweep_misses == 1
        assert ctx.engine.counters.sweep_hits == 0
        ctx.engine.hammer_ber(ctx, 5, pattern, 1_000)
        assert ctx.engine.counters.sweep_hits == 1
        assert ctx.engine.counters.sweep_evictions == 0

    def test_capacity_one_evicts(self):
        ctx = self._context(sweep_cache=1)
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
        from repro.core.rowhammer import measure_worst_ber

        ctx = self._context()
        ber, values = measure_worst_ber(
            ctx, 5, STANDARD_PATTERNS[0], 50_000, 4
        )
        counters = ctx.engine.counters
        assert len(values) == 4
        assert ber == max(values)
        assert counters.sweep_misses == 1
        assert counters.sweep_saved_lookups == 3

    def test_counters_flow_into_profile(self):
        ctx = self._context(sweep_cache=1)
        ctx.engine.hammer_ber(ctx, 5, STANDARD_PATTERNS[0], 1_000)
        summary = ctx.engine.counters.as_dict()
        assert summary["sweep_misses"] == 1


class TestSweepCacheByteBudget:
    """The byte-bounded side of the sweep LRU (``REPRO_SWEEP_CACHE_BYTES``)."""

    def _context(self, sweep_cache_bytes=None, probe_engine="fast"):
        infra = TestInfrastructure.for_module(
            "A0", geometry=StudyScale.tiny().geometry, seed=3
        )
        return TestContext(infra, StudyScale.tiny(),
                           probe_engine=probe_engine,
                           sweep_cache_bytes=sweep_cache_bytes)

    def test_byte_capacity_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_BYTES", raising=False)
        assert sweep_cache_byte_capacity() == 256 * 1024 * 1024
        assert sweep_cache_byte_capacity(4096) == 4096
        monkeypatch.setenv("REPRO_SWEEP_CACHE_BYTES", "65536")
        assert sweep_cache_byte_capacity() == 65536
        assert sweep_cache_byte_capacity(1024) == 1024

    def test_byte_capacity_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_BYTES", "plenty")
        with pytest.raises(ConfigurationError):
            sweep_cache_byte_capacity()
        monkeypatch.delenv("REPRO_SWEEP_CACHE_BYTES", raising=False)
        with pytest.raises(ConfigurationError):
            sweep_cache_byte_capacity(0)

    def test_tiny_budget_evicts_but_keeps_newest(self):
        ctx = self._context(sweep_cache_bytes=1)
        pattern = STANDARD_PATTERNS[0]
        ctx.engine.hammer_ber(ctx, 5, pattern, 1_000)
        ctx.engine.hammer_ber(ctx, 9, pattern, 1_000)
        counters = ctx.engine.counters
        # A 1-byte budget can never hold two resident sweeps, but the
        # newest always survives (a session must be able to finish).
        assert counters.sweep_evictions >= 1
        assert len(ctx.engine._sweeps) == 1
        ctx.engine.hammer_ber(ctx, 9, pattern, 1_000)
        assert counters.sweep_hits == 1

    def test_generous_budget_never_evicts(self):
        ctx = self._context(sweep_cache_bytes=1 << 30)
        pattern = STANDARD_PATTERNS[0]
        for row in (5, 9, 13):
            ctx.engine.hammer_ber(ctx, row, pattern, 1_000)
        assert ctx.engine.counters.sweep_evictions == 0
        assert len(ctx.engine._sweeps) == 3

    def test_occupancy_gauge_published(self):
        from repro.obs.metrics import REGISTRY

        ctx = self._context(sweep_cache_bytes=1 << 30)
        # The gauge is refreshed on the miss path, so it reflects the
        # kernel state resident *before* the newest sweep: probe two
        # rows so the first sweep's bytes are visible.
        ctx.engine.hammer_ber(ctx, 5, STANDARD_PATTERNS[0], 1_000)
        ctx.engine.hammer_ber(ctx, 9, STANDARD_PATTERNS[0], 1_000)
        gauges = REGISTRY.snapshot()["gauges"]
        assert gauges.get("repro_sweep_cache_bytes", 0.0) > 0

    def test_fused_residents_are_weightless(self):
        # The fused kernels resolve probes against state-cached base
        # arrays by needle inversion, so resident fused sweeps own no
        # per-operating-point bytes: even a 1-byte budget keeps a whole
        # retention row set resident, where the batch tier's
        # materialized threshold stacks would evict down to one sweep.
        ctx = self._context(sweep_cache_bytes=1, probe_engine="fused")
        pattern = STANDARD_PATTERNS[2]
        ctx.infra.set_temperature(80.0)
        ctx.engine.retention_ber(ctx, 5, pattern, 0.5)
        ctx.engine.retention_ber(ctx, 9, pattern, 0.5)
        assert ctx.engine.counters.sweep_evictions == 0
        assert len(ctx.engine._sweeps) == 2
        batch_ctx = self._context(sweep_cache_bytes=1, probe_engine="batch")
        batch_ctx.infra.set_temperature(80.0)
        batch_ctx.engine.retention_ber(batch_ctx, 5, pattern, 0.5)
        batch_ctx.engine.retention_ber(batch_ctx, 9, pattern, 0.5)
        assert batch_ctx.engine.counters.sweep_evictions >= 1
        assert len(batch_ctx.engine._sweeps) == 1
