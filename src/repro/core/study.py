"""The full characterization campaign (Section 4's experimental flow).

For each module:

1. build the bench (Fig. 2), find V_PPmin empirically, derive the V_PP
   grid (nominal 2.5 V down to V_PPmin in 0.1 V steps);
2. sample the test rows (four chunks spread over a bank);
3. determine each row's WCDP per test type at nominal V_PP;
4. at every V_PP level, run Alg. 1 (RowHammer) and Alg. 2 (tRCD) at
   50 degC, and Alg. 3 (retention) at 80 degC.

The study is deterministic for a given (scale, seed): modules are
rebuilt per run and all device randomness derives from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs import clock
from repro.obs import events as obs_events
from repro.obs.trace import TRACER
from repro.core import retention as retention_test
from repro.core import rowhammer as rowhammer_test
from repro.core import trcd as trcd_test
from repro.core.adjacency import ReverseEngineeredAdjacency
from repro.core.context import TestContext
from repro.core.results import (
    ModuleResult,
    RetentionTable,
    RowHammerTable,
    TrcdTable,
)
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.wcdp import (
    retention_wcdp,
    rowhammer_probe_bound,
    rowhammer_wcdp,
    trcd_wcdp,
)
from repro.dram import constants
from repro.dram.profiles import MODULE_PROFILES, module_profile
from repro.errors import ConfigurationError
from repro.softmc.infrastructure import TestInfrastructure

#: The three test types a study can run.
TEST_TYPES = ("rowhammer", "trcd", "retention")


@dataclass
class StudyResult:
    """Results of a campaign, keyed by module name."""

    scale: StudyScale
    seed: int
    modules: Dict[str, ModuleResult] = field(default_factory=dict)
    #: Optional :mod:`repro.obs.provenance` block describing what
    #: produced this result; attached by the cache/service export paths
    #: and round-tripped by :mod:`repro.core.serialization`.
    provenance: Optional[Dict[str, Any]] = None

    def module(self, name: str) -> ModuleResult:
        """One module's results."""
        try:
            return self.modules[name]
        except KeyError:
            raise ConfigurationError(
                f"module {name!r} not part of this study; have "
                f"{sorted(self.modules)}"
            ) from None

    def by_vendor(self, vendor: str) -> List[ModuleResult]:
        """Results of all modules of one vendor letter (``"A"``...)."""
        return [m for m in self.modules.values() if m.vendor == vendor]


class CharacterizationStudy:
    """Orchestrates the paper's experiments over modules and V_PP levels.

    Parameters
    ----------
    scale:
        Sampling parameters; defaults to bench scale.
    seed:
        Root seed of all simulated-device randomness.
    reverse_engineer_adjacency:
        Use the hammering-based adjacency discovery experiment instead of
        the mapping oracle (slower; the oracle is validated against the
        experiment in the test suite).
    progress:
        Optional callback ``(message: str) -> None`` for long runs.
    probe_engine:
        Probe-engine override (``"fused"``, the kernel, or
        ``"command"``, the oracle; see
        :data:`repro.core.probe.ENGINE_NAMES`); None selects the default
        policy of :func:`repro.core.probe.make_engine`. Both engines
        give the same results; the differential tests and the
        benchmarks are its callers.
    fault_injector:
        Optional :class:`repro.service.faults.FaultInjector` wired into
        every bench this study builds (the orchestration service uses
        this to rehearse transient infrastructure faults). An injected
        fault aborts the module run with a
        :class:`~repro.errors.BenchFaultError`; nothing about the device
        state survives the abort, so a retried run from the same seed is
        bit-identical to an undisturbed one.
    program:
        Optional DRAM-program selection (:mod:`repro.progdsl`): a
        registered program name, a :class:`~repro.progdsl.spec.
        ProgramSpec` or an already-compiled program. Structurally
        default programs (the paper's double-sided hammer schedule,
        a retention ladder with no overrides) are normalized to None
        at context-build time so their runs -- and their cached study
        fingerprints -- are bit-identical to the pre-DSL paths.
    """

    def __init__(
        self,
        scale: StudyScale = None,
        seed: int = 0,
        reverse_engineer_adjacency: bool = False,
        progress: Optional[Callable[[str], None]] = None,
        probe_engine: str = None,
        fault_injector=None,
        program=None,
    ):
        from repro.progdsl import compile_program  # local: keep core light

        self.scale = scale or StudyScale.bench()
        self.seed = seed
        self._reverse_engineer = reverse_engineer_adjacency
        self._progress = progress or (lambda message: None)
        self.probe_engine = probe_engine
        self.fault_injector = fault_injector
        self.program = compile_program(program)

    # -- module-level runs --------------------------------------------------------

    def build_context(self, name: str) -> TestContext:
        """Assemble the bench and context for one module."""
        infra = TestInfrastructure.for_module(
            name, geometry=self.scale.geometry, seed=self.seed,
            fault_injector=self.fault_injector,
        )
        program = self.program
        if program is not None and program.is_default:
            # Structurally the paper's schedule: run the pre-DSL path so
            # results and fingerprints stay byte-identical to it.
            program = None
        ctx = TestContext(
            infra, self.scale, probe_engine=self.probe_engine,
            program=program,
        )
        if self._reverse_engineer:
            ctx.adjacency = ReverseEngineeredAdjacency(infra)
        return ctx

    def run_module(
        self, name: str, tests: Sequence[str] = TEST_TYPES,
        vpp_levels: Sequence[float] = None,
        rows: Sequence[int] = None,
    ) -> ModuleResult:
        """Characterize one module across its V_PP grid.

        ``rows`` restricts the characterization to an explicit row subset
        (the chunk-parallel campaign uses this); the default is the
        scale's full :func:`~repro.core.sampling.sample_rows` sample.
        """
        for test in tests:
            if test not in TEST_TYPES:
                raise ConfigurationError(f"unknown test type {test!r}")
        with TRACER.span("module", module=name, tests=list(tests)) as span:
            return self._run_module_traced(
                name, tests, vpp_levels, rows, span
            )

    def _run_module_traced(
        self, name, tests, vpp_levels, rows, span
    ) -> ModuleResult:
        profile = module_profile(name)
        ctx = self.build_context(name)
        span.set(engine=ctx.engine.name, vendor=profile.vendor.value,
                 seed=self.seed)
        infra = ctx.infra
        if vpp_levels is None:
            vpp_levels = infra.vpp_levels(self.scale.vpp_step)
        if rows is None:
            rows = sample_rows(
                infra.module.geometry.rows_per_bank,
                self.scale.rows_per_module,
                self.scale.row_chunks,
            )
        span.set(rows=len(rows))
        # The kernel engine precomputes the per-row sort orders the
        # requested tests walk, in stacked passes over row blocks, and
        # before each hammer pass (the RowHammer WCDP, Alg. 1 at every
        # V_PP) derives the whole pass's measurement jitter at once.
        preheat = getattr(ctx.engine, "preheat", None)
        hammer_passes = preheat is not None and "rowhammer" in tests
        if preheat is not None:
            preheat(ctx, rows, tests, hammer_probes=(
                rowhammer_probe_bound(self.scale) if hammer_passes else 0
            ))

        # Alg. 1/2/3 row outputs, assembled into the module's tables once.
        rowhammer_rows, trcd_rows, retention_rows = [], [], []

        # WCDP determination at nominal V_PP (Section 4.1).
        with TRACER.span("wcdp"):
            infra.set_vpp(constants.NOMINAL_VPP)
            infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
            wcdp_rh = {}
            wcdp_act = {}
            if "rowhammer" in tests:
                self._progress(f"{name}: determining RowHammer WCDPs")
                wcdp_rh = {row: rowhammer_wcdp(ctx, row) for row in rows}
            if "trcd" in tests:
                self._progress(f"{name}: determining tRCD WCDPs")
                wcdp_act = {row: trcd_wcdp(ctx, row) for row in rows}
            wcdp_ret = {}
            if "retention" in tests:
                infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
                self._progress(f"{name}: determining retention WCDPs")
                wcdp_ret = {row: retention_wcdp(ctx, row) for row in rows}

        # RowHammer and tRCD at 50 degC across the V_PP grid. With tRCD
        # in the mix, the sequential per-row interleave is preserved
        # (tRCD probes run between a row's RowHammer schedules, so probe
        # chronology is row-by-row); a RowHammer-only campaign hands the
        # whole row set to the batch entry point per operating point.
        if "rowhammer" in tests or "trcd" in tests:
            infra.set_temperature(constants.ROWHAMMER_TEST_TEMPERATURE)
            for vpp in vpp_levels:
                infra.set_vpp(vpp)
                self._progress(f"{name}: V_PP={vpp:.1f} V (50 degC tests)")
                with TRACER.span(
                    "operating-point", module=name, vpp=vpp, phase="50C",
                ):
                    if hammer_passes:
                        preheat(ctx, rows, (), hammer_probes=(
                            rowhammer_test.probe_bound(self.scale)
                        ))
                    if "trcd" not in tests:
                        rowhammer_rows.extend(
                            rowhammer_test.characterize_rows(
                                ctx, rows, wcdp_rh, vpp
                            )
                        )
                        continue
                    for row in rows:
                        if "rowhammer" in tests:
                            with TRACER.span("rowhammer"):
                                rowhammer_rows.append(
                                    rowhammer_test.characterize_row(
                                        ctx, row, wcdp_rh[row], vpp
                                    )
                                )
                        with TRACER.span("trcd"):
                            trcd_rows.append(
                                trcd_test.characterize_row(
                                    ctx, row, wcdp_act[row], vpp
                                )
                            )

        # Retention at 80 degC across the V_PP grid.
        if "retention" in tests:
            infra.set_temperature(constants.RETENTION_TEST_TEMPERATURE)
            for vpp in vpp_levels:
                infra.set_vpp(vpp)
                self._progress(f"{name}: V_PP={vpp:.1f} V (retention)")
                with TRACER.span(
                    "operating-point", module=name, vpp=vpp, phase="80C",
                ):
                    retention_rows.extend(
                        retention_test.characterize_rows(
                            ctx, rows, wcdp_ret, vpp
                        )
                    )
        ctx.engine.counters.publish()
        return ModuleResult(
            module=name,
            vendor=profile.vendor.value,
            vppmin=min(vpp_levels),
            vpp_levels=list(vpp_levels),
            rowhammer=RowHammerTable.from_rows(rowhammer_rows),
            trcd=TrcdTable.from_rows(trcd_rows),
            retention=RetentionTable.from_rows(retention_rows),
        )

    # -- campaign-level runs ---------------------------------------------------------

    def run(
        self,
        modules: Iterable[str] = None,
        tests: Sequence[str] = TEST_TYPES,
    ) -> StudyResult:
        """Run the campaign over ``modules`` (default: all of Table 3)."""
        names = list(modules) if modules is not None else sorted(MODULE_PROFILES)
        result = StudyResult(scale=self.scale, seed=self.seed)
        obs_events.emit(
            "campaign_started", units=len(names), tests=list(tests),
            seed=self.seed, mode="sequential",
        )
        with TRACER.span(
            "campaign", units=len(names), seed=self.seed, mode="sequential",
        ):
            for name in names:
                started = clock.monotonic()
                result.modules[name] = self.run_module(name, tests=tests)
                elapsed = clock.monotonic() - started
                self._progress(f"{name}: done in {elapsed:.1f}s")
                obs_events.emit(
                    "unit_finished", unit=name,
                    seconds=round(elapsed, 6),
                )
        obs_events.emit("campaign_finished", units=len(names))
        return result
