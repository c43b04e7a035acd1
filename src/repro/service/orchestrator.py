"""The campaign orchestration service.

:class:`CampaignService` turns a study request into a fault-tolerant,
resumable, observable campaign:

1. **decompose** -- the request becomes gap-partitioned ``(module,
   row-chunk)`` work units (:mod:`repro.service.jobs`);
2. **schedule** -- units run inline (``max_workers<=1``) or across a
   process pool (:mod:`repro.service.pool`) -- the one a serving
   process forked at start and shares between campaigns, or one forked
   for this run -- each attempt in a freshly built bench that derives
   its rows' per-cell parameters itself, the same way in both modes (a
   row belongs to exactly one unit, so no row is derived twice);
3. **tolerate** -- a :class:`~repro.errors.BenchFaultError` (real,
   injected via a :class:`~repro.service.faults.FaultPlan`, or a pool
   worker that hung or died mid-unit) triggers retry with exponential
   backoff; a unit that exhausts its attempts quarantines its *module*
   -- reported, never fatal to the campaign;
4. **checkpoint** -- completed units persist atomically
   (:mod:`repro.service.checkpoint`); ``run(resume=True)`` restores
   them instead of re-running;
5. **merge** -- surviving parts reassemble through
   :func:`repro.core.campaign.merge_module_chunks`, so the merged
   :class:`~repro.core.study.StudyResult` is record-identical to a
   sequential, fault-free run, and is stamped with its provenance
   block (``counters``: the metric deltas of the units this run
   delivered);
6. **observe** -- every step emits a structured telemetry event
   (:mod:`repro.service.telemetry`) and records a
   :data:`~repro.obs.trace.TRACER` span; with the tracer on, pool
   workers ship their spans home as trace fragments, so the runner's
   ``--profile`` table covers worker phases.

Determinism: every attempt rebuilds its bench from the campaign seed,
so retries (and resumed runs) replay the exact measurement a sequential
study would make -- asserted bit-for-bit by
``tests/service/test_orchestrator.py``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.campaign import merge_module_chunks
from repro.core.results import ModuleResult
from repro.core.scale import StudyScale
from repro.core.study import TEST_TYPES, CharacterizationStudy, StudyResult
from repro.errors import (
    BenchFaultError,
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.harness.cache import attach_provenance
from repro.obs import clock
from repro.obs import context as obs_context
from repro.obs.flightrec import RECORDER
from repro.obs.metrics import REGISTRY, MetricsRegistry, snapshot_delta
from repro.obs.trace import TRACER
from repro.service.checkpoint import (
    CheckpointStore,
    SERVICE_SCHEMA_VERSION,
    campaign_dir,
    campaign_fingerprint,
)
from repro.service.faults import FaultInjector, FaultPlan, FaultSpec
from repro.service.jobs import WorkUnit, plan_units
from repro.service.pool import POLL_SECONDS, WorkerPool
from repro.service.telemetry import CampaignMetrics, TelemetryLog


def _execute_unit(
    job: Tuple,
) -> Tuple[ModuleResult, float, Dict, Optional[Dict]]:
    """Worker entry point: characterize one (module, row-chunk) unit.

    Module-level so it pickles into pool workers; also called directly
    in inline mode. Raises :class:`~repro.errors.BenchFaultError` when
    the (possibly injected) bench faults mid-attempt.

    Besides the result and its wall clock, returns the metric delta the
    attempt produced (baseline-relative, so a pool worker never
    re-reports what earlier units left in its registry) and -- in pool
    mode with trace propagation active -- the worker's Chrome-trace
    fragment. The coordinator counts every delivered delta as the
    campaign's spend, but merges it into the registry and collects the
    fragment only across true process boundaries; in inline mode the
    increments and spans already landed in this process's
    registry/tracer.

    The job's trailing ``obs`` dict carries the propagated trace
    context (worker spans re-parent under the submitting job) and the
    flight-recorder dump directory. Pool-side, the long-lived worker
    starts every attempt from an empty recorder ring and a reset tracer
    -- safe because the fragment is this attempt's whole story -- and
    wraps the attempt in one ``work-unit`` root span; inline, the
    coordinator's live tracer and recorder are left untouched.
    """
    module, rows, tests, scale, seed, program, fault_spec, obs_cfg = job
    obs_cfg = obs_cfg or {}
    pool_side = bool(obs_cfg.get("pool"))
    trace_ctx = None
    if pool_side:
        # A pool worker outlives the campaign: each unit starts from an
        # empty flight-recorder ring pointed at its own campaign's dump
        # directory (or at none) and a reset tracer, so a dump or a
        # fragment never carries another unit's story.
        flight_dir = obs_cfg.get("flight_dir")
        RECORDER.clear()
        RECORDER.configure(flight_dir)
        if flight_dir:
            RECORDER.attach()
        else:
            RECORDER.detach()
        TRACER.reset()
        trace_ctx = obs_context.TraceContext.from_dict(
            obs_cfg.get("trace")
        )
        if trace_ctx is not None:
            TRACER.label = f"repro worker pid {os.getpid()}"
            TRACER.enable()
        else:
            TRACER.disable()
    injector = FaultInjector(fault_spec) if fault_spec is not None else None
    with obs_context.activate(trace_ctx):
        study = CharacterizationStudy(
            scale=scale, seed=seed, fault_injector=injector,
            program=program,
        )
        baseline = REGISTRY.snapshot()
        started = clock.monotonic()
        unit_span = (
            TRACER.span("work-unit", module=module, rows=len(rows),
                        pid=os.getpid())
            if pool_side else nullcontext()
        )
        with unit_span:
            result = study.run_module(module, tests=tests, rows=list(rows))
        wall = clock.monotonic() - started
        REGISTRY.histogram(
            "repro_service_unit_run_seconds",
            "in-worker wall clock per work-unit attempt by module",
            labels=("module",),
        ).labels(module=module).observe(wall)
        delta = snapshot_delta(baseline, REGISTRY.snapshot())
    fragment = None
    if pool_side and trace_ctx is not None and TRACER.enabled:
        fragment = TRACER.chrome_trace()
        TRACER.disable()
    return result, wall, delta, fragment


@dataclass
class CampaignOutcome:
    """Everything a finished orchestrated campaign produced: the merged
    study (stamped with its provenance block) and the campaign counters.
    Per-unit facts live in the telemetry events; pool workers' trace
    fragments in :mod:`repro.obs.context`'s collector."""

    study: StudyResult
    metrics: CampaignMetrics


class CampaignService:
    """Resumable, fault-tolerant campaign orchestration.

    Parameters
    ----------
    modules / tests / scale / seed:
        The campaign request (same semantics as
        :meth:`~repro.core.study.CharacterizationStudy.run`).
    chunks_per_module:
        Target chunk count per module, at least 1 (default: the
        scale's ``row_chunks``).
    max_workers:
        ``0`` or ``1`` runs units in-process (deterministic
        scheduling, no pool overhead); ``N>1`` fans units out over a
        process pool, with at most ``N`` of this campaign's units in
        flight: ``pool`` when given, else a pool of ``N`` workers
        forked for this run.
        Either way each attempt's bench derives its own rows' per-cell
        parameters from the campaign seed, so results are bit-identical
        and the coordinator generates nothing ahead of the workers.
    max_attempts:
        Attempts per unit before its module is quarantined.
    backoff:
        Base retry delay in seconds; attempt ``n`` waits
        ``backoff * 2**(n-1)``.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` injecting
        transient bench faults (rehearsal / chaos testing).
    checkpoint_base:
        Base directory under which the campaign checkpoints to its own
        subdirectory (``campaign-<fingerprint>``, the derived
        ``checkpoint_dir`` attribute). None disables checkpointing.
    telemetry:
        A :class:`~repro.service.telemetry.TelemetryLog`; default is an
        in-memory log.
    progress:
        Optional ``(message: str) -> None`` callback for live progress.
    flight_dir:
        Optional directory for flight-recorder dumps. When set, the
        coordinator's :data:`~repro.obs.flightrec.RECORDER` follows the
        event bus and span stream for the duration of :meth:`run`, pool
        workers configure their own recorders at the same directory,
        and the failure paths (fault injection, the timeout reaper,
        quarantine) flush their rings there; the resulting dump paths
        ride on the corresponding telemetry events.
    unit_timeout:
        Per-attempt wall-clock deadline (seconds) in pool mode, counted
        from the moment a free worker took the unit. The pool reaps an
        attempt that exceeds it (:mod:`repro.service.pool`): the unit is
        charged a :class:`~repro.errors.WorkerTimeoutError` fault and
        retried like any transient bench fault, and innocent units that
        died with the workers, in any campaign, restart at the same
        attempt, uncharged. Rebuilt benches replay bit-identically, so
        reaping cannot change the merged study. ``None`` (default)
        disables it; inline mode ignores it (a hung inline unit shares
        our process and cannot be reaped).
    program:
        Optional registered DSL program name (:mod:`repro.progdsl`)
        every worker's study runs its probe schedules through; chunk
        planning widens its gap to the program's coupling reach, and
        the campaign fingerprint (hence checkpoint identity)
        incorporates the canonicalized schedule. None (and any
        structurally-default program) is the paper's schedule.
    pool:
        Optional :class:`~repro.service.pool.WorkerPool` the pooled
        units run on, owned (and shut down) by the caller -- the
        serving process's shared pool.
    """

    def __init__(
        self,
        modules: Sequence[str],
        tests: Sequence[str] = TEST_TYPES,
        scale: StudyScale = None,
        seed: int = 0,
        chunks_per_module: Optional[int] = None,
        max_workers: int = 0,
        max_attempts: int = 3,
        backoff: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_base: Optional[str] = None,
        telemetry: Optional[TelemetryLog] = None,
        progress: Optional[Callable[[str], None]] = None,
        unit_timeout: Optional[float] = None,
        program: Optional[str] = None,
        flight_dir: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ):
        from repro.progdsl import compile_program

        compile_program(program)  # fail fast on unknown program names
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {max_attempts}"
            )
        if backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0: {backoff}")
        if chunks_per_module is not None and chunks_per_module < 1:
            raise ConfigurationError(
                f"chunks_per_module must be >= 1 (or None): "
                f"{chunks_per_module}"
            )
        if max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be >= 0: {max_workers}"
            )
        if unit_timeout is not None and unit_timeout <= 0:
            raise ConfigurationError(
                f"unit_timeout must be > 0 (or None): {unit_timeout}"
            )
        self.modules = list(modules)
        self.tests = tuple(tests)
        self.scale = scale or StudyScale.bench()
        self.seed = seed
        self.chunks_per_module = chunks_per_module
        self.max_workers = max_workers
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.fault_plan = fault_plan
        self.unit_timeout = unit_timeout
        self.program = program
        self.flight_dir = flight_dir
        self.pool = pool
        self._trace_context: Optional[obs_context.TraceContext] = None
        self.telemetry = telemetry or TelemetryLog()
        self._progress = progress or (lambda message: None)
        self.fingerprint = campaign_fingerprint(
            self.tests, self.modules, self.scale, self.seed,
            self.chunks_per_module, program=self.program,
        )
        self.checkpoint_dir = (
            campaign_dir(checkpoint_base, self.fingerprint)
            if checkpoint_base else None
        )

    # -- public API -------------------------------------------------------------

    def run(
        self,
        resume: bool = False,
        on_unit_done: Optional[Callable[[str, int], None]] = None,
    ) -> CampaignOutcome:
        """Execute (or resume) the campaign; returns the merged outcome.

        ``on_unit_done(unit_id, completed_count)`` fires after each
        unit's results are safely checkpointed -- the integration tests
        use it to simulate a mid-run kill; an exception it raises
        propagates after durability, never before.
        """
        if not self.flight_dir:
            return self._run(resume, on_unit_done)
        RECORDER.configure(self.flight_dir)
        RECORDER.attach()
        try:
            return self._run(resume, on_unit_done)
        finally:
            RECORDER.detach()

    def _run(
        self,
        resume: bool,
        on_unit_done: Optional[Callable[[str, int], None]],
    ) -> CampaignOutcome:
        started = clock.monotonic()
        units = plan_units(
            self.modules, self.scale, self.tests, self.chunks_per_module,
            program=self.program,
        )
        metrics = CampaignMetrics(units_planned=len(units))
        self.telemetry.emit(
            "campaign_started",
            fingerprint=self.fingerprint,
            modules=list(self.modules),
            tests=list(self.tests),
            seed=self.seed,
            units=len(units),
            resume=resume,
        )

        store: Optional[CheckpointStore] = None
        completed: Dict[str, ModuleResult] = {}
        if self.checkpoint_dir:
            store = CheckpointStore(self.checkpoint_dir)
            checkpointed = store.begin(self._manifest(), resume)
            for unit in units:
                if unit.unit_id not in checkpointed:
                    continue
                record, result = checkpointed[unit.unit_id]
                if (
                    tuple(record.get("rows", ())) != unit.rows
                    or tuple(record.get("tests", ())) != unit.tests
                ):
                    continue  # plan changed under the checkpoint; re-run
                completed[unit.unit_id] = result
                metrics.units_resumed += 1
                self.telemetry.emit("unit_resumed", unit=unit.unit_id,
                                    module=unit.module)

        pending = [u for u in units if u.unit_id not in completed]
        state = _RunState(
            units=units, pending=pending, completed=completed,
            metrics=metrics, on_unit_done=on_unit_done, store=store,
        )
        with TRACER.span(
            "campaign", fingerprint=self.fingerprint, units=len(units),
            seed=self.seed, workers=self.max_workers,
        ) as campaign_span:
            # Pool workers re-parent their spans under this campaign
            # span (which itself parents under any ambient context the
            # API's admission span activated).
            self._trace_context = campaign_span.context()
            try:
                if pending and self.max_workers <= 1:
                    self._run_inline(state)
                elif pending and self.pool is not None:
                    self._drain_pool(state, self.pool)
                elif pending:
                    with WorkerPool(self.max_workers) as pool:
                        self._drain_pool(state, pool)
                study = self._merge(state)
            finally:
                self._trace_context = None
        metrics.wall_seconds = clock.monotonic() - started
        metrics.publish()
        self.telemetry.emit(
            "campaign_finished",
            completed=metrics.units_completed,
            resumed=metrics.units_resumed,
            failed=metrics.units_failed,
            retries=metrics.retries,
            quarantined=sorted(metrics.quarantined),
            wall_seconds=round(metrics.wall_seconds, 6),
        )
        self._progress(metrics.summary())
        attach_provenance(
            study, self.tests, self.modules, self.seed,
            metrics.wall_seconds, counters=state.spent.counter_values(),
            program=self.program,
        )
        return CampaignOutcome(study=study, metrics=metrics)

    # -- internals --------------------------------------------------------------

    def _manifest(self) -> Dict:
        from repro.core.serialization import _scale_to_dict

        # Informational only -- the trace id names which distributed
        # trace this campaign ran under; it does NOT participate in the
        # fingerprint (resume only compares fingerprints, so a resumed
        # campaign under a new trace still restores its units).
        ambient = obs_context.current()
        trace_id = ambient.trace_id if ambient else TRACER.trace_id
        return {
            "service_schema": SERVICE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "tests": list(self.tests),
            "modules": list(self.modules),
            "scale": _scale_to_dict(self.scale),
            "seed": self.seed,
            "chunks_per_module": self.chunks_per_module,
            "program": self.program,
            "trace_id": trace_id,
            "created": clock.wall(),
        }

    def _job(
        self, unit: WorkUnit, attempt: int, pool: bool = False,
    ) -> Tuple:
        spec: Optional[FaultSpec] = None
        if self.fault_plan is not None:
            spec = self.fault_plan.spec_for(unit.unit_id, attempt)
        obs_cfg: Dict = {"pool": pool}
        if pool:
            if self.flight_dir:
                obs_cfg["flight_dir"] = self.flight_dir
            if self._trace_context is not None:
                obs_cfg["trace"] = self._trace_context.to_dict()
        return (
            unit.module, unit.rows, unit.tests, self.scale, self.seed,
            self.program, spec, obs_cfg,
        )

    def _start_attempt(
        self, state: "_RunState", unit: WorkUnit, attempt: int
    ) -> None:
        self.telemetry.emit("unit_started", unit=unit.unit_id,
                            module=unit.module, attempt=attempt,
                            rows=len(unit.rows))

    def _finish_unit(
        self, state: "_RunState", unit: WorkUnit, result: ModuleResult,
        attempt: int, wall_seconds: float,
    ) -> None:
        state.completed[unit.unit_id] = result
        state.metrics.units_completed += 1
        if state.store is not None:
            with TRACER.span("service.checkpoint"):
                path = state.store.write_unit({
                    "unit_id": unit.unit_id,
                    "module": unit.module,
                    "chunk_index": unit.chunk_index,
                    "rows": list(unit.rows),
                    "tests": list(unit.tests),
                    "attempts": attempt + 1,
                    "wall_seconds": round(wall_seconds, 6),
                }, StudyResult(
                    scale=self.scale, seed=self.seed,
                    modules={unit.module: result},
                ))
            self.telemetry.emit("checkpoint_written", unit=unit.unit_id,
                                path=path)
        self.telemetry.emit(
            "unit_finished", unit=unit.unit_id, module=unit.module,
            attempt=attempt, wall_seconds=round(wall_seconds, 6),
            records=(len(result.rowhammer) + len(result.trcd)
                     + len(result.retention)),
        )
        done = state.metrics.units_completed + state.metrics.units_resumed
        self._progress(
            f"[{done}/{state.metrics.units_planned}] {unit.unit_id} "
            f"completed in {wall_seconds:.2f}s"
            + (f" (attempt {attempt + 1})" if attempt else "")
        )
        # Durability first, then the caller's completion hook: anything
        # it does (including killing the run) happens after persistence.
        if state.on_unit_done is not None:
            state.on_unit_done(unit.unit_id, done)

    def _handle_fault(
        self, state: "_RunState", unit: WorkUnit, attempt: int,
        error: BenchFaultError,
    ) -> bool:
        """Process one failed attempt; returns True when a retry should
        be scheduled, False when the module was quarantined."""
        kind = type(error).__name__
        state.metrics.record_fault(kind)
        self.telemetry.emit("unit_fault", unit=unit.unit_id,
                            module=unit.module, attempt=attempt,
                            kind=kind, error=str(error))
        next_attempt = attempt + 1
        if next_attempt < self.max_attempts:
            delay = self.backoff * (2 ** attempt) if self.backoff else 0.0
            state.metrics.retries += 1
            self.telemetry.emit("unit_retry", unit=unit.unit_id,
                                attempt=next_attempt,
                                backoff_seconds=round(delay, 6))
            self._progress(
                f"{unit.unit_id}: {kind} on attempt {attempt}; retrying "
                f"(backoff {delay:.2f}s)"
            )
            if delay:
                time.sleep(delay)
            return True
        reason = (
            f"unit {unit.unit_id} failed {self.max_attempts} attempts "
            f"(last: {kind}: {error})"
        )
        state.quarantine(unit.module, reason)
        state.metrics.units_failed += 1
        dump_path = RECORDER.dump("module_quarantined", extra={
            "module": unit.module, "unit": unit.unit_id,
            "reason": reason,
        })
        self.telemetry.emit("module_quarantined", module=unit.module,
                            unit=unit.unit_id, reason=reason,
                            flightrec=dump_path)
        self._progress(f"QUARANTINED {unit.module}: {reason}")
        return False

    def _skip_unit(self, state: "_RunState", unit: WorkUnit) -> None:
        if unit.unit_id in state.completed:
            return
        state.metrics.units_failed += 1
        self.telemetry.emit("unit_skipped", unit=unit.unit_id,
                            module=unit.module,
                            reason="module quarantined")

    def _run_inline(self, state: "_RunState") -> None:
        for unit in state.pending:
            if unit.module in state.metrics.quarantined:
                self._skip_unit(state, unit)
                continue
            attempt = 0
            while True:
                self._start_attempt(state, unit, attempt)
                try:
                    with TRACER.span("service.unit"):
                        # Inline attempt: its spans and increments
                        # already landed in this process's tracer and
                        # registry; the delta only counts as spend.
                        result, wall, delta, _ = _execute_unit(
                            self._job(unit, attempt)
                        )
                except BenchFaultError as error:
                    if self._handle_fault(state, unit, attempt, error):
                        attempt += 1
                        continue
                    break
                self._deliver_result(state, unit, attempt, result, wall,
                                     delta)
                break

    def _deliver_result(
        self,
        state: "_RunState",
        unit: WorkUnit,
        attempt: int,
        result: ModuleResult,
        wall_seconds: float,
        delta: Dict,
        fragment: Optional[Dict] = None,
    ) -> None:
        """Accept one successful attempt's outcome.

        The attempt's metric delta is counted as this campaign's spend
        (the provenance ``counters``); a pool attempt's delta is also
        merged into this process's registry, where an inline attempt's
        increments already landed. A unit re-queues only once its
        attempt failed, so each unit delivers exactly one outcome.
        """
        state.spent.merge_snapshot(delta)
        if self.max_workers > 1:
            REGISTRY.merge_snapshot(delta)
            RECORDER.record("metrics", {
                "unit": unit.unit_id, "delta": delta,
            })
        if fragment is not None:
            # Deposit the worker's trace fragment for stitching.
            obs_context.add_fragment(fragment)
        self._finish_unit(state, unit, result, attempt, wall_seconds)

    def _drain_pool(self, state: "_RunState", pool: WorkerPool) -> None:
        """Run the pending units on ``pool``, at most ``max_workers`` in
        flight. The pool keeps their deadlines and replaces its workers;
        a unit that died with them is handled by its cause."""
        queue = deque((unit, 0) for unit in state.pending)
        inflight: Dict[Future, Tuple[WorkUnit, int]] = {}
        try:
            while queue or inflight:
                starved = False
                while queue and len(inflight) < self.max_workers:
                    unit, attempt = queue[0]
                    if unit.module in state.metrics.quarantined:
                        queue.popleft()
                        self._skip_unit(state, unit)
                        continue
                    future = pool.submit(
                        _execute_unit, self._job(unit, attempt, pool=True),
                        block=not inflight, timeout=self.unit_timeout,
                    )
                    if future is None:
                        starved = True
                        break
                    queue.popleft()
                    inflight[future] = (unit, attempt)
                    self._start_attempt(state, unit, attempt)
                if not inflight:
                    break
                done = pool.wait(
                    inflight, timeout=POLL_SECONDS if starved else None,
                )
                reaped = []
                for future in done:
                    unit, attempt = inflight.pop(future)
                    if unit.module in state.metrics.quarantined:
                        # A sibling unit quarantined the module while
                        # this one was in flight; drop its outcome.
                        future.exception()  # consume, don't raise
                        self._skip_unit(state, unit)
                        continue
                    try:
                        result, wall, delta, fragment = future.result()
                    except BenchFaultError as error:
                        if self._handle_fault(state, unit, attempt, error):
                            queue.appendleft((unit, attempt + 1))
                        continue
                    except BrokenProcessPool:
                        cause = pool.cause(future)
                        if cause == "replaced":
                            self.telemetry.emit(
                                "unit_restarted", unit=unit.unit_id,
                                module=unit.module, attempt=attempt,
                                reason="pool replaced",
                            )
                            queue.appendleft((unit, attempt))
                            continue
                        if cause == "timeout":
                            reaped.append(unit.unit_id)
                            error = WorkerTimeoutError(
                                f"unit {unit.unit_id} attempt {attempt} "
                                f"exceeded unit_timeout={self.unit_timeout}"
                                "s; worker reaped"
                            )
                        else:
                            error = WorkerCrashError(
                                f"unit {unit.unit_id} attempt {attempt}: "
                                "a pool worker died mid-unit"
                            )
                        if self._handle_fault(state, unit, attempt, error):
                            queue.appendleft((unit, attempt + 1))
                        continue
                    self._deliver_result(
                        state, unit, attempt, result, wall, delta,
                        fragment,
                    )
                if reaped:
                    self._report_reap(reaped)
        finally:
            # A cancelled or failed campaign drops its own units only;
            # the pool reaps a running one once it is overdue.
            for future in inflight:
                future.cancel()

    def _report_reap(self, reaped: List[str]) -> None:
        # The coordinator's own last moments around the reap; the hung
        # worker already flushed its ring when the stall was injected
        # (it cannot after SIGTERM).
        dump_path = RECORDER.dump("pool_reaped", extra={
            "reaped": reaped, "timeout_seconds": self.unit_timeout,
        })
        self.telemetry.emit(
            "pool_reaped", reaped=reaped,
            timeout_seconds=self.unit_timeout, flightrec=dump_path,
        )
        self._progress(
            f"reaped {len(reaped)} hung worker attempt(s) "
            f"({', '.join(reaped)}); pool rebuilt"
        )

    def _merge(self, state: "_RunState") -> StudyResult:
        study = StudyResult(scale=self.scale, seed=self.seed)
        with TRACER.span("service.merge"):
            for module in self.modules:
                if module in state.metrics.quarantined:
                    continue
                parts = [
                    (unit.chunk_index, state.completed[unit.unit_id])
                    for unit in state.units
                    if unit.module == module
                    and unit.unit_id in state.completed
                ]
                if not parts:
                    continue
                parts.sort(key=lambda item: item[0])
                study.modules[module] = merge_module_chunks(
                    module, [part for _, part in parts], self.scale
                )
        return study


@dataclass
class _RunState:
    """Mutable bookkeeping of one ``run()`` invocation."""

    units: List[WorkUnit]
    pending: List[WorkUnit]
    completed: Dict[str, ModuleResult]
    metrics: CampaignMetrics
    on_unit_done: Optional[Callable[[str, int], None]]
    store: Optional[CheckpointStore]
    #: Merged metric deltas of the units this run delivered -- the
    #: study's provenance ``counters``.
    spent: MetricsRegistry = field(default_factory=MetricsRegistry)

    def quarantine(self, module: str, reason: str) -> None:
        """Mark a module as quarantined (idempotent)."""
        self.metrics.quarantined.setdefault(module, reason)
