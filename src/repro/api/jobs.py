"""API job model: specs, lifecycle, durable state, and the runner.

A *job* is one characterization campaign submitted over HTTP. Its spec
is either given explicitly (modules / tests / scale / seed / program) or
derived from a registered experiment's declared campaign
(``{"experiment": "fig3"}`` -- the same
:class:`~repro.harness.spec.StudyRequest` resolution the runner uses),
so the API can never drift from what the experiments actually fetch.

Lifecycle::

    queued -> running -> completed
                      -> failed      (quarantine, configuration, crash)
                      -> cancelled   (client request, at unit boundary)
    completed                        (store hit, answered at admission)

Every transition persists the job as one atomic JSON file under
``<state_dir>/jobs/``, so a restarted server recovers its queue:
terminal jobs stay queryable, interrupted ``running``/``queued`` jobs
are re-enqueued and -- because the orchestrator checkpoints completed
work units under a per-campaign-fingerprint directory -- resume instead
of recomputing.

The runner itself is deliberately thin glue over
:class:`~repro.service.orchestrator.CampaignService`: same planner,
same retries/quarantine, same bit-identical merge. A completed study is
published to the content-addressed :class:`~repro.harness.store.
StudyStore` under its request fingerprint; a job whose fingerprint is
already published short-circuits without running anything: at
admission (:func:`answer_hit`), or in the worker when an identical
miss published the study while the job was queued. Identical jobs
never run side by side: a worker that pops one while another worker
runs its campaign waits for that campaign, then answers from the
store.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.atomic import write_atomic
from repro.core.scale import scale_preset
from repro.core.study import TEST_TYPES
from repro.errors import ConfigurationError, JobCancelledError
from repro.harness.cache import BENCH_MODULES, study_fingerprint
from repro.harness.registry import get_spec
from repro.harness.store import StudyStore
from repro.harness.validation import (
    validate_experiments,
    validate_modules,
    validate_program,
    validate_subset,
    validate_tests,
)
from repro.obs import clock
from repro.obs import context as obs_context
from repro.obs.flightrec import recent_dumps
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.service.checkpoint import MANIFEST_NAME
from repro.service.orchestrator import CampaignService
from repro.service.pool import WorkerPool
from repro.service.telemetry import TelemetryLog

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (COMPLETED, FAILED, CANCELLED)

#: Priorities outside this band are clamped-by-rejection (400).
MAX_PRIORITY = 9


def _positive(payload: Dict, key: str, default=None):
    value = payload.get(key, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0:
        raise ConfigurationError(f"{key} must be a positive number: {value!r}")
    return value


@dataclass(frozen=True)
class JobSpec:
    """Validated campaign request of one job (JSON round-trippable)."""

    tests: tuple
    modules: tuple
    scale: str = "tiny"
    seed: int = 0
    chunks: Optional[int] = None
    workers: int = 0
    priority: int = 0
    max_attempts: int = 3
    unit_timeout: Optional[float] = None
    #: Registered DSL program name the campaign's probe schedules run
    #: through (:mod:`repro.progdsl`); None is the paper's schedule.
    program: Optional[str] = None
    #: Experiment id the spec was expanded from, for provenance only.
    experiment: Optional[str] = None

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        allowed_modules: Optional[Sequence[str]] = None,
        allowed_experiments: Optional[Sequence[str]] = None,
    ) -> "JobSpec":
        """Parse and validate one ``POST /v1/jobs`` body.

        Raises :class:`~repro.errors.ConfigurationError` (HTTP 400) on
        any unknown id, bad type, or allowlist violation.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("job payload must be a JSON object")
        experiment = payload.get("experiment")
        if experiment is not None:
            return cls._from_experiment(
                payload, experiment, allowed_modules, allowed_experiments
            )
        tests = validate_tests(payload.get("tests", list(TEST_TYPES)))
        modules = validate_modules(
            payload.get("modules", list(BENCH_MODULES))
        )
        validate_subset(modules, allowed_modules, "modules")
        return cls._finish(payload, tests, modules, experiment=None)

    @classmethod
    def _from_experiment(
        cls, payload, experiment, allowed_modules, allowed_experiments
    ) -> "JobSpec":
        validate_experiments([experiment])
        validate_subset([experiment], allowed_experiments, "experiments")
        spec = get_spec(experiment)
        if not spec.studies:
            raise ConfigurationError(
                f"experiment {experiment!r} declares no campaign; "
                "submit an explicit modules/tests job instead"
            )
        modules = payload.get("modules")
        if modules is not None:
            modules = validate_modules(modules)
        index = payload.get("study", 0)
        resolved = spec.resolved_studies(
            modules=modules, seed=int(payload.get("seed", 0))
        )
        if not isinstance(index, int) or not 0 <= index < len(resolved):
            raise ConfigurationError(
                f"study index {index!r} out of range; {experiment!r} "
                f"declares {len(resolved)} campaign(s)"
            )
        study = resolved[index]
        validate_subset(study.modules, allowed_modules, "modules")
        return cls._finish(
            payload, tuple(study.tests), tuple(study.modules),
            experiment=experiment,
        )

    @classmethod
    def _finish(cls, payload, tests, modules, experiment) -> "JobSpec":
        scale = payload.get("scale", "tiny")
        scale_preset(scale)  # raises on unknown names
        if "probe_engine" in payload:
            # Refused, not ignored: no client may think it ran the oracle.
            raise ConfigurationError(
                f"probe_engine is not a job field (got "
                f"{payload['probe_engine']!r}): both probe engines "
                "produce the same study, so a job does not choose one"
            )
        program = validate_program(payload.get("program"))
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool) \
                or not 0 <= priority <= MAX_PRIORITY:
            raise ConfigurationError(
                f"priority must be an integer in [0, {MAX_PRIORITY}]: "
                f"{priority!r}"
            )
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError(f"seed must be an integer: {seed!r}")
        workers = payload.get("workers", 0)
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 0:
            raise ConfigurationError(
                f"workers must be a non-negative integer: {workers!r}"
            )
        chunks = _positive(payload, "chunks")
        max_attempts = payload.get("max_attempts", 3)
        if not isinstance(max_attempts, int) or max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be an integer >= 1: {max_attempts!r}"
            )
        return cls(
            tests=tuple(tests),
            modules=tuple(modules),
            scale=scale,
            seed=seed,
            chunks=int(chunks) if chunks else None,
            workers=workers,
            priority=priority,
            max_attempts=max_attempts,
            unit_timeout=_positive(payload, "unit_timeout"),
            program=program,
            experiment=experiment,
        )

    def fingerprint(self) -> str:
        """The campaign's study-store fingerprint (content hash of the
        request -- the API's determinism contract hangs off this)."""
        return study_fingerprint(
            self.tests, self.modules, scale_preset(self.scale),
            self.seed, program=self.program,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tests": list(self.tests),
            "modules": list(self.modules),
            "scale": self.scale,
            "seed": self.seed,
            "chunks": self.chunks,
            "workers": self.workers,
            "priority": self.priority,
            "max_attempts": self.max_attempts,
            "unit_timeout": self.unit_timeout,
            "program": self.program,
            "experiment": self.experiment,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rehydrate a persisted spec (already validated at submit).
        Keys this version does not know -- such as the engine name
        older records carry -- are ignored."""
        return cls(
            tests=tuple(payload["tests"]),
            modules=tuple(payload["modules"]),
            scale=payload["scale"],
            seed=payload["seed"],
            chunks=payload.get("chunks"),
            workers=payload.get("workers", 0),
            priority=payload.get("priority", 0),
            max_attempts=payload.get("max_attempts", 3),
            unit_timeout=payload.get("unit_timeout"),
            program=payload.get("program"),
            experiment=payload.get("experiment"),
        )


@dataclass
class Job:
    """One submitted campaign and its current state."""

    id: str
    tenant: str
    spec: JobSpec
    state: str = QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    fingerprint: str = ""
    #: "hit" when the store already held the study, "miss" when the
    #: job actually ran the campaign, "resume" when checkpoints helped.
    cache: Optional[str] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Trace context minted at admission (``{"trace_id", "span_id"}``);
    #: the runner re-activates it so the whole campaign -- including
    #: pool-worker spans -- parents under the admission span.
    trace: Optional[Dict[str, Any]] = None
    #: Flight-recorder dump paths collected when the job failed.
    flightrec: List[str] = field(default_factory=list)
    #: Guards transitions; cancellation races job completion.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Set by ``cancel`` while running; checked at unit boundaries.
    cancel_requested: bool = field(default=False, compare=False)

    @classmethod
    def create(cls, spec: JobSpec, tenant: str) -> "Job":
        fingerprint = spec.fingerprint()
        return cls(
            id=f"job-{uuid.uuid4().hex[:12]}",
            tenant=tenant,
            spec=spec,
            created=clock.wall(),
            fingerprint=fingerprint,
        )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec.as_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "fingerprint": self.fingerprint,
            "cache": self.cache,
            "metrics": self.metrics,
            "trace": self.trace,
            "flightrec": list(self.flightrec),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        return cls(
            id=payload["id"],
            tenant=payload["tenant"],
            spec=JobSpec.from_dict(payload["spec"]),
            state=payload["state"],
            created=payload.get("created", 0.0),
            started=payload.get("started"),
            finished=payload.get("finished"),
            error=payload.get("error"),
            fingerprint=payload.get("fingerprint", ""),
            cache=payload.get("cache"),
            metrics=payload.get("metrics", {}),
            trace=payload.get("trace"),
            flightrec=list(payload.get("flightrec", ())),
        )


class JobStateDir:
    """Atomic per-job JSON persistence under ``<state_dir>/jobs/``."""

    def __init__(self, state_dir: str):
        self.directory = os.path.join(state_dir, "jobs")

    def path(self, job_id: str) -> str:
        return os.path.join(self.directory, f"{job_id}.json")

    def save(self, job: Job) -> None:
        """Write the job's record atomically (:func:`~repro.atomic.
        write_atomic`)."""
        write_atomic(
            self.path(job.id), json.dumps(job.as_dict(), sort_keys=True)
        )

    def load_all(self) -> List[Job]:
        """Every persisted job (corrupt files are skipped, not fatal)."""
        if not os.path.isdir(self.directory):
            return []
        jobs = []
        for entry in sorted(os.listdir(self.directory)):
            if not entry.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.directory, entry)) as handle:
                    jobs.append(Job.from_dict(json.load(handle)))
            except (OSError, ValueError, KeyError):
                continue
        return jobs


class JobTelemetry(TelemetryLog):
    """In-memory telemetry log that stamps every record with its job id.

    The stamp is what lets the server's event-bus subscriber route
    records from concurrent jobs into the right SSE stream.
    """

    def __init__(self, job_id: str):
        super().__init__(path=None)
        self.job_id = job_id

    def emit(self, event: str, **fields) -> Dict[str, Any]:
        fields.setdefault("job", self.job_id)
        return super().emit(event, **fields)


def run_job(
    job: Job,
    store: StudyStore,
    checkpoint_base: Optional[str] = None,
    flight_base: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> None:
    """Execute one job through the orchestrator, in the calling thread.

    Mutates ``job`` to its terminal state (the caller persists it). The
    produced study is published to ``store`` under the job's request
    fingerprint; a fingerprint already published short-circuits the
    whole campaign (the store is content-addressed -- running it again
    would produce identical bytes). A pooled job runs its units on
    ``pool`` when given (the server's shared pool).

    Observability: the trace context minted at admission (``job.trace``)
    is re-activated around an ``api.job`` span, so the orchestrator's
    campaign span -- and every pool worker's spans -- parent under the
    submitting request. ``flight_base`` (when given) gets a per-job
    flight-recorder directory whose dumps are listed in
    ``job.flightrec`` if the job ends in an error state. The per-tenant
    run-duration SLO histogram ``repro_api_job_seconds`` is observed at
    every terminal transition, labeled by tenant.
    """
    started = clock.monotonic()
    flight_dir = (
        os.path.join(flight_base, job.id) if flight_base else None
    )
    ctx = obs_context.TraceContext.from_dict(job.trace)
    try:
        with obs_context.activate(ctx):
            with TRACER.span("api.job", job=job.id, tenant=job.tenant,
                             fingerprint=job.fingerprint):
                _execute_job(job, store, checkpoint_base, flight_dir, pool)
    finally:
        _observe_job_seconds(job, clock.monotonic() - started)
        if flight_dir and job.error:
            job.flightrec = [
                dump["path"] for dump in recent_dumps(flight_dir)
            ]


def answer_hit(job: Job) -> None:
    """Complete a job at admission: its fingerprint is already
    published, so it is never queued and no worker runs it.

    Stamps ``started`` (the job starts as it is admitted) and observes
    the run-duration histogram, which the worker path does for a job it
    pops; the caller persists the record once.
    """
    started = clock.monotonic()
    job.started = clock.wall()
    _complete_hit(job, JobTelemetry(job.id))
    _observe_job_seconds(job, clock.monotonic() - started)


def _complete_hit(job: Job, telemetry: JobTelemetry) -> None:
    """Move a job whose study the store holds to COMPLETED (``cache``
    ``"hit"``) and report it: at admission, or in the worker when a
    duplicate queued behind an identical miss finds that miss's study."""
    job.cache = "hit"
    job.state = COMPLETED
    job.finished = clock.wall()
    telemetry.emit("job_finished", state=COMPLETED, cache="hit",
                   fingerprint=job.fingerprint)
    _count_outcome(COMPLETED)


def _observe_job_seconds(job: Job, seconds: float) -> None:
    REGISTRY.histogram(
        "repro_api_job_seconds",
        "job run duration (queue pop to terminal state) by tenant",
        labels=("tenant",),
    ).labels(tenant=job.tenant).observe(seconds)


def _fail(job: Job, telemetry: JobTelemetry, error: str) -> None:
    """Move a job to FAILED with ``error`` and report it."""
    job.state = FAILED
    job.error = error
    job.finished = clock.wall()
    telemetry.emit("job_finished", state=FAILED, error=error)
    _count_outcome(FAILED)


def _execute_job(
    job: Job,
    store: StudyStore,
    checkpoint_base: Optional[str],
    flight_dir: Optional[str],
    pool: Optional[WorkerPool],
) -> None:
    telemetry = JobTelemetry(job.id)
    # A job identical to one another worker is running waits for that
    # campaign here, then finds its study instead of computing it again.
    with store.computing(job.fingerprint):
        if store.contains(job.fingerprint):
            _complete_hit(job, telemetry)
            return
        _run_campaign(job, telemetry, store, checkpoint_base, flight_dir,
                      pool)


def _run_campaign(
    job: Job,
    telemetry: JobTelemetry,
    store: StudyStore,
    checkpoint_base: Optional[str],
    flight_dir: Optional[str],
    pool: Optional[WorkerPool],
) -> None:
    spec = job.spec
    service = CampaignService(
        modules=list(spec.modules),
        tests=spec.tests,
        scale=scale_preset(spec.scale),
        seed=spec.seed,
        chunks_per_module=spec.chunks,
        max_workers=spec.workers,
        max_attempts=spec.max_attempts,
        unit_timeout=spec.unit_timeout,
        checkpoint_base=checkpoint_base,
        telemetry=telemetry,
        program=spec.program,
        flight_dir=flight_dir,
        pool=pool,
    )
    resume = bool(service.checkpoint_dir) and os.path.isfile(
        os.path.join(service.checkpoint_dir, MANIFEST_NAME)
    )

    def _check_cancel(unit_id: str, done: int) -> None:
        if job.cancel_requested:
            raise JobCancelledError(
                f"job {job.id} cancelled after unit {unit_id} "
                f"({done} unit(s) checkpointed)"
            )

    try:
        outcome = service.run(resume=resume, on_unit_done=_check_cancel)
    except JobCancelledError as error:
        job.state = CANCELLED
        job.error = str(error)
        job.finished = clock.wall()
        telemetry.emit("job_finished", state=CANCELLED)
        _count_outcome(CANCELLED)
        return
    except ConfigurationError as error:
        _fail(job, telemetry, str(error))
        return
    job.metrics = outcome.metrics.as_dict()
    job.cache = "resume" if outcome.metrics.units_resumed else "miss"
    if outcome.metrics.quarantined:
        # An incomplete study must never be published under the
        # fingerprint: the store promises full, bit-identical content.
        _fail(job, telemetry, "quarantined modules: " + ", ".join(
            sorted(outcome.metrics.quarantined)
        ))
        return
    store.store(outcome.study, job.fingerprint)
    job.state = COMPLETED
    job.finished = clock.wall()
    telemetry.emit("job_finished", state=COMPLETED, cache=job.cache,
                   fingerprint=job.fingerprint)
    _count_outcome(COMPLETED)


def _count_outcome(state: str) -> None:
    REGISTRY.counter(
        f"repro_api_jobs_{state}_total",
        f"API jobs that reached the {state} state",
    ).inc()


__all__ = [
    "CANCELLED",
    "COMPLETED",
    "FAILED",
    "Job",
    "JobSpec",
    "JobStateDir",
    "JobTelemetry",
    "MAX_PRIORITY",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "answer_hit",
    "run_job",
]
