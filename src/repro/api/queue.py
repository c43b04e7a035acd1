"""Multi-tenant priority job queue.

Scheduling contract (pinned by ``tests/api/test_queue.py``):

* higher ``priority`` first (0 is the default, :data:`~repro.api.jobs.
  MAX_PRIORITY` the ceiling);
* FIFO *within* a priority -- ties break on submission order, so two
  equal-priority tenants cannot starve each other by resubmitting;
* per-tenant admission quota -- a tenant may hold at most ``quota``
  non-terminal (queued + running) jobs; the next submit is rejected
  with :class:`~repro.errors.QuotaExceededError` (HTTP 429), keeping
  one noisy tenant from filling the queue;
* store hits skip the queue -- a job whose study is already published
  is answered at admission and submitted terminal (``completed``). It
  is registered the way :meth:`JobQueue.adopt` registers a recovered
  terminal job (queryable, listed, cancel is a 409) but never enters
  the heap and never wakes a worker, so a hit completes before every
  miss queued ahead of it, whatever their priorities. The server checks
  the tenant's quota before answering (a hit over quota is still a
  429); the answered hit then holds none of it;
* cancellation -- a queued job is marked cancelled immediately and
  lazily skipped when a worker would have popped it; a running job gets
  its ``cancel_requested`` flag set and the orchestrator aborts at the
  next unit boundary (work already checkpointed is kept for resume).

The queue is plain ``threading`` (a heap under a condition variable):
workers are threads, and the asyncio front end only touches it through
quick non-blocking calls.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, List, Optional, Set

from repro.api.jobs import CANCELLED, QUEUED, RUNNING, Job
from repro.errors import QuotaExceededError
from repro.obs import clock
from repro.obs.metrics import REGISTRY

#: Per-tenant cap on non-terminal jobs when none is configured.
DEFAULT_TENANT_QUOTA = 64


class JobQueue:
    """Thread-safe priority queue with tenant quotas and cancellation."""

    def __init__(self, tenant_quota: int = DEFAULT_TENANT_QUOTA):
        if tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1: {tenant_quota}")
        self.tenant_quota = tenant_quota
        self._condition = threading.Condition()
        self._heap: List = []  # (-priority, seq, job_id)
        self._seq = itertools.count()
        self._jobs: Dict[str, Job] = {}
        #: Per tenant, the ids of jobs not yet terminal -- what the
        #: quota and the gauges scan instead of every job ever admitted.
        #: Terminal transitions happen outside the lock (workers, cancel
        #: of a running job), so the sets are pruned when read, from
        #: each job's state at that moment.
        self._live: Dict[str, Set[str]] = {}
        self._closed = False

    # -- introspection ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The job by id, queued/running/terminal alike; None if unknown."""
        with self._condition:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        """Every known job (optionally one tenant's), newest first."""
        with self._condition:
            found = [
                job for job in self._jobs.values()
                if tenant is None or job.tenant == tenant
            ]
        return sorted(found, key=lambda job: job.created, reverse=True)

    def depth(self) -> int:
        """Jobs currently waiting (excludes cancelled-in-heap)."""
        with self._condition:
            return sum(
                1 for job in self._live_locked() if job.state == QUEUED
            )

    def active(self, tenant: str) -> int:
        """The tenant's non-terminal job count (the quota basis)."""
        with self._condition:
            return len(self._live_locked(tenant))

    def _live_locked(self, tenant: Optional[str] = None) -> List[Job]:
        """The non-terminal jobs (of one tenant, or of all), judged by
        their state now; ids of jobs that have since become terminal
        are dropped from the live sets on the way."""
        if tenant is None:
            sets = list(self._live.values())
        else:
            sets = [self._live.get(tenant, set())]
        found = []
        for live in sets:
            done = []
            for job_id in live:
                job = self._jobs[job_id]
                if job.terminal:
                    done.append(job_id)
                else:
                    found.append(job)
            live.difference_update(done)
        return found

    def tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant rollup for ``GET /v1/ops``: active (the quota
        basis), queued, running, total known, and the shared quota."""
        with self._condition:
            summary: Dict[str, Dict[str, int]] = {}
            for job in self._jobs.values():
                row = summary.setdefault(job.tenant, {
                    "active": 0, "queued": 0, "running": 0, "jobs": 0,
                    "quota": self.tenant_quota,
                })
                row["jobs"] += 1
                if not job.terminal:
                    row["active"] += 1
                if job.state == QUEUED:
                    row["queued"] += 1
                elif job.state == RUNNING:
                    row["running"] += 1
            return summary

    # -- producers --------------------------------------------------------------

    def check_quota(self, tenant: str) -> None:
        """Raise :class:`QuotaExceededError` (and count the rejection)
        when ``tenant`` already holds its quota of non-terminal jobs."""
        with self._condition:
            self._check_quota_locked(tenant)

    def _check_quota_locked(self, tenant: str) -> None:
        active = len(self._live_locked(tenant))
        if active >= self.tenant_quota:
            REGISTRY.counter(
                "repro_api_quota_rejections_total",
                "job submissions rejected by the tenant quota",
            ).inc()
            raise QuotaExceededError(
                f"tenant {tenant!r} has {active} active job(s); "
                f"quota is {self.tenant_quota}"
            )

    def submit(self, job: Job) -> Job:
        """Admit one job. A queued job is checked against its tenant's
        quota (:class:`QuotaExceededError` over it) in the same critical
        section that queues it; a terminal one -- a store hit answered
        at admission -- holds no quota and is only registered."""
        with self._condition:
            if self._closed:
                raise RuntimeError("queue is closed")
            if not job.terminal:
                self._check_quota_locked(job.tenant)
            self._register_locked(job)
        return job

    def adopt(self, job: Job) -> None:
        """Register a recovered job (restart path) without quota checks;
        non-terminal jobs are re-queued."""
        with self._condition:
            if not job.terminal:
                job.state = QUEUED
                job.cancel_requested = False
            self._register_locked(job)

    def _register_locked(self, job: Job) -> None:
        """Make ``job`` known; a non-terminal one is queued and wakes a
        worker, a terminal one stays out of the heap."""
        self._jobs[job.id] = job
        if job.terminal:
            return
        self._live.setdefault(job.tenant, set()).add(job.id)
        heapq.heappush(
            self._heap, (-job.spec.priority, next(self._seq), job.id)
        )
        self._gauge()
        self._condition.notify()

    # -- consumers --------------------------------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the next runnable job; ``None`` on timeout/close.

        The popped job is transitioned to ``running`` under the queue
        lock, so depth/active accounting never sees a gap.
        """
        with self._condition:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.state != QUEUED:
                        continue  # cancelled (or vanished) while queued
                    job.state = RUNNING
                    self._gauge()
                    REGISTRY.histogram(
                        "repro_api_queue_wait_seconds",
                        "seconds a job waited queued before a worker "
                        "popped it",
                        labels=("tenant",),
                    ).labels(tenant=job.tenant).observe(
                        max(0.0, clock.wall() - job.created)
                    )
                    return job
                if self._closed:
                    return None
                if not self._condition.wait(timeout=timeout):
                    return None

    # -- cancellation / shutdown ------------------------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job, or None if unknown.

        Queued jobs become ``cancelled`` immediately; running jobs get
        the flag and reach ``cancelled`` at their next unit boundary;
        terminal jobs are returned unchanged (the caller reports 409).
        """
        with self._condition:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                job.state = CANCELLED
                job.error = "cancelled while queued"
                self._gauge()
            elif job.state == RUNNING:
                job.cancel_requested = True
            return job

    def refresh(self) -> None:
        """Re-publish the depth/running gauges (workers call this after
        finishing a job; terminal transitions happen outside the lock)."""
        with self._condition:
            self._gauge()

    def close(self) -> None:
        """Wake every blocked consumer for shutdown."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def _gauge(self) -> None:
        live = self._live_locked()
        queued = sum(1 for job in live if job.state == QUEUED)
        REGISTRY.gauge(
            "repro_api_queue_depth", "jobs waiting in the API queue"
        ).set(queued)
        REGISTRY.gauge(
            "repro_api_jobs_running", "API jobs currently executing"
        ).set(len(live) - queued)
