"""The campaign worker pool: forked once, shared by every pooled campaign.

A process that serves jobs (the API server, ``python -m repro.api``)
owns one :class:`WorkerPool` for its whole life. It forks the first
workers with the ``fork`` start method before it starts any thread --
forking a multi-threaded process can deadlock the child, and Python
3.12 deprecates it -- and every pooled campaign it runs reuses them, so
a job pays for no pool start-up. A direct caller that passes no pool to
:class:`~repro.service.orchestrator.CampaignService` gets a pool of its
``max_workers`` for the one run.

Replacing the workers (:meth:`WorkerPool.replace`, after a hang or a
crash) still forks from whichever thread notices, while the serving
process's other threads run; only the first workers are forked
single-threaded.

``fork`` is pinned rather than inherited: ``forkserver`` (Python 3.14's
default on Linux) re-imports the parent's ``__main__`` in every worker,
which breaks any caller script without a ``__main__`` guard.

Sharing rules:

* :meth:`WorkerPool.submit` hands a unit a free worker (a semaphore
  the size of the pool) before it submits it, so a unit's
  ``unit_timeout`` deadline never counts time queued behind another
  campaign's units.
* The executor cannot kill one worker, so the hung-worker reaper
  replaces the whole pool, and each replacement is counted. Units of
  other campaigns that die with a replaced pool re-queue at the same
  attempt; units that die with a worker that crashed by itself are
  each charged a fault (see :meth:`WorkerPool.broken`).
* A cancelled or failed campaign abandons only its own futures
  (:meth:`WorkerPool.abandon`). An abandoned unit keeps its deadline:
  once it is overdue, the next :meth:`~WorkerPool.submit` replaces the
  pool, so a hung abandoned unit never holds its worker for good.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Set, Tuple

from repro.obs import clock
from repro.obs.metrics import REGISTRY

#: How often a submit blocked on a full pool checks for overdue
#: abandoned units.
_BLOCKED_POLL_SECONDS = 0.05


def _warm_worker() -> None:
    """Pool initializer: load, once per worker, what the unit path
    imports lazily (numpy's RNG package and the kernel engine), so no
    campaign pays for it and the serving process's start path does not
    either."""
    import numpy.random  # noqa: F401

    from repro.core.fused import FusedProbeEngine  # noqa: F401


def _noop() -> None:
    """The task whose submission forks every worker."""


class WorkerPool:
    """A long-lived ``fork`` process pool with one slot per worker.

    ``size`` defaults to ``os.cpu_count()``. Construction forks every
    worker at once (with the ``fork`` context, the executor's first
    submit launches them all before its manager thread starts), so
    build the pool before the process starts any thread. Use it as a
    context manager, or call :meth:`shutdown`.
    """

    def __init__(self, size: Optional[int] = None):
        self.size = max(1, size or os.cpu_count() or 1)
        #: Bumped by every replacement; a unit records the generation
        #: it was submitted to.
        self.generation = 0
        self._crashed: Set[int] = set()
        self._slots = threading.BoundedSemaphore(self.size)
        self._lock = threading.Lock()
        #: Abandoned futures still running: future -> (deadline,
        #: generation).
        self._abandoned: Dict[Future, Tuple[float, int]] = {}
        self._executor: Optional[ProcessPoolExecutor] = self._fork()

    def _fork(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            self.size, mp_context=multiprocessing.get_context("fork"),
            initializer=_warm_worker,
        )
        executor.submit(_noop)
        return executor

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def submit(
        self, fn: Callable, arg, block: bool,
    ) -> Optional[Tuple[Future, int]]:
        """Run ``fn(arg)`` on a free worker; returns the future and the
        pool generation it runs in, or None when no worker is free and
        ``block`` is false. The worker's slot frees when the future
        completes, fails or is cancelled."""
        if not self._take_slot(block):
            return None
        try:
            with self._lock:
                if self._executor is None:
                    raise RuntimeError("the worker pool is shut down")
                try:
                    future = self._executor.submit(fn, arg)
                except BrokenProcessPool:
                    # A worker died on its own since the last unit:
                    # renew the pool rather than fail every later
                    # campaign.
                    self._crashed.add(self.generation)
                    self._replace_locked()
                    future = self._executor.submit(fn, arg)
                generation = self.generation
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(self._release)
        return future, generation

    def _take_slot(self, block: bool) -> bool:
        while True:
            self._reap_abandoned()
            if not block:
                return self._slots.acquire(blocking=False)
            if self._slots.acquire(timeout=_BLOCKED_POLL_SECONDS):
                return True

    def _release(self, future: Future) -> None:
        with self._lock:
            self._abandoned.pop(future, None)
        self._slots.release()

    def abandon(
        self, future: Future, deadline: Optional[float], generation: int,
    ) -> None:
        """Give up on ``future`` (its campaign was cancelled or failed).
        A queued one is cancelled; a running one finishes in its worker,
        and past ``deadline`` (when given) the pool is replaced, so a
        hung unit never keeps its worker."""
        if future.cancel() or deadline is None:
            return
        with self._lock:
            # Still running under the lock means its done callback,
            # which drops the entry, has not run yet.
            if not future.done():
                self._abandoned[future] = (deadline, generation)

    def _reap_abandoned(self) -> None:
        now = clock.monotonic()
        with self._lock:
            if self._executor is not None and any(
                generation == self.generation and now >= deadline
                for deadline, generation in self._abandoned.values()
            ):
                self._replace_locked()

    def replace(self, generation: int) -> bool:
        """Kill the workers of ``generation`` and fork new ones; False
        (and nothing done) when that generation was already replaced.
        The dead workers' futures fail with ``BrokenProcessPool``."""
        with self._lock:
            if generation != self.generation or self._executor is None:
                return False
            self._replace_locked()
        return True

    def broken(self, generation: int) -> bool:
        """Account for a future of ``generation`` that failed with
        ``BrokenProcessPool``; True when a worker crashed (died by
        itself), False when :meth:`replace` or :meth:`shutdown` killed
        the workers. A generation still current when its first broken
        future is seen crashed, and is replaced here; every unit in
        flight on it sees the same answer."""
        with self._lock:
            if generation == self.generation and self._executor is not None:
                self._crashed.add(generation)
                self._replace_locked()
            return generation in self._crashed

    def _replace_locked(self) -> None:
        # Bump first: a campaign whose future breaks must already see
        # that the pool was replaced under it.
        self.generation += 1
        _terminate(self._executor)
        self._executor = self._fork()
        REGISTRY.counter(
            "repro_service_pool_replacements_total",
            "campaign worker pools killed and forked anew",
        ).inc()

    def shutdown(self) -> None:
        """Kill the workers, idle or busy (a busy one is never waited
        for), and join them. Idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _terminate(executor)


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down without waiting on its (possibly hung)
    workers: kill every worker process, abandon the executor, then join
    the processes briefly so none is left a zombie."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # already dead / never started
            pass
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass
