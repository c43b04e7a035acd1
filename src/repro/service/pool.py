"""The campaign worker pool: forked once, shared by every pooled campaign.

A process that serves jobs (the API server, ``python -m repro.api``)
owns one :class:`WorkerPool` for its whole life. It forks the first
workers with the ``fork`` start method before it starts any thread --
forking a multi-threaded process can deadlock the child, and Python
3.12 deprecates it -- and every pooled campaign it runs reuses them, so
a job pays for no pool start-up. A direct caller that passes no pool to
:class:`~repro.service.orchestrator.CampaignService` gets a pool of its
``max_workers`` for the one run.

Replacing the workers (after a hang or a crash) still forks from
whichever thread notices, while the serving process's other threads
run; only the first workers are forked single-threaded. ``fork`` is
pinned rather than inherited: ``forkserver`` (Python 3.14's default on
Linux) re-imports the parent's ``__main__`` in every worker, which
breaks any caller script without a ``__main__`` guard.

Sharing rules:

* :meth:`WorkerPool.submit` hands a unit a free worker (a semaphore
  the size of the pool) before it starts the unit's deadline, so
  ``unit_timeout`` never counts time queued behind other campaigns.
* The pool is the one reaper: the executor cannot kill one worker, so
  once any unit on the workers is overdue -- a live campaign's, or one
  a cancelled campaign (which just cancels its futures) left running --
  the next :meth:`~WorkerPool.submit` or :meth:`~WorkerPool.wait`
  replaces them all, and each replacement is counted.
* Every unit that dies with its workers fails with
  ``BrokenProcessPool``, and :meth:`WorkerPool.cause` says why:
  ``timeout`` (it was overdue), ``replaced`` (the workers were replaced
  for another unit, or shut down) or ``crash`` (a worker died by
  itself; no one can tell which unit killed it, so every unit in flight
  reads ``crash``, and the first to ask replaces the workers).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Collection, Dict, Optional, Set

from repro.obs import clock
from repro.obs.metrics import REGISTRY

#: How often a caller blocked on the pool (a submit waiting for a free
#: worker, a campaign whose free workers other campaigns hold) looks
#: again.
POLL_SECONDS = 0.05


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
        self._slots = threading.BoundedSemaphore(self.size)
        self._lock = threading.Lock()
        #: Units on the current workers -> deadline (or None). One that
        #: broke with the workers stays until they are replaced.
        self._units: Dict[Future, Optional[float]] = {}
        #: Why each unit of replaced workers died.
        self._causes: "weakref.WeakKeyDictionary[Future, str]" = (
            weakref.WeakKeyDictionary()
        )
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
        timeout: Optional[float] = None,
    ) -> Optional[Future]:
        """Run ``fn(arg)`` on a free worker, overdue ``timeout`` seconds
        after it got one; returns its future, or None when no worker is
        free and ``block`` is false. The worker's slot frees when the
        future completes, fails or is cancelled."""
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
                    self._replace_locked("crash")
                    future = self._executor.submit(fn, arg)
                self._units[future] = (
                    None if timeout is None else clock.monotonic() + timeout
                )
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(self._release)
        return future

    def wait(
        self, futures: Collection[Future], timeout: Optional[float] = None,
    ) -> Set[Future]:
        """Block until one of ``futures`` is done, or ``timeout`` seconds
        pass; returns the done ones. Meanwhile the pool replaces its
        workers once any unit on them is overdue."""
        give_up = None if timeout is None else clock.monotonic() + timeout
        while True:
            wake = [t for t in (self._reap(), give_up) if t is not None]
            left = max(0.0, min(wake) - clock.monotonic()) if wake else None
            done, _ = wait(futures, left, FIRST_COMPLETED)
            if done or give_up is not None and clock.monotonic() >= give_up:
                return done

    def cause(self, future: Future) -> str:
        """Why ``future``, failed with ``BrokenProcessPool``, died:
        ``"timeout"``, ``"replaced"`` or ``"crash"`` (see the module
        docstring). If its workers were not replaced under it, one
        crashed: this call replaces them, once for every unit on them."""
        with self._lock:
            if future in self._units and self._executor is not None:
                self._replace_locked("crash")
            return self._causes.get(future, "replaced")

    def _take_slot(self, block: bool) -> bool:
        while True:
            self._reap()
            if not block:
                return self._slots.acquire(blocking=False)
            if self._slots.acquire(timeout=POLL_SECONDS):
                return True

    def _release(self, future: Future) -> None:
        if future.cancelled() or not isinstance(
            future.exception(), BrokenProcessPool
        ):
            with self._lock:
                self._units.pop(future, None)
        self._slots.release()

    def _reap(self) -> Optional[float]:
        """Replace the workers once a unit on them is overdue; returns
        the earliest deadline still ahead (None without one)."""
        now = clock.monotonic()
        with self._lock:
            running = [(deadline, future)
                       for future, deadline in self._units.items()
                       if deadline is not None and not future.done()]
            overdue = {future for deadline, future in running
                       if now >= deadline}
            if overdue and self._executor is not None:
                self._replace_locked("replaced", overdue)
                return None
            return min((deadline for deadline, _ in running
                        if deadline > now), default=None)

    def _replace_locked(
        self, cause: str, overdue: Collection[Future] = (),
    ) -> None:
        for future in self._units:
            self._causes[future] = "timeout" if future in overdue else cause
        self._units.clear()
        _terminate(self._executor)
        self._executor = self._fork()
        REGISTRY.counter(
            "repro_service_pool_replacements_total",
            "campaign worker pools killed and forked anew",
        ).inc()
        if overdue:
            REGISTRY.counter(
                "repro_service_worker_timeouts_total",
                "pool workers reaped after exceeding unit_timeout",
            ).inc(len(overdue))

    def shutdown(self) -> None:
        """Kill the workers, idle or busy (a busy one is never waited
        for), and join them. Idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _terminate(executor)


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down without waiting on its (possibly hung)
    workers: kill every worker process, abandon the executor (without
    cancelling the units it has not started: those too must fail with
    ``BrokenProcessPool``), then join the processes briefly so none is
    left a zombie."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # already dead / never started
            pass
    executor.shutdown(wait=False)
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass
