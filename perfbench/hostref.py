"""Host-speed reference kernel and the scaling it feeds.

The benchmark host runs in slow and fast phases, and CPU time tracks
wall time through them, so neither clock alone gives steady figures. A
fixed kernel timed beside the measured work tracks the phase: each raw
time is scaled to a nominal host speed as
``raw * ref_nominal / ref_measured``.

The kernel is short (~13 ms) and is timed in slices *interleaved* with
the work -- every :data:`SLICE_INTERVAL_S` from an interval timer while
a study runs, between cycles on the service -- as well as before and
after each rep; ``ref_measured`` for an operation is the median of the
slices near it (:func:`reference`). Sized on a
2-vCPU host over ~45 bench-scale A0 studies, a 0.15 s kernel timed only
before and after each study correlated 0.70 with study time, the
interleaved slices 0.95. Slice time is subtracted from every operation
it interrupted.

The kernel mixes interpreter work (a dict loop, small-object churn with
method calls, parsing a ~200 KB JSON document) with NumPy sort and
searchsorted on seeded arrays, roughly the blend the characterization
code and the study store run. Over 60 store hits of a bench-scale A0
study the JSON part cut the hit-time variation left after scaling from
9.4 % to 8.0 %. It imports nothing from ``repro``, so a change to the
program under test can never change the yardstick.

Latencies made of small file writes (a service job's state records)
follow the disk, not the CPU: on the 2-vCPU sizing host, a burst of
small-file replaces took 1.4 ms after an idle minute and 3-5 ms while
the previous run's writes and deletions were still being committed,
and store-hit latency followed it. For those metrics each slice also
times :class:`IoKernel` -- the same temp-file + replace pattern -- and
the reference is the slice's CPU time plus :data:`IO_WEIGHT` times its
I/O time (``io=True`` below).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Seed of the kernel's fixed inputs.
REF_SEED = 20220627

#: Interval between interleaved kernel slices.
SLICE_INTERVAL_S = 0.25

#: Small-file replaces per :class:`IoKernel` run.
IO_WRITES = 8

#: Weight of the I/O time in an ``io=True`` reference. Sized on the
#: 2-vCPU host: over ten consecutive service runs whose I/O slices
#: ranged 2.2-6.9 ms, the raw store-hit p50 latency had an IQR of 26 %
#: of its median, and the latency scaled by ``cpu + 3 * io`` one of 4.5 %.
IO_WEIGHT = 3.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: int):
        self.x = x
        self.y = y

    def weight(self) -> float:
        return self.x * 2.0 + self.y


class ReferenceKernel:
    """A fixed ~13 ms workload whose inputs are built once."""

    def __init__(self, seed: int = REF_SEED):
        rng = np.random.default_rng(seed)
        self._small = rng.random(1 << 16)
        self._needles = rng.random(1 << 14)
        self._large = rng.random(1 << 18)
        self._keys = [int(key) for key in rng.integers(0, 1 << 30, 4000)]
        self._values = [float(value) for value in rng.random(3000)]
        self._document = json.dumps({"rows": [
            {"row": row, "ber": float(ber),
             "hist": [int(count) for count in rng.integers(0, 9, 6)]}
            for row, ber in enumerate(rng.random(3000))
        ]})

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        started = time.perf_counter()
        table = {}
        for key in self._keys:
            table[key] = table.get(key, 0) + 1
        for key in self._keys:
            table[key] -= 1
        points = [_Point(x, y) for y, x in enumerate(self._values)]
        total = 0.0
        for point in points:
            total += point.weight()
        points.sort(key=lambda point: point.x)
        found = np.searchsorted(np.sort(self._small), self._needles)
        largest = np.sort(self._large)[-1]
        rows = json.loads(self._document)["rows"]
        elapsed = time.perf_counter() - started
        if (int(found[-1]) < 0 or largest > 1.0 or total < 0.0
                or len(rows) != 3000):
            raise RuntimeError("reference kernel produced no result")
        return elapsed


class IoKernel:
    """A fixed burst of small-file replaces (temp file, write, rename
    over a fixed name) in ``directory``."""

    def __init__(self, directory: str, writes: int = IO_WRITES):
        self.directory = directory
        self.writes = writes
        self._body = "{" + ", ".join(
            f'"field{index}": {index * 7919}' for index in range(48)
        ) + "}"
        os.makedirs(directory, exist_ok=True)

    def run(self) -> float:
        """Run the burst once; returns its wall time in seconds."""
        started = time.perf_counter()
        for index in range(self.writes):
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
            with os.fdopen(fd, "w") as handle:
                handle.write(self._body)
            os.replace(tmp, os.path.join(self.directory, f"{index}.json"))
        return time.perf_counter() - started


class HostSampler:
    """Times :class:`ReferenceKernel` slices beside the measured work.

    ``slices`` holds ``(start, cpu, io)`` per slice, in
    ``time.perf_counter`` seconds, until :meth:`take` drains it; ``io``
    is 0.0 without an ``io_kernel``.
    """

    def __init__(self, kernel: Optional[ReferenceKernel] = None,
                 interval: float = SLICE_INTERVAL_S,
                 io_kernel: Optional[IoKernel] = None):
        self.kernel = kernel or ReferenceKernel()
        self.io_kernel = io_kernel
        self.interval = interval
        self.slices: List[Tuple[float, float, float]] = []
        #: Optional ``name -> context manager`` hook that wraps each
        #: slice (the traced run records slices as ``host.ref`` spans).
        self.span = None
        self._busy = False

    def sample(self) -> None:
        """Time one slice now (unless a slice is already running: on a
        very slow host the timer can fire inside a slice)."""
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            with self.span("host.ref") if self.span else nullcontext():
                cpu = self.kernel.run()
                io = self.io_kernel.run() if self.io_kernel else 0.0
            self.slices.append((started, cpu, io))
        finally:
            self._busy = False

    @contextmanager
    def interleaved(self) -> Iterator[None]:
        """Time a slice every :attr:`interval` seconds while the block
        runs, from a ``SIGALRM`` interval timer (main thread only)."""
        previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample()
        )
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> List[Tuple[float, float, float]]:
        """The slices timed since the last call."""
        slices, self.slices = self.slices, []
        return slices


#: Slices within this many seconds of an operation make its local
#: reference (host phases shift within a rep, too).
LOCAL_WINDOW_S = 1.5


def reference(slices: Sequence[Tuple[float, float, float]],
              start: float = None, end: float = None,
              io: bool = False) -> float:
    """The reference time that applies to work timed beside these
    slices: the median of their CPU time (plus :data:`IO_WEIGHT` times
    their I/O time with ``io``) --
    with ``start``/``end``, over the slices within
    :data:`LOCAL_WINDOW_S` of that interval, when there are any."""
    costs = [(begun, cpu + IO_WEIGHT * io_s if io else cpu)
             for begun, cpu, io_s in slices]
    if start is not None:
        local = [
            cost for begun, cost in costs
            if start - LOCAL_WINDOW_S <= begun <= end + LOCAL_WINDOW_S
        ]
        if local:
            return statistics.median(local)
    return statistics.median(cost for _, cost in costs)


def net_duration(start: float, end: float,
                 slices: Sequence[Tuple[float, float, float]]) -> float:
    """``end - start`` less the slices that ran inside that interval."""
    spent = sum(
        cpu + io for begun, cpu, io in slices if start <= begun < end
    )
    return max(0.0, end - start - spent)


def scale(raw: float, ref_nominal: float, ref_measured: float) -> float:
    """Scale one raw time to the nominal host speed."""
    if ref_measured <= 0.0:
        raise ValueError(f"reference time must be positive: {ref_measured}")
    return raw * ref_nominal / ref_measured


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (``q`` a whole percent in (0, 1)) of a
    non-empty sample, interpolated between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
