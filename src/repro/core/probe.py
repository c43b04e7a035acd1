"""Probe engines: how Algorithms 1-3 touch the device.

The paper's measurement loops reduce to three probe shapes, repeated
tens of thousands of times per module:

* the double-sided RowHammer probe of Alg. 1 (initialize victim and
  aggressors, hammer, read back),
* the tRCD trial of Alg. 2 (initialize, activate with the trial
  latency, read back; see :mod:`repro.core.trcd` for its kernel/oracle
  split), and
* the write-wait-read retention probe of Alg. 3.

Four engine tiers implement them (see ``docs/PERFORMANCE.md``):

* :class:`CommandProbeEngine` runs each probe as a full SoftMC
  :class:`~repro.softmc.program.Program` through the host -- the
  validated reference path.
* :class:`FastProbeEngine` produces bit-identical results without
  building programs: it advances simulated time, restore sessions and
  activation counters through the exact command schedule, but evaluates
  the flips through the Bank's batched
  :class:`~repro.dram.bank.HammerSweep` / RetentionSweep kernels, which
  compute the per-cell effective thresholds once per operating point
  instead of once per probe.
* :class:`BatchProbeEngine` (the default) batches the *study schedule*
  on top of that: a whole bisection or retention ladder runs as one
  probe session (:meth:`ProbeEngine.hammer_session` /
  ``retention_session``) whose per-probe answers come from presorted
  threshold reductions (:meth:`~repro.dram.bank.HammerSweep.
  threshold_counts`) -- a few scalar multiplies and binary searches per
  probe -- with the full per-cell flip mask materialized once per
  session instead of once per probe. See :mod:`repro.core.batch`.
* :class:`~repro.core.fused.FusedProbeEngine` resolves all V_PP
  operating points of a schedule over *one* presorted layout: V_PP,
  temperature and data pattern only reparameterize monotone scalar
  factors on per-row sorted threshold vectors, so stepping the
  operating point costs a handful of scalar multiplies instead of a
  fresh materialize-and-sort. See :mod:`repro.core.fused`.

Bit-identity rests on three properties of the device model (verified by
the differential tests in ``tests/core/test_probe_equivalence.py``):

1. all randomness is drawn from stateless generators keyed by
   ``(bank, row, field)`` or ``(bank, row, session)``, so skipping the
   command path's incidental evaluations (aggressor persists, guard
   rebuilds, neighbor damage on rows whose data is rewritten before the
   next read) consumes no shared RNG state;
2. the only stochastic cross-probe coupling is the session-keyed
   measurement jitter, so replicating the command path's restore-session
   schedule (+3 per probe for the victim and each aggressor) replays the
   same draws;
3. flip thresholds are pure functions of cached per-row vectors and the
   operating point, and the fast path evaluates them through the very
   same Bank expressions (same operand order, same dtypes) at the same
   simulated-time offsets (same ``env.advance`` sequence).

Engine selection: ``TestContext`` defaults to the batch engine; set
``REPRO_PROBE_ENGINE=fast`` / ``=command`` (or pass
``probe_engine=...``) to force the per-probe kernel path or the
reference path. Banks with the TRR defense installed always use the
command path, which feeds TRR its per-activation stream.
"""

from __future__ import annotations

import os
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.metrics import bit_error_rate, flipped_word_counts
from repro.core.perf import PROFILER, ProbeCounters
from repro.core.scale import safe_timings
from repro.dram.patterns import DataPattern
from repro.dram.timing import TimingParameters
from repro.errors import AnalysisError, ConfigurationError
from repro.softmc.host import _COLUMN_LATENCY
from repro.softmc.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import TestContext

#: Environment variable overriding the default engine choice.
ENGINE_ENV_VAR = "REPRO_PROBE_ENGINE"

#: Environment variable overriding the sweep-LRU capacity.
SWEEP_CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

#: Environment variable overriding the sweep-LRU byte budget.
SWEEP_CACHE_BYTES_ENV_VAR = "REPRO_SWEEP_CACHE_BYTES"

#: Default cap on cached (row, pattern) sweeps. The V_PP ladder revisits
#: every sampled row once per level and per probe kind, so the cap must
#: cover a whole row set *times* the schedules touching it (rows x
#: patterns x hammer/retention) or each level rebuilds every sweep --
#: the classic LRU sequential-scan worst case; a bench-scale
#: characterization alone walks 96 rows x 4 WCDP patterns x 2 kinds =
#: 768 distinct sweeps. Since the byte budget below took over as the
#: memory bound, the entry cap is sized generously and only backstops
#: campaigns with pathologically many tiny sweeps.
_SWEEP_CACHE_SIZE = 1024

#: Default byte budget of the sweep LRU (per engine), measured over the
#: per-operating-point arrays the resident sweeps own
#: (:meth:`repro.dram.bank.ProbeSweep.cache_nbytes`). At 8 Kb rows the
#: entry cap binds first; at 65536-bit rows one sweep's arrays reach
#: ~1.5 MB, so 192 entries would quietly hold ~300 MB -- the byte bound
#: keeps such campaigns under a predictable ceiling. Occupancy is
#: exported as the ``repro_sweep_cache_bytes`` gauge.
_SWEEP_CACHE_BYTES = 256 * 1024 * 1024

#: Metric name of the sweep-LRU occupancy gauge (bytes owned by the
#: resident sweeps of the engine that most recently updated the cache).
SWEEP_CACHE_GAUGE = "repro_sweep_cache_bytes"


def sweep_cache_capacity(override: int = None) -> int:
    """Resolve the sweep-LRU capacity of the kernelized engines.

    ``override`` (the ``TestContext.sweep_cache`` knob) wins when given;
    otherwise the ``REPRO_SWEEP_CACHE`` environment variable applies,
    defaulting to :data:`_SWEEP_CACHE_SIZE`.
    """
    if override is None:
        raw = os.environ.get(SWEEP_CACHE_ENV_VAR)
        if not raw:
            return _SWEEP_CACHE_SIZE
        try:
            override = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{SWEEP_CACHE_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if override < 1:
        raise ConfigurationError(
            f"sweep cache capacity must be >= 1, got {override}"
        )
    return override


def sweep_cache_byte_capacity(override: int = None) -> int:
    """Resolve the sweep-LRU byte budget of the kernelized engines.

    ``override`` (the ``TestContext.sweep_cache_bytes`` knob) wins when
    given; otherwise the ``REPRO_SWEEP_CACHE_BYTES`` environment
    variable applies, defaulting to :data:`_SWEEP_CACHE_BYTES`. The
    budget bounds the bytes *owned* by resident sweeps (shared row-state
    caches are not charged); at least one sweep always stays resident,
    so a tiny budget degrades to per-schedule caching rather than
    failing.
    """
    if override is None:
        raw = os.environ.get(SWEEP_CACHE_BYTES_ENV_VAR)
        if not raw:
            return _SWEEP_CACHE_BYTES
        try:
            override = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{SWEEP_CACHE_BYTES_ENV_VAR} must be an integer, got "
                f"{raw!r}"
            ) from None
    if override < 1:
        raise ConfigurationError(
            f"sweep cache byte budget must be >= 1, got {override}"
        )
    return override


class HammerSession:
    """One row's Alg. 1 probe run (a worst-BER loop, a bisection).

    Sessions let an engine amortize work across the probes of one
    ``(row, pattern)`` schedule at a fixed operating point; the generic
    implementation simply forwards to the per-probe engine methods.
    Close the session (or use it as a context manager) before anything
    else touches the device: engines may defer materializing the row's
    data until then.
    """

    def __init__(
        self, engine: "ProbeEngine", ctx: "TestContext", row: int,
        pattern: DataPattern,
    ):
        self._engine = engine
        self._ctx = ctx
        self._row = row
        self._pattern = pattern

    def __enter__(self) -> "HammerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush any deferred device-state updates."""

    def ber(self, hammer_count: int) -> float:
        """One double-sided probe; the victim's BER."""
        return self._engine.hammer_ber(
            self._ctx, self._row, self._pattern, hammer_count
        )

    def ber_ladder(self, hammer_count: int, iterations: int) -> List[float]:
        """``iterations`` consecutive BER probes at one hammer count
        (Alg. 1's worst-BER repetitions). The generic implementation
        probes one at a time; schedule-level engines override it with a
        fused bookkeeping pass that returns bit-identical values."""
        return [self.ber(hammer_count) for _ in range(iterations)]

    def any_flip(self, hammer_count: int) -> bool:
        """One double-sided probe; did anything flip? (bisection use)."""
        return self.ber(hammer_count) > 0


class RetentionSession:
    """One row's Alg. 3 probe run (the refresh-window ladder)."""

    def __init__(
        self, engine: "ProbeEngine", ctx: "TestContext", row: int,
        pattern: DataPattern,
    ):
        self._engine = engine
        self._ctx = ctx
        self._row = row
        self._pattern = pattern

    def __enter__(self) -> "RetentionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush any deferred device-state updates."""

    def _probe(self, trefw: float) -> Tuple[float, Dict[int, int]]:
        return self._engine.retention_probe(
            self._ctx, self._row, self._pattern, trefw
        )

    def ber(self, trefw: float) -> float:
        """One write-wait-read probe; BER only (WCDP ranking)."""
        return self._engine.retention_ber(
            self._ctx, self._row, self._pattern, trefw
        )

    def worst_probe(
        self, trefw: float, iterations: int
    ) -> Tuple[float, Dict[int, int]]:
        """Worst (largest-BER) probe over ``iterations`` repetitions of
        one window; ties keep the earliest iteration."""
        worst_ber = -1.0
        worst_histogram: Dict[int, int] = {}
        for _ in range(iterations):
            ber, histogram = self._probe(trefw)
            if ber > worst_ber:
                worst_ber = ber
                worst_histogram = histogram
        return worst_ber, worst_histogram

    def worst_ladder(
        self, windows: Sequence[float], iterations: int
    ) -> List[Tuple[float, Dict[int, int]]]:
        """Alg. 3's whole window ladder: the worst probe of every
        refresh window, in ladder order. The generic implementation
        walks the windows one :meth:`worst_probe` at a time;
        schedule-level engines override it with one fused bookkeeping
        pass that returns bit-identical values."""
        return [
            self.worst_probe(trefw, iterations) for trefw in windows
        ]


class TrcdSession:
    """One row's Alg. 2 sweep: the trial latencies of
    :func:`repro.core.trcd.find_trcd_min` against one (row, pattern) at
    a fixed operating point.

    The generic implementation runs every probe as a program through
    :meth:`ProbeEngine.trcd_probe`; the kernel engines override it with
    :class:`~repro.core.batch.KernelTrcdSession`. Close the session (or
    use it as a context manager) before anything else touches the
    device.
    """

    def __init__(
        self, engine: "ProbeEngine", ctx: "TestContext", row: int,
        pattern: DataPattern, per_column: bool = False,
    ):
        self._engine = engine
        self._ctx = ctx
        self._row = row
        self._pattern = pattern
        self._per_column = per_column

    def __enter__(self) -> "TrcdSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush any deferred device-state updates."""

    def faulty(self, trcd: float, iterations: int) -> bool:
        """Alg. 2's trial: is ``trcd`` faulty, i.e. does *any* of
        ``iterations`` WRITE/READ probes show *any* flipped bit? Stops
        at the first faulty probe."""
        return any(
            self._engine.trcd_probe(
                self._ctx, self._row, self._pattern, trcd, self._per_column
            )
            for _ in range(iterations)
        )


def _program_damage(sweep, decoy_count, counts):
    """Victim damage one DSL-program probe deposits, replayed in the
    command path's exact deposit order: the initialization base (one
    activation per non-victim row, decoys first) from
    :meth:`~repro.dram.bank.HammerSweep.damage_terms`, then round-major
    aggressor-minor hammer deposits -- per-round sums, not a single
    total-count multiply, because float addition does not distribute
    over the burst split."""
    _, damage_bulk, damage_outlier, terms = sweep.damage_terms()
    hammered = terms[decoy_count:]
    for count in counts:
        for weight, scale_bulk, scale_outlier in hammered:
            damage_bulk += count * weight / scale_bulk
            damage_outlier += count * weight / scale_outlier
    return damage_bulk, damage_outlier


class ProbeEngine:
    """Interface of the Alg. 1 / Alg. 3 probe primitives."""

    name = "abstract"

    def __init__(self) -> None:
        self.counters = ProbeCounters()

    def hammer_ber(
        self, ctx: "TestContext", row: int, pattern: DataPattern,
        hammer_count: int,
    ) -> float:
        """One double-sided probe; returns the victim's BER."""
        raise NotImplementedError

    def retention_probe(
        self, ctx: "TestContext", row: int, pattern: DataPattern, trefw: float,
    ) -> Tuple[float, Dict[int, int]]:
        """One write-wait-read probe; returns (BER, word-flip histogram)."""
        raise NotImplementedError

    def retention_ber(
        self, ctx: "TestContext", row: int, pattern: DataPattern, trefw: float,
    ) -> float:
        """One write-wait-read probe; BER only (WCDP ranking)."""
        raise NotImplementedError

    def hammer_session(
        self, ctx: "TestContext", row: int, pattern: DataPattern
    ) -> HammerSession:
        """Open a probe session for one row's Alg. 1 schedule."""
        return HammerSession(self, ctx, row, pattern)

    def retention_session(
        self, ctx: "TestContext", row: int, pattern: DataPattern
    ) -> RetentionSession:
        """Open a probe session for one row's Alg. 3 schedule."""
        return RetentionSession(self, ctx, row, pattern)

    def trcd_session(
        self, ctx: "TestContext", row: int, pattern: DataPattern,
        per_column: bool = False,
    ) -> TrcdSession:
        """Open a probe session for one row's Alg. 2 sweep."""
        return TrcdSession(self, ctx, row, pattern, per_column)

    def trcd_probe(
        self, ctx: "TestContext", row: int, pattern: DataPattern,
        trcd: float, per_column: bool = False,
    ) -> bool:
        """One Alg. 2 probe as a SoftMC program; True if any bit flips."""
        raise NotImplementedError

    def program_hammer_session(
        self, ctx: "TestContext", row: int, pattern: DataPattern, program
    ) -> HammerSession:
        """Open a probe session for a compiled DSL program's hammer
        schedule (``program`` is a
        :class:`repro.progdsl.compile.CompiledProgram`).  Engines
        without a kernelized program path execute the program's emitted
        instruction stream probe by probe -- exact by construction."""
        return _ProgramStreamHammerSession(self, ctx, row, pattern, program)


class CommandProbeEngine(ProbeEngine):
    """Reference engine: every probe is a SoftMC program execution."""

    name = "command"

    def __init__(self, ctx: "TestContext" = None):
        super().__init__()

    def hammer_ber(self, ctx, row, pattern, hammer_count):
        aggressors = ctx.adjacency.neighbors(ctx.bank, row)
        if not aggressors:
            raise AnalysisError(f"row {row} has no physical neighbors")
        program = Program(safe_timings())
        program.initialize_row(ctx.bank, row, pattern, ctx.row_bits)
        for aggressor in aggressors:
            program.initialize_row(
                ctx.bank, aggressor, pattern, ctx.row_bits, inverse=True
            )
        program.hammer_doublesided(ctx.bank, aggressors, hammer_count)
        read_index = program.read_row(ctx.bank, row)
        result = ctx.infra.host.execute(program)
        self.counters.hammer_probes += 1
        self.counters.commands_issued += result.commands_issued
        PROFILER.count("hammer_probes")
        return bit_error_rate(
            pattern.row_bits(ctx.row_bits), result.data(read_index)
        )

    def _retention_read(self, ctx, row, pattern, trefw):
        program = Program(safe_timings())
        program.initialize_row(ctx.bank, row, pattern, ctx.row_bits)
        program.wait(trefw)
        read_index = program.read_row(ctx.bank, row)
        result = ctx.infra.host.execute(program)
        self.counters.retention_probes += 1
        self.counters.commands_issued += result.commands_issued
        PROFILER.count("retention_probes")
        return result.data(read_index)

    def retention_probe(self, ctx, row, pattern, trefw):
        expected = pattern.row_bits(ctx.row_bits)
        read = self._retention_read(ctx, row, pattern, trefw)
        ber = bit_error_rate(expected, read)
        counts = flipped_word_counts(expected, read)
        histogram = Counter(int(c) for c in counts if c > 0)
        return ber, dict(histogram)

    def retention_ber(self, ctx, row, pattern, trefw):
        expected = pattern.row_bits(ctx.row_bits)
        read = self._retention_read(ctx, row, pattern, trefw)
        return bit_error_rate(expected, read)

    def trcd_probe(self, ctx, row, pattern, trcd, per_column=False):
        """Initialize with the pattern, access with the trial tRCD,
        check for flips -- the oracle the kernel sessions replay.

        Alg. 2's probes stay out of ``commands_issued`` (they never
        counted towards it)."""
        timings = TimingParameters.nominal().with_trcd(trcd)
        expected = pattern.row_bits(ctx.row_bits)
        self.counters.trcd_probes += 1
        if per_column:
            columns = ctx.infra.module.geometry.columns
            for column in range(columns):
                program = Program(timings)
                program.initialize_row(ctx.bank, row, pattern, ctx.row_bits)
                read_index = program.read_column_of_row(ctx.bank, row, column)
                result = ctx.infra.host.execute(program)
                lo = column * 64
                if np.any(result.data(read_index) != expected[lo : lo + 64]):
                    return True
            return False
        program = Program(timings)
        program.initialize_row(ctx.bank, row, pattern, ctx.row_bits)
        read_index = program.read_row(ctx.bank, row)
        result = ctx.infra.host.execute(program)
        return bool(np.any(result.data(read_index) != expected))


class _SweepHammerSession(HammerSession):
    """Fast-engine session: one sweep-LRU lookup for the whole schedule."""

    def __init__(self, engine, ctx, row, pattern):
        super().__init__(engine, ctx, row, pattern)
        self._sweep = engine._sweep(ctx, "hammer", row, pattern)
        self._probed = False

    def ber(self, hammer_count):
        if self._probed:
            self._engine.counters.sweep_saved_lookups += 1
        self._probed = True
        return self._engine._hammer_probe(self._ctx, self._sweep, hammer_count)


class _SweepRetentionSession(RetentionSession):
    """Fast-engine session: one sweep-LRU lookup for the whole ladder."""

    def __init__(self, engine, ctx, row, pattern):
        super().__init__(engine, ctx, row, pattern)
        self._sweep = engine._sweep(ctx, "retention", row, pattern)
        self._probed = False

    def _note_probe(self):
        if self._probed:
            self._engine.counters.sweep_saved_lookups += 1
        self._probed = True

    def _probe(self, trefw):
        self._note_probe()
        return self._engine._retention_probe(self._ctx, self._sweep, trefw)

    def ber(self, trefw):
        self._note_probe()
        mismatches = self._engine._retention_mismatches(
            self._ctx, self._sweep, trefw
        )
        return float(np.count_nonzero(mismatches) / mismatches.size)


class _ProgramStreamHammerSession(HammerSession):
    """Fallback program session: every probe executes the program's
    emitted instruction stream through the host.

    This is the exact backend: refresh-interleaved programs (REF steps
    the refresh cursor and feeds TRR samplers -- data-dependent) and
    every program on the command engine run here.  Rows are resolved
    once per session; the burst schedule is re-unrolled per probe from
    the hammer count.
    """

    def __init__(self, engine, ctx, row, pattern, program):
        super().__init__(engine, ctx, row, pattern)
        self._program = program
        self._resolved = program.resolve_for(ctx, row)
        self._expected = pattern.row_bits(ctx.row_bits)

    def ber(self, hammer_count):
        ctx = self._ctx
        program, read_index = self._program.emit_probe(
            ctx.bank, self._resolved, self._pattern, ctx.row_bits,
            hammer_count,
        )
        result = ctx.infra.host.execute(program)
        counters = self._engine.counters
        counters.hammer_probes += 1
        counters.commands_issued += result.commands_issued
        PROFILER.count("hammer_probes")
        return bit_error_rate(self._expected, result.data(read_index))


class _ProgramSweepHammerSession(HammerSession):
    """Fast-engine program session: per-probe replay of the emitted
    command stream against the row's hammer sweep (decoys and
    aggressors share one sweep; only the aggressor terms hammer)."""

    def __init__(self, engine, ctx, row, pattern, program):
        super().__init__(engine, ctx, row, pattern)
        self._program = program
        self._resolved = program.resolve_for(ctx, row)
        self._decoys = len(self._resolved.decoy_rows)
        self._sweep = engine._program_sweep(ctx, program, row, pattern)
        self._probed = False

    def ber(self, hammer_count):
        if self._probed:
            self._engine.counters.sweep_saved_lookups += 1
        self._probed = True
        return self._engine._program_hammer_probe(
            self._ctx, self._sweep, self._decoys,
            self._program.round_counts(hammer_count),
        )


class FastProbeEngine(ProbeEngine):
    """Kernelized engine: same schedule, batched flip evaluation."""

    name = "fast"

    def __init__(self, ctx: "TestContext"):
        super().__init__()
        infra = ctx.infra
        self._module = infra.module
        self._env = self._module.env
        quantize = infra.fpga.quantize
        timings = safe_timings()
        self._trcd_q = quantize(timings.trcd)
        self._trp_q = quantize(timings.trp)
        self._trc_q = quantize(timings.trc)
        # The host advances columns * quantize(tCL) per full-row access.
        self._row_io = self._module.geometry.columns * quantize(
            _COLUMN_LATENCY
        )
        self._columns = self._module.geometry.columns
        self._sweeps: "OrderedDict" = OrderedDict()
        self._sweep_capacity = sweep_cache_capacity(
            getattr(ctx, "sweep_cache", None)
        )
        self._sweep_byte_capacity = sweep_cache_byte_capacity(
            getattr(ctx, "sweep_cache_bytes", None)
        )
        self._sweep_gauge = None
        self._sweep_budget_tick = 0

    def _cached_sweep(self, key):
        sweep = self._sweeps.get(key)
        if sweep is not None:
            self._sweeps.move_to_end(key)
            self.counters.sweep_hits += 1
        return sweep

    def _admit_sweep(self, key, sweep):
        self.counters.sweep_misses += 1
        self._sweeps[key] = sweep
        if len(self._sweeps) > self._sweep_capacity:
            self._sweeps.popitem(last=False)
            self.counters.sweep_evictions += 1
        # Walking every resident is O(capacity): amortize it over the
        # miss stream for big caches, but stay exact while the cache is
        # small (where tests -- and tiny byte budgets -- live).
        self._sweep_budget_tick += 1
        if len(self._sweeps) <= 16 or self._sweep_budget_tick >= 16:
            self._sweep_budget_tick = 0
            self._enforce_byte_budget()
        return sweep

    def _sweep(self, ctx, kind, row, pattern):
        key = (kind, ctx.bank, row, pattern.fill_byte)
        sweep = self._cached_sweep(key)
        if sweep is not None:
            return sweep
        bank = self._module.bank(ctx.bank)
        if kind == "hammer":
            aggressors = ctx.adjacency.neighbors(ctx.bank, row)
            if not aggressors:
                raise AnalysisError(f"row {row} has no physical neighbors")
            sweep = bank.hammer_sweep(row, aggressors, pattern)
        else:
            sweep = bank.retention_sweep(row, pattern)
        return self._admit_sweep(key, sweep)

    def _program_sweep(self, ctx, program, row, pattern):
        """A DSL program's hammer sweep over its full row list (decoys
        first, matching the emitted initialization order).  Cached in
        the same LRU as the double-sided sweeps, keyed by the program's
        structural identity so two names for one schedule share an
        entry."""
        key = (
            "program", program.spec.schedule_key(), ctx.bank, row,
            pattern.fill_byte,
        )
        sweep = self._cached_sweep(key)
        if sweep is not None:
            return sweep
        bank = self._module.bank(ctx.bank)
        resolved = program.resolve_for(ctx, row)
        sweep = bank.hammer_sweep(row, list(resolved.rows), pattern)
        return self._admit_sweep(key, sweep)

    def _enforce_byte_budget(self) -> None:
        """Evict oldest sweeps while the residents' owned bytes exceed
        the byte budget (at least one sweep always survives), then
        publish the occupancy gauge. Runs on the miss path only: byte
        ownership grows when a sweep first touches an operating point,
        so the measured total lags a probe or two, but misses are when
        occupancy can jump and the budget is a bound on retained -- not
        instantaneous -- memory."""
        total = sum(
            sweep.cache_nbytes() for sweep in self._sweeps.values()
        )
        while total > self._sweep_byte_capacity and len(self._sweeps) > 1:
            _, evicted = self._sweeps.popitem(last=False)
            total -= evicted.cache_nbytes()
            self.counters.sweep_evictions += 1
        gauge = self._sweep_gauge
        if gauge is None:
            from repro.obs.metrics import REGISTRY  # local: keep obs optional

            gauge = self._sweep_gauge = REGISTRY.gauge(
                SWEEP_CACHE_GAUGE,
                "Bytes owned by the probe-engine sweep LRU's residents",
            )
        gauge.set(total)

    def hammer_session(self, ctx, row, pattern):
        return _SweepHammerSession(self, ctx, row, pattern)

    def retention_session(self, ctx, row, pattern):
        return _SweepRetentionSession(self, ctx, row, pattern)

    def trcd_session(self, ctx, row, pattern, per_column=False):
        from repro.core.batch import KernelTrcdSession  # local: cycle

        return KernelTrcdSession(self, ctx, row, pattern, per_column)

    #: The kernel sessions' fallback: the oracle's program path.
    trcd_probe = CommandProbeEngine.trcd_probe

    def hammer_ber(self, ctx, row, pattern, hammer_count):
        return self._hammer_probe(
            ctx, self._sweep(ctx, "hammer", row, pattern), hammer_count
        )

    def _hammer_probe(self, ctx, sweep, hammer_count):
        # The command path checks communication before every instruction;
        # one up-front check is equivalent because V_PP cannot change
        # mid-probe.
        self._module.check_communication()
        bank = self._module.bank(ctx.bank)
        env = self._env
        state = sweep.state

        # WRITE_ROW victim: ACT restores, full-row WR, PRE restores.
        state.session += 2
        bank.total_activations += 1
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        restore_time = env.now
        env.advance(self._trp_q)

        # WRITE_ROW per aggressor (each deposits one activation's damage
        # on the victim, accounted for in sweep.victim_damage).
        for aggressor_state in sweep.aggressor_states:
            aggressor_state.session += 2
            bank.total_activations += 1
            env.advance(self._trcd_q)
            env.advance(self._row_io)
            env.advance(self._trp_q)

        # HAMMER: one restore per aggressor, damage applied analytically.
        for aggressor_state in sweep.aggressor_states:
            aggressor_state.session += 1
            bank.total_activations += hammer_count
        cycles = hammer_count * len(sweep.aggressor_states)
        env.advance(cycles * self._trc_q)

        # READ_ROW: evaluate the pending flips exactly as the persist
        # path would at the read's ACT, then restore.
        elapsed = env.now - restore_time
        damage_bulk, damage_outlier = sweep.victim_damage(hammer_count)
        flips = sweep.flip_mask(
            damage_bulk, damage_outlier, state.session, elapsed
        )
        data = sweep.bits.copy()
        if flips.any():
            data[flips] = sweep.discharged_value
        state.data = data
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = env.now
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1
        bank.total_activations += 1
        corrupt = bank.sensing_corruption(sweep.row, self._trcd_q)
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        env.advance(self._trp_q)

        mismatches = flips if corrupt is None else (flips | corrupt)
        self.counters.hammer_probes += 1
        self.counters.commands_issued += (
            3 * (2 + self._columns) + 2 * cycles + (2 + self._columns)
        )
        PROFILER.count("hammer_probes")
        return float(np.count_nonzero(mismatches) / mismatches.size)

    def _program_hammer_probe(self, ctx, sweep, decoy_count, counts):
        """One DSL-program probe: the generalization of
        :meth:`_hammer_probe` to n-sided patterns, decoy rows and
        multi-burst schedules.  ``sweep`` covers every non-victim row
        (decoys first); ``counts`` is the per-burst hammer schedule.
        The command stream is replayed bookkeeping-for-bookkeeping:
        decoys are initialized but never hammered, and each burst's
        simulated-time advance and damage deposits stay separate adds
        (the command path runs one HAMMER instruction per burst)."""
        self._module.check_communication()
        bank = self._module.bank(ctx.bank)
        env = self._env
        state = sweep.state

        # WRITE_ROW victim.
        state.session += 2
        bank.total_activations += 1
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        restore_time = env.now
        env.advance(self._trp_q)

        # WRITE_ROW per non-victim row (decoys, then aggressors).
        for row_state in sweep.aggressor_states:
            row_state.session += 2
            bank.total_activations += 1
            env.advance(self._trcd_q)
            env.advance(self._row_io)
            env.advance(self._trp_q)

        # HAMMER bursts: aggressor rows only, one restore per row per
        # burst.
        hammered = sweep.aggressor_states[decoy_count:]
        total_cycles = 0
        for count in counts:
            for row_state in hammered:
                row_state.session += 1
                bank.total_activations += count
            cycles = count * len(hammered)
            total_cycles += cycles
            env.advance(cycles * self._trc_q)

        # READ_ROW: evaluate pending flips at the read's ACT, restore.
        elapsed = env.now - restore_time
        damage_bulk, damage_outlier = _program_damage(
            sweep, decoy_count, counts
        )
        flips = sweep.flip_mask(
            damage_bulk, damage_outlier, state.session, elapsed
        )
        data = sweep.bits.copy()
        if flips.any():
            data[flips] = sweep.discharged_value
        state.data = data
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = env.now
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1
        bank.total_activations += 1
        corrupt = bank.sensing_corruption(sweep.row, self._trcd_q)
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        env.advance(self._trp_q)

        mismatches = flips if corrupt is None else (flips | corrupt)
        self.counters.hammer_probes += 1
        self.counters.commands_issued += (
            (2 + len(sweep.aggressor_states)) * (2 + self._columns)
            + 2 * total_cycles
        )
        PROFILER.count("hammer_probes")
        return float(np.count_nonzero(mismatches) / mismatches.size)

    def program_hammer_session(self, ctx, row, pattern, program):
        return _ProgramSweepHammerSession(self, ctx, row, pattern, program)

    def _retention_mismatches(self, ctx, sweep, trefw):
        self._module.check_communication()
        bank = self._module.bank(ctx.bank)
        env = self._env
        state = sweep.state

        # WRITE_ROW victim, then the unrefreshed WAIT.
        state.session += 2
        bank.total_activations += 1
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        restore_time = env.now
        env.advance(self._trp_q)
        env.advance(trefw)

        # READ_ROW: the decayed cells materialize at the ACT.
        elapsed = env.now - restore_time
        flips = sweep.flip_mask(elapsed)
        data = sweep.bits.copy()
        if flips.any():
            data[flips] = sweep.discharged_value
        state.data = data
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = env.now
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1
        bank.total_activations += 1
        corrupt = bank.sensing_corruption(sweep.row, self._trcd_q)
        env.advance(self._trcd_q)
        env.advance(self._row_io)
        env.advance(self._trp_q)

        self.counters.retention_probes += 1
        self.counters.commands_issued += 2 * (2 + self._columns)
        PROFILER.count("retention_probes")
        return flips if corrupt is None else (flips | corrupt)

    def _retention_probe(self, ctx, sweep, trefw):
        mismatches = self._retention_mismatches(ctx, sweep, trefw)
        ber = float(np.count_nonzero(mismatches) / mismatches.size)
        counts = mismatches.astype(np.int64).reshape(-1, 64).sum(axis=1)
        histogram = Counter(int(c) for c in counts if c > 0)
        return ber, dict(histogram)

    def retention_probe(self, ctx, row, pattern, trefw):
        sweep = self._sweep(ctx, "retention", row, pattern)
        return self._retention_probe(ctx, sweep, trefw)

    def retention_ber(self, ctx, row, pattern, trefw):
        sweep = self._sweep(ctx, "retention", row, pattern)
        mismatches = self._retention_mismatches(ctx, sweep, trefw)
        return float(np.count_nonzero(mismatches) / mismatches.size)


class BatchProbeEngine(FastProbeEngine):
    """Schedule-batched engine: whole probe sessions at scalar cost.

    Inherits the fast engine's per-probe methods (used as the fallback
    whenever a probe's result could depend on per-probe device data,
    e.g. under activation corruption) and overrides the sessions with
    the kernels of :mod:`repro.core.batch`: per-probe answers come from
    presorted threshold reductions, and the per-cell flip mask is
    materialized once per session.
    """

    name = "batch"

    def hammer_session(self, ctx, row, pattern):
        from repro.core.batch import BatchHammerSession  # local: cycle

        return BatchHammerSession(self, ctx, row, pattern)

    def retention_session(self, ctx, row, pattern):
        from repro.core.batch import BatchRetentionSession  # local: cycle

        return BatchRetentionSession(self, ctx, row, pattern)

    def program_hammer_session(self, ctx, row, pattern, program):
        from repro.core.batch import ProgramBatchHammerSession  # local: cycle

        return ProgramBatchHammerSession(self, ctx, row, pattern, program)

    def hammer_ber(self, ctx, row, pattern, hammer_count):
        """One-off hammer BER, routed through a batch session.

        The fast engine's per-probe path evaluates a full-row flip mask
        per probe; wrapping the single probe in a (one-probe) batch
        session answers it from the presorted threshold reductions
        instead. This is what the one-off callers -- WCDP tie-break
        ranking, the per-probe benchmark loop -- hit, and it is why the
        batch tier's per-probe hammer rate now beats the fast tier's
        (see docs/PERFORMANCE.md).
        """
        with self.hammer_session(ctx, row, pattern) as session:
            return session.ber(hammer_count)

    def preheat(self, ctx, rows) -> int:
        """Warm the row set's per-row sort orders in one stacked
        ``(rows, cells)`` pass; returns the number of rows warmed."""
        return self._module.bank(ctx.bank).preheat_tolerance_orders(rows)


def open_hammer_session(
    ctx: "TestContext", row: int, pattern: DataPattern
) -> HammerSession:
    """Open the Alg. 1 probe session the context calls for: the
    attached compiled DSL program's session when one is present
    (``ctx.program``), else the engine's double-sided session.  This is
    the single seam through which the measurement loops
    (:mod:`repro.core.rowhammer`, :mod:`repro.core.wcdp`) pick up
    declarative programs -- no engine-layer changes per program."""
    program = getattr(ctx, "program", None)
    if program is not None and program.kind == "hammer":
        return program.hammer_session(ctx, row, pattern)
    return ctx.engine.hammer_session(ctx, row, pattern)


def one_shot_hammer_ber(
    ctx: "TestContext", row: int, pattern: DataPattern, hammer_count: int
) -> float:
    """One-off hammer BER through the context's routed schedule (the
    single-probe counterpart of :func:`open_hammer_session`)."""
    program = getattr(ctx, "program", None)
    if program is not None and program.kind == "hammer":
        return program.hammer_ber(ctx, row, pattern, hammer_count)
    return ctx.engine.hammer_ber(ctx, row, pattern, hammer_count)


def engine_selection(kind: str = None) -> str:
    """Resolve the requested probe-engine name.

    ``kind`` wins when given; otherwise the ``REPRO_PROBE_ENGINE``
    environment variable applies, defaulting to ``"batch"``. This is the
    selection *before* the per-module TRR override of
    :func:`make_engine`, and is what campaign-scoped identities (the
    study-cache fingerprint, the service checkpoint manifest) record.
    """
    kind = kind or os.environ.get(ENGINE_ENV_VAR) or "batch"
    if kind not in ("fused", "batch", "fast", "command"):
        raise ConfigurationError(
            f"unknown probe engine {kind!r}; expected 'fused', 'batch', "
            f"'fast' or 'command'"
        )
    return kind


def make_engine(ctx: "TestContext", kind: str = None) -> ProbeEngine:
    """Build the probe engine for a context.

    ``kind`` (or the ``REPRO_PROBE_ENGINE`` environment variable) picks
    ``"fused"``, ``"batch"``, ``"fast"`` or ``"command"``; default is
    batch. TRR-enabled modules always get the command engine, whose
    per-activation stream drives the defense model.
    """
    kind = engine_selection(kind)
    if kind == "command":
        return CommandProbeEngine(ctx)
    if any(bank.trr is not None for bank in ctx.infra.module.banks):
        return CommandProbeEngine(ctx)
    if kind == "fast":
        return FastProbeEngine(ctx)
    if kind == "fused":
        from repro.core.fused import FusedProbeEngine  # local: cycle

        return FusedProbeEngine(ctx)
    return BatchProbeEngine(ctx)
