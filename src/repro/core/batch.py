"""Schedule-level batch kernels behind :class:`~repro.core.probe.
BatchProbeEngine`.

The fast engine already batches *within* a probe (one threshold vector
per operating point); these kernels batch *across* the probes of a
study schedule. A :class:`BatchHammerSession` resolves a whole Alg. 1
run -- the worst-BER repetitions plus every bisection round x iteration,
including censored rows and the ``hc <= 0`` clamp, whose control flow
stays in :func:`repro.core.rowhammer.bisect_hcfirst` -- and a
:class:`BatchRetentionSession` a whole Alg. 3 refresh-window ladder,
against presorted per-cell threshold reductions
(:meth:`~repro.dram.bank.HammerSweep.threshold_counts`): each probe
costs a jitter draw, a couple of scalar float64 multiplies and binary
searches instead of full-row vector work.

Equivalence contract (asserted bit-for-bit by
``tests/core/test_probe_equivalence.py``):

* every probe performs the command path's full deterministic
  bookkeeping -- communication check, restore-session increments on the
  victim *and* aggressors (adjacent victims share live
  :class:`~repro.dram.cell.RowState` objects, so cross-row session
  coupling resolves in probe order), activation counters, command
  counts, and the exact ``env.advance`` sequence (elapsed times are
  sums of floats anchored at absolute timestamps, so the addition chain
  must be replayed, not recomputed);
* flip decisions replay the exact scalar operations of the vectorized
  masks (see :class:`~repro.dram.bank._HammerCounts`);
* only the victim's *data* materialization is deferred: intermediate
  probe data is overwritten by the next probe anyway, so one
  ``flip_mask`` evaluation at session close reproduces the final state
  (the evaluation is a pure function of the recorded probe parameters);
  sessions close before anything else can observe the row;
* activation corruption (:meth:`~repro.dram.bank.Bank.
  sensing_corruption`) is data-independent whenever its fast check
  passes -- constant per (row, pattern, operating point) -- so it is
  checked once per session; if it *could* fire, the session falls back
  to the fast engine's per-probe path wholesale.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.perf import PROFILER
from repro.core.probe import HammerSession, RetentionSession, TrcdSession
from repro.dram.bank import TrcdSweep
from repro.obs.trace import TRACER


def _sensing_exact(sweep, bank, engine, row) -> bool:
    """One session's activation-corruption verdict.

    The data-independent fast check (every cell's requirement covered)
    is constant per operating point, so its positive verdict is cached
    on the sweep across sessions; only rows/operating points that fail
    it re-run the (data-dependent) full check each session, exactly as
    the uncached code did.
    """
    env = bank._env
    op_key = (env.vpp, env.temperature)
    if sweep.sensing_clean_at == op_key:
        return True
    if bank.sensing_certainly_clean(row, engine._trcd_q):
        sweep.sensing_clean_at = op_key
        return True
    return bank.sensing_corruption(row, engine._trcd_q) is None


class BatchHammerSession(HammerSession):
    """One row's Alg. 1 schedule against sorted-threshold reductions."""

    def __init__(self, engine, ctx, row, pattern):
        super().__init__(engine, ctx, row, pattern)
        self._sweep = self._make_sweep(engine, ctx, row, pattern)
        self._bank = engine._module.bank(ctx.bank)
        self._env = engine._env
        self._size = self._sweep.bits.size
        self._pending = None
        self._probed = False
        # Per-probe commands that do not scale with the hammer count
        # (the row WRITE/READ instructions: victim init + 2 aggressor
        # inits + read-back; program sessions override with their row
        # count).
        self._static_commands = 4 * (2 + engine._columns)
        # Corruption policy for this operating point: one verdict covers
        # the whole session (V_PP cannot change mid-session). The fast
        # path sets pattern_index before each check; replicate that.
        self._sweep.state.pattern_index = self._sweep.pattern_index
        self._exact = _sensing_exact(self._sweep, self._bank, engine, row)
        if self._exact:
            # The operating point is fixed for the session's lifetime:
            # resolve the sorted-threshold reductions and the damage
            # coefficients once instead of re-validating per probe.
            self._counts = self._resolve_counts()
            self._damage_terms = self._sweep.damage_terms()
            self._cell_gen = self._bank._cells

    def _make_sweep(self, engine, ctx, row, pattern):
        """The session's sweep (the seam program sessions override to
        substitute the program's resolved row list)."""
        return engine._sweep(ctx, "hammer", row, pattern)

    def _probe_fallback(self, hammer_count: int) -> float:
        """Exact per-probe path used when activation corruption could
        fire (the seam program sessions override with the program
        replay)."""
        return self._engine._hammer_probe(
            self._ctx, self._sweep, hammer_count
        )

    def _resolve_counts(self):
        """The session's count-reduction kernel (the seam the fused
        engine overrides to substitute its cross-operating-point
        kernel; both expose the same count/any_flip/any_decay/
        flip_populations contract, bit-identically)."""
        return self._sweep.threshold_counts()

    def _note_probe(self):
        if self._probed:
            self._engine.counters.sweep_saved_lookups += 1
        self._probed = True

    def _evaluate(self, hammer_count: int):
        """Advance the probe's command schedule up to the read-back ACT;
        returns the flip-evaluation parameters (the same quadruple the
        fast path hands to ``flip_mask``) plus the hammer cycle count.

        ``env.advance`` calls are inlined as one local addition chain in
        the command path's exact order (elapsed times are sums of floats
        anchored at absolute timestamps, so the chain must be replayed
        add by add)."""
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state

        state.session += 2
        session = state.session
        self._cell_gen.ensure_jitter_window(sweep.physical, session)

        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        now = env.now
        now += trcd_q
        now += row_io
        restore_time = now
        now += trp_q
        aggressors = sweep.aggressor_states
        for aggressor_state in aggressors:
            aggressor_state.session += 3
            now += trcd_q
            now += row_io
            now += trp_q
        cycles = hammer_count * len(aggressors)
        now += cycles * engine._trc_q
        env.now = now
        self._bank.total_activations += (
            1 + len(aggressors) * (1 + hammer_count)
        )

        elapsed = now - restore_time
        _, damage_bulk, damage_outlier, terms = self._damage_terms
        for weight, scale_bulk, scale_outlier in terms:
            damage_bulk += hammer_count * weight / scale_bulk
            damage_outlier += hammer_count * weight / scale_outlier
        return (damage_bulk, damage_outlier, session, elapsed), cycles

    def _finish(self, evaluation, cycles: int) -> None:
        """The probe's read-back bookkeeping; records the evaluation
        parameters as the session's pending data materialization."""
        engine = self._engine
        env = self._env
        state = self._sweep.state
        state.pattern_index = self._sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        now = env.now
        state.last_restore_time = now
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1
        self._bank.total_activations += 1
        now += engine._trcd_q
        now += engine._row_io
        now += engine._trp_q
        env.now = now
        counters = engine.counters
        counters.hammer_probes += 1
        counters.commands_issued += self._static_commands + 2 * cycles
        PROFILER.count("hammer_probes")
        self._pending = evaluation

    def ber(self, hammer_count: int) -> float:
        self._note_probe()
        if not self._exact:
            return self._probe_fallback(hammer_count)
        evaluation, cycles = self._evaluate(hammer_count)
        flipped = self._counts.count(*evaluation)
        self._finish(evaluation, cycles)
        return float(flipped / self._size)

    def ber_ladder(self, hammer_count, iterations):
        """Alg. 1's worst-BER repetitions as one bookkeeping pass.

        The simulated-clock chain is replayed add by add exactly as
        ``iterations`` back-to-back :meth:`ber` calls would (every
        probe's session number and elapsed time is bit-identical), while
        the per-probe state writes -- which each probe overwrites with
        the same or the final value -- collapse into one update, the
        mirror of :meth:`BatchRetentionSession._count_ladder` on the
        hammer side. ``check_communication`` is a pure V_PP check and
        V_PP cannot change mid-session, so one check covers all."""
        if iterations <= 0:
            return []
        if not self._exact:
            return [self.ber(hammer_count) for _ in range(iterations)]
        with TRACER.span(
            "probe-batch", hammer_count=hammer_count, iterations=iterations,
        ):
            return self._ber_ladder_traced(hammer_count, iterations)

    def _ber_ladder_traced(self, hammer_count, iterations):
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state
        cell_gen = self._cell_gen
        physical = sweep.physical
        counts = self._counts
        size = self._size

        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        aggressors = sweep.aggressor_states
        cycles = hammer_count * len(aggressors)
        hammer_add = cycles * engine._trc_q
        # The damage terms depend only on the hammer count, which is
        # fixed for the whole ladder.
        _, damage_bulk, damage_outlier, terms = self._damage_terms
        for weight, scale_bulk, scale_outlier in terms:
            damage_bulk += hammer_count * weight / scale_bulk
            damage_outlier += hammer_count * weight / scale_outlier

        now = env.now
        session = state.session
        values = []
        last_restore = state.last_restore_time
        for _ in range(iterations):
            session += 2
            cell_gen.ensure_jitter_window(physical, session)
            now += trcd_q
            now += row_io
            restore_time = now
            now += trp_q
            for aggressor_state in aggressors:
                aggressor_state.session += 3
                now += trcd_q
                now += row_io
                now += trp_q
            now += hammer_add
            elapsed = now - restore_time
            flipped = counts.count(
                damage_bulk, damage_outlier, session, elapsed
            )
            values.append(float(flipped / size))
            # Read-back restore (the per-probe _finish chain).
            last_restore = now
            session += 1
            now += trcd_q
            now += row_io
            now += trp_q
        state.session = session
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = last_restore
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        self._bank.total_activations += iterations * (
            2 + len(aggressors) * (1 + hammer_count)
        )
        env.now = now
        counters = engine.counters
        counters.hammer_probes += iterations
        counters.commands_issued += iterations * (
            self._static_commands + 2 * cycles
        )
        counters.sweep_saved_lookups += (
            iterations if self._probed else iterations - 1
        )
        self._probed = True
        PROFILER.count("hammer_probes", iterations)
        self._pending = (
            damage_bulk, damage_outlier, session - 1, elapsed
        )
        return values

    def any_flip(self, hammer_count: int) -> bool:
        self._note_probe()
        if not self._exact:
            return self._probe_fallback(hammer_count) > 0
        evaluation, cycles = self._evaluate(hammer_count)
        flipped = self._counts.any_flip(*evaluation)
        self._finish(evaluation, cycles)
        return flipped

    def close(self) -> None:
        if self._pending is None:
            return
        damage_bulk, damage_outlier, session, elapsed = self._pending
        self._pending = None
        sweep = self._sweep
        data = sweep.bits.copy()
        counts = self._counts
        if counts.any_decay(elapsed):
            # Retention decay fires: evaluate the full vectorized mask
            # (rare -- probe waits are far below retention times).
            flips = sweep.flip_mask(
                damage_bulk, damage_outlier, session, elapsed
            )
            if flips.any():
                data[flips] = sweep.discharged_value
        else:
            for indices in counts.flip_populations(
                damage_bulk, damage_outlier, session
            ):
                data[indices] = sweep.discharged_value
        sweep.state.data = data


class ProgramBatchHammerSession(BatchHammerSession):
    """A compiled DSL program's hammer schedule against the
    sorted-threshold reductions.

    Generalizes :class:`BatchHammerSession` along three axes while
    keeping its deferred-materialization and sensing-fallback
    machinery: the sweep spans the program's full resolved row list
    (decoys first, matching the emitted initialization order), only the
    aggressor suffix hammers, and the per-probe hammer count is split
    across the program's bursts -- whose simulated-time advances and
    damage deposits are replayed burst by burst, because the command
    path runs one HAMMER instruction per burst and float addition does
    not distribute over the split.  Degenerates op-for-op to the base
    class for a single-burst, zero-decoy, double-sided program.
    """

    def __init__(self, engine, ctx, row, pattern, program):
        self._program = program
        self._resolved = program.resolve_for(ctx, row)
        self._decoys = len(self._resolved.decoy_rows)
        self._rounds = program.spec.rounds
        super().__init__(engine, ctx, row, pattern)
        self._static_commands = (
            (2 + len(self._sweep.aggressor_states)) * (2 + engine._columns)
        )

    def _make_sweep(self, engine, ctx, row, pattern):
        return engine._program_sweep(ctx, self._program, row, pattern)

    def _probe_fallback(self, hammer_count: int) -> float:
        return self._engine._program_hammer_probe(
            self._ctx, self._sweep, self._decoys,
            self._program.round_counts(hammer_count),
        )

    def _evaluate(self, hammer_count: int):
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state

        state.session += 2
        session = state.session
        self._cell_gen.ensure_jitter_window(sweep.physical, session)

        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        trc_q = engine._trc_q
        now = env.now
        now += trcd_q
        now += row_io
        restore_time = now
        now += trp_q
        states = sweep.aggressor_states
        decoys = self._decoys
        rounds = self._rounds
        # Init chain for every non-victim row; session totals collapse
        # to the init position (decoys are never hammered, aggressors
        # restore once per burst).
        for index, row_state in enumerate(states):
            row_state.session += 2 + (rounds if index >= decoys else 0)
            now += trcd_q
            now += row_io
            now += trp_q
        counts = self._program.round_counts(hammer_count)
        hammered = len(states) - decoys
        total_cycles = 0
        for count in counts:
            cycles = count * hammered
            total_cycles += cycles
            now += cycles * trc_q
        env.now = now
        self._bank.total_activations += (
            1 + len(states) + hammered * hammer_count
        )

        elapsed = now - restore_time
        _, damage_bulk, damage_outlier, terms = self._damage_terms
        aggressor_terms = terms[decoys:]
        for count in counts:
            for weight, scale_bulk, scale_outlier in aggressor_terms:
                damage_bulk += count * weight / scale_bulk
                damage_outlier += count * weight / scale_outlier
        return (damage_bulk, damage_outlier, session, elapsed), total_cycles

    def _ber_ladder_traced(self, hammer_count, iterations):
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state
        cell_gen = self._cell_gen
        physical = sweep.physical
        count_kernel = self._counts
        size = self._size

        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        trc_q = engine._trc_q
        states = sweep.aggressor_states
        decoys = self._decoys
        rounds = self._rounds
        counts = self._program.round_counts(hammer_count)
        hammered = len(states) - decoys
        total_cycles = 0
        for count in counts:
            total_cycles += count * hammered
        # Damage depends only on the (fixed) hammer count.
        _, damage_bulk, damage_outlier, terms = self._damage_terms
        aggressor_terms = terms[decoys:]
        for count in counts:
            for weight, scale_bulk, scale_outlier in aggressor_terms:
                damage_bulk += count * weight / scale_bulk
                damage_outlier += count * weight / scale_outlier

        now = env.now
        session = state.session
        values = []
        last_restore = state.last_restore_time
        for _ in range(iterations):
            session += 2
            cell_gen.ensure_jitter_window(physical, session)
            now += trcd_q
            now += row_io
            restore_time = now
            now += trp_q
            for index, row_state in enumerate(states):
                row_state.session += 2 + (rounds if index >= decoys else 0)
                now += trcd_q
                now += row_io
                now += trp_q
            for count in counts:
                now += (count * hammered) * trc_q
            elapsed = now - restore_time
            flipped = count_kernel.count(
                damage_bulk, damage_outlier, session, elapsed
            )
            values.append(float(flipped / size))
            # Read-back restore (the per-probe _finish chain).
            last_restore = now
            session += 1
            now += trcd_q
            now += row_io
            now += trp_q
        state.session = session
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = last_restore
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        self._bank.total_activations += iterations * (
            2 + len(states) + hammered * hammer_count
        )
        env.now = now
        counters = engine.counters
        counters.hammer_probes += iterations
        counters.commands_issued += iterations * (
            self._static_commands + 2 * total_cycles
        )
        counters.sweep_saved_lookups += (
            iterations if self._probed else iterations - 1
        )
        self._probed = True
        PROFILER.count("hammer_probes", iterations)
        self._pending = (
            damage_bulk, damage_outlier, session - 1, elapsed
        )
        return values


class BatchRetentionSession(RetentionSession):
    """One row's Alg. 3 refresh-window ladder against a sorted
    threshold vector: counts per probe via ``searchsorted``, one flip
    mask per *selected* (worst) iteration for the word histogram, one
    at close for the final device state."""

    def __init__(self, engine, ctx, row, pattern):
        super().__init__(engine, ctx, row, pattern)
        self._sweep = engine._sweep(ctx, "retention", row, pattern)
        self._bank = engine._module.bank(ctx.bank)
        self._env = engine._env
        self._size = self._sweep.bits.size
        self._pending = None
        self._probed = False
        self._sweep.state.pattern_index = self._sweep.pattern_index
        self._exact = _sensing_exact(self._sweep, self._bank, engine, row)
        if self._exact:
            # Retention probes never draw jitter (the flip rule has no
            # tolerance term), so only the threshold reduction needs
            # resolving up front.
            self._counts = self._resolve_counts()

    def _resolve_counts(self):
        """The session's count-reduction kernel (seam for the fused
        engine; see :meth:`BatchHammerSession._resolve_counts`)."""
        return self._sweep.threshold_counts()

    def _note_probe(self):
        if self._probed:
            self._engine.counters.sweep_saved_lookups += 1
        self._probed = True

    def _count_probe(self, trefw: float) -> Tuple[int, float]:
        """One probe's full bookkeeping; (flip count, elapsed time).

        As in :meth:`BatchHammerSession._evaluate`, the ``env.advance``
        chain is inlined add by add to keep elapsed times bit-exact."""
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state

        state.session += 2
        now = env.now
        now += engine._trcd_q
        now += engine._row_io
        restore_time = now
        now += engine._trp_q
        now += trefw

        elapsed = now - restore_time
        count = self._counts.count(elapsed)

        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = now
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        state.session += 1
        self._bank.total_activations += 2
        now += engine._trcd_q
        now += engine._row_io
        now += engine._trp_q
        env.now = now
        counters = engine.counters
        counters.retention_probes += 1
        counters.commands_issued += 2 * (2 + engine._columns)
        PROFILER.count("retention_probes")
        self._pending = elapsed
        return count, elapsed

    def _count_ladder(
        self, trefw: float, iterations: int
    ) -> Tuple[List[int], List[float]]:
        """``iterations`` consecutive probes fused into one bookkeeping
        pass: the simulated-clock chain is replayed add by add exactly
        as :meth:`_count_probe` would (so every probe's elapsed time is
        bit-identical), while the per-probe state writes -- which each
        probe overwrites with the same or the final value -- collapse
        into one update. ``check_communication`` is a pure V_PP check
        and V_PP cannot change mid-session, so one check covers all."""
        with TRACER.span(
            "probe-batch", trefw=trefw, iterations=iterations,
        ):
            return self._count_ladder_traced(trefw, iterations)

    def _count_ladder_traced(
        self, trefw: float, iterations: int
    ) -> Tuple[List[int], List[float]]:
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state
        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        now = env.now
        elapsed_values: List[float] = []
        last_restore = now
        for _ in range(iterations):
            now += trcd_q
            now += row_io
            restore_time = now
            now += trp_q
            now += trefw
            elapsed_values.append(now - restore_time)
            last_restore = now
            now += trcd_q
            now += row_io
            now += trp_q
        state.session += 3 * iterations
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = last_restore
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        self._bank.total_activations += 2 * iterations
        env.now = now
        counters = engine.counters
        counters.retention_probes += iterations
        counters.commands_issued += iterations * 2 * (2 + engine._columns)
        counters.sweep_saved_lookups += (
            iterations if self._probed else iterations - 1
        )
        self._probed = True
        PROFILER.count("retention_probes", iterations)
        self._pending = elapsed_values[-1]
        counts = self._counts.count_many(elapsed_values)
        return counts, elapsed_values

    def _histogram(self, elapsed: float) -> Dict[int, int]:
        return self._counts.word_histogram(elapsed)

    def ber(self, trefw: float) -> float:
        self._note_probe()
        if not self._exact:
            mismatches = self._engine._retention_mismatches(
                self._ctx, self._sweep, trefw
            )
            return float(np.count_nonzero(mismatches) / mismatches.size)
        count, _ = self._count_probe(trefw)
        return float(count / self._size)

    def worst_probe(self, trefw, iterations):
        if not self._exact:
            worst_ber = -1.0
            worst_histogram: Dict[int, int] = {}
            for _ in range(iterations):
                self._note_probe()
                ber, histogram = self._engine._retention_probe(
                    self._ctx, self._sweep, trefw
                )
                if ber > worst_ber:
                    worst_ber = ber
                    worst_histogram = histogram
            return worst_ber, worst_histogram
        counts, elapsed_values = self._count_ladder(trefw, iterations)
        # The fast path keeps the first strictly-larger BER; with a
        # common divisor, that is the first maximal count.
        best = counts.index(max(counts))
        return (
            float(counts[best] / self._size),
            self._histogram(elapsed_values[best]),
        )

    def worst_ladder(self, windows, iterations):
        if not self._exact or iterations <= 0 or not windows:
            return super().worst_ladder(windows, iterations)
        with TRACER.span(
            "probe-batch", windows=len(windows), iterations=iterations,
        ):
            return self._worst_ladder_traced(windows, iterations)

    def _worst_ladder_traced(self, windows, iterations):
        """The whole Alg. 3 window ladder in one bookkeeping pass.

        Extends :meth:`_count_ladder`'s collapse across the window
        loop: the simulated-clock chain is still replayed add by add
        (elapsed times depend on the running clock's float magnitude),
        but the per-window state writes, counter updates and
        ``check_communication`` -- a pure V_PP check, and V_PP cannot
        change mid-session -- collapse into one each."""
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state
        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        now = env.now
        elapsed_values: List[float] = []
        last_restore = now
        for trefw in windows:
            for _ in range(iterations):
                now += trcd_q
                now += row_io
                restore_time = now
                now += trp_q
                now += trefw
                elapsed_values.append(now - restore_time)
                last_restore = now
                now += trcd_q
                now += row_io
                now += trp_q
        probes = iterations * len(windows)
        state.session += 3 * probes
        state.pattern_index = sweep.pattern_index
        state.cache.pop("_flip_guard", None)
        state.last_restore_time = last_restore
        state.vpp_at_restore = env.vpp
        state.damage_bulk = 0.0
        state.damage_outlier = 0.0
        self._bank.total_activations += 2 * probes
        env.now = now
        counters = engine.counters
        counters.retention_probes += probes
        counters.commands_issued += probes * 2 * (2 + engine._columns)
        counters.sweep_saved_lookups += (
            probes if self._probed else probes - 1
        )
        self._probed = True
        PROFILER.count("retention_probes", probes)
        self._pending = elapsed_values[-1]
        counts = self._counts.count_many(elapsed_values)
        size = self._size
        results = []
        for index in range(len(windows)):
            start = index * iterations
            window_counts = counts[start:start + iterations]
            best = window_counts.index(max(window_counts))
            results.append((
                float(window_counts[best] / size),
                self._histogram(elapsed_values[start + best]),
            ))
        return results

    def close(self) -> None:
        if self._pending is None:
            return
        elapsed = self._pending
        self._pending = None
        sweep = self._sweep
        data = sweep.bits.copy()
        data[self._counts.flip_indices(elapsed)] = sweep.discharged_value
        sweep.state.data = data


def _armed(injector) -> bool:
    """Whether a bench fault injector can fire (an injector without a
    ``spec`` is taken to be armed)."""
    return injector is not None and getattr(injector, "spec", True) is not None


class KernelTrcdSession(TrcdSession):
    """One row's Alg. 2 sweep on the kernel engines (fast, batch and
    fused).

    Each trial's verdict comes from two cached scalars of a
    :class:`~repro.dram.bank.TrcdSweep` (the charged cells' largest
    activation requirement at this V_PP) and the command path's
    bookkeeping is replayed per program: one program for a faulty
    trial (the command path stops at the first faulty probe), otherwise
    ``iterations``. The row data and the flip guard the last program
    leaves are materialized at close.

    The whole session runs on the command path instead, counted in
    ``trcd_fallbacks_<reason>``, when

    * ``per_column`` asks for Alg. 2's literal column loop;
    * an armed fault injector is on the bench: injected faults must fire
      at the same instruction tick as on the command engine;
    * a charged cell could decay within the write-to-read tRP, so the
      read might not see the written pattern.

    The sweep is built per session and stays out of the engine's sweep
    LRU (and its counters).
    """

    def __init__(self, engine, ctx, row, pattern, per_column=False):
        super().__init__(engine, ctx, row, pattern, per_column)
        self._module = engine._module
        self._sweep = None
        if per_column:
            reason = "per_column"
        elif _armed(ctx.infra.fault_injector):
            reason = "fault_injector"
        else:
            sweep = TrcdSweep(self._module.bank(ctx.bank), row, pattern)
            if sweep.decay_free(engine._trp_q):
                self._sweep = sweep
                return
            reason = "retention_guard"
        name = f"trcd_fallbacks_{reason}"
        setattr(engine.counters, name, getattr(engine.counters, name) + 1)

    def faulty(self, trcd, iterations):
        sweep = self._sweep
        if sweep is None:
            return super().faulty(trcd, iterations)
        # The command path checks communication per instruction; V_PP
        # cannot change mid-trial, so one check up front is equivalent.
        self._module.check_communication()
        engine = self._engine
        trcd_used = self._ctx.infra.fpga.quantize(trcd)
        faulty = sweep.activation_faulty(trcd_used)
        programs = 1 if faulty else iterations
        sweep.replay(trcd_used, engine._row_io, engine._trp_q, programs)
        engine.counters.trcd_probes += programs
        return faulty

    def close(self) -> None:
        if self._sweep is not None:
            self._sweep.close()
