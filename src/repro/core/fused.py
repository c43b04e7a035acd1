"""The kernel probe engine: every operating point from one presorted
layout per row.

:class:`FusedProbeEngine` is the library's only kernel engine; the
command engine (:class:`~repro.core.probe.CommandProbeEngine`) is its
bit-exact oracle. It batches at two levels (see
``docs/PERFORMANCE.md``):

* **the study schedule** -- a whole bisection or retention ladder runs
  as one probe session. A :class:`FusedHammerSession` resolves a whole
  Alg. 1 run -- the worst-BER repetitions and every bisection round x
  iteration in one session per (row, pattern, V_PP), including
  censored rows and the ``hc <= 0`` clamp, whose control flow stays in
  :func:`repro.core.rowhammer.bisect_hcfirst` -- and a
  :class:`FusedRetentionSession` a whole Alg. 3 refresh-window ladder;
  each probe costs a cached jitter lookup and a few scalar multiplies
  and binary searches instead of full-row vector work. The jitter of a
  whole hammer pass over the sampled rows is derived up front, in one
  vectorized derivation (:meth:`FusedProbeEngine.preheat`);
* **the operating point and the data pattern** -- V_PP and
  temperature only reparameterize monotone scalar factors on per-row
  sorted threshold vectors, and a data pattern only selects which
  cells are charged (a mask over cell indices mod 8), so one sort per
  row serves every operating point and pattern, and a probe touches
  only its flipped prefix. Probes read only a row's weakest cells, so
  each bulk population is sorted as a head, extended to the whole row
  by the rare prefix that reaches its end
  (``repro_layout_extensions_total``):

  * *retention*: one ascending-retention sort per row, grouped by the
    per-cell V_PP-sensitivity exponent
    (:class:`~repro.dram.bank._FusedRetentionCounts`);
  * *hammer*: one ascending-tolerance sort per row, split into bulk
    and outlier cells; ``any_flip`` bisections need only the charged
    populations' tolerance minima, from the row's per-residue table
    (:class:`~repro.dram.bank._FusedHammerCounts`).

Equivalence contract (asserted bit-for-bit against the command engine
by ``tests/core/test_probe_equivalence.py`` and
``tests/core/test_fused_engine.py``):

* every probe performs the command path's full deterministic
  bookkeeping -- communication check, restore-session increments on the
  victim *and* aggressors (adjacent victims share live
  :class:`~repro.dram.cell.RowState` objects, so cross-row session
  coupling resolves in probe order), activation counters, command
  counts, and the exact ``env.advance`` sequence (elapsed times are
  sums of floats anchored at absolute timestamps, so the addition chain
  must be replayed, not recomputed);
* flip decisions replay the exact scalar operations of the vectorized
  masks (:meth:`~repro.dram.bank.HammerSweep.flip_mask`);
* only the victim's *data* materialization is deferred: intermediate
  probe data is overwritten by the next probe anyway, so one
  evaluation reproduces the final state. It is a pure function of the
  recorded probe parameters, so the session's close installs it as the
  row's data producer (:meth:`~repro.dram.cell.RowState.defer_data`),
  run on the first read of the row's data -- usually never, as the
  next probe's write replaces it;
* activation corruption (:meth:`~repro.dram.bank.Bank.
  sensing_corruption`) is data-independent whenever its fast check
  passes -- constant per (row, pattern, operating point) -- so it is
  checked once per session. If it *could* fire (a sensing hazard), the
  session hands every probe to the command oracle instead, counted in
  ``repro_probe_fallbacks_total{reason=sensing}``.

Alg. 2 runs on :class:`KernelTrcdSession` (see
:mod:`repro.core.trcd`). Every fallback -- a sensing hazard or a tRCD
sweep the kernel cannot replay -- runs on the engine's one
:class:`~repro.core.probe.CommandProbeEngine`, which shares the
engine's counters; the kernel has no probe path of its own besides
the sessions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.core.probe import (
    CommandProbeEngine,
    HammerSession,
    ProbeEngine,
    RetentionSession,
    TrcdSession,
)
from repro.core.scale import safe_timings
from repro.core.study import TEST_TYPES
from repro.dram.bank import TrcdSweep
from repro.errors import AnalysisError
from repro.obs.trace import TRACER
from repro.softmc.host import _COLUMN_LATENCY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import TestContext

#: Cap on cached (row, pattern) sweeps per engine. The V_PP ladder
#: revisits every sampled row once per level and per probe kind, so the
#: cap must cover a whole row set *times* the schedules touching it
#: (rows x patterns x hammer/retention) or each level rebuilds every
#: sweep -- the classic LRU sequential-scan worst case; a bench-scale
#: characterization alone walks 96 rows x 4 WCDP patterns x 2 kinds =
#: 768 distinct sweeps. A sweep keeps no per-operating-point arrays
#: (its kernels read the row state's shared layouts), so the count is
#: the only bound. Tests patch this constant to force evictions.
_SWEEP_CACHE_SIZE = 1024


def _sensing_exact(sweep, bank, engine, row) -> bool:
    """One session's activation-corruption verdict.

    The data-independent fast check (every cell's requirement covered)
    is constant per operating point, so its positive verdict is cached
    on the sweep across sessions; only rows/operating points that fail
    it re-run the (data-dependent) full check each session.
    """
    env = bank._env
    op_key = (env.vpp, env.temperature)
    if sweep.sensing_clean_at == op_key:
        return True
    if bank.sensing_certainly_clean(row, engine._trcd_q):
        sweep.sensing_clean_at = op_key
        return True
    return bank.sensing_corruption(row, engine._trcd_q) is None


def _flipped_bits(sweep, flip_sets, *args):
    """A producer of the sweep's pattern bits with every cell of
    ``flip_sets(*args)`` (index arrays) discharged: a victim's data
    after its session's last probe. It holds the bits, the flip-set
    callable and its arguments, but not the sweep, so the row state it
    is installed on does not keep an evicted sweep alive."""
    bits = sweep.bits
    discharged = sweep.discharged_value

    def produce() -> np.ndarray:
        data = bits.copy()
        for indices in flip_sets(*args):
            data[indices] = discharged
        return data

    return produce


def _note_probes(session, probes: int) -> None:
    """Count a session's probes after its first as saved sweep lookups:
    the session resolved its sweep once for all of them."""
    if probes > 0:
        session._engine.counters.sweep_saved_lookups += (
            probes if session._probed else probes - 1
        )
        session._probed = True


def _add_damage(damage_bulk, damage_outlier, terms, counts):
    """Victim damage of one probe's hammer bursts on top of the
    initialization base, in the command path's exact deposit order:
    round-major, aggressor-minor -- per-round sums, not a single
    total-count multiply, because float addition does not distribute
    over the burst split."""
    for count in counts:
        for weight, scale_bulk, scale_outlier in terms:
            damage_bulk += count * weight / scale_bulk
            damage_outlier += count * weight / scale_outlier
    return damage_bulk, damage_outlier


class FusedHammerSession(HammerSession):
    """One row's Alg. 1 schedule against the fused hammer kernel.

    Serves the double-sided probe and compiled DSL programs alike: the
    sweep spans the schedule's non-victim rows (a program's decoys
    first, matching the emitted initialization order), only the
    aggressor suffix hammers, and the per-probe hammer count is split
    across the program's bursts -- whose simulated-time advances and
    damage deposits are replayed burst by burst, because the command
    path runs one HAMMER instruction per burst. The double-sided probe
    is the zero-decoy, single-burst case.
    """

    def __init__(self, engine, ctx, row, pattern, program=None):
        super().__init__(engine, ctx, row, pattern)
        self._program = program
        if program is None:
            decoys, rounds = 0, 1
            sweep = engine._sweep(ctx, "hammer", row, pattern)
        else:
            decoys = len(program.resolve_for(ctx, row).decoy_rows)
            rounds = program.spec.rounds
            sweep = engine._program_sweep(ctx, program, row, pattern)
        self._sweep = sweep
        self._bank = engine._module.bank(ctx.bank)
        self._probed = False
        # Corruption policy for this operating point: one verdict covers
        # the whole session (V_PP cannot change mid-session). The check
        # reads the row's pattern slot, which each probe's WRITE_ROW
        # sets: set it first.
        sweep.state.pattern_index = sweep.pattern_index
        if not _sensing_exact(sweep, self._bank, engine, row):
            self._fallback = engine._fallback_session(
                ctx, row, pattern, "hammer" if program is None else "program",
                program,
            )
            return
        self._fallback = None
        self._decoys = decoys
        self._env = engine._env
        self._size = sweep.bits.size
        self._pending = None
        states = sweep.aggressor_states
        self._hammered = len(states) - decoys
        # Restore sessions one probe adds per non-victim row: two for
        # its initialization write, plus one per burst if it hammers.
        self._session_steps = tuple(
            2 + (rounds if index >= decoys else 0)
            for index in range(len(states))
        )
        # Per-probe commands that do not scale with the hammer count
        # (the row WRITE/READ instructions).
        self._static_commands = (2 + len(states)) * (2 + engine._columns)
        # The operating point is fixed for the session's lifetime:
        # resolve the count kernel and the damage coefficients once.
        self._counts = sweep.fused_counts()
        _, self._base_bulk, self._base_outlier, terms = sweep.damage_terms()
        self._hammer_terms = terms[decoys:]
        self._cell_gen = self._bank._cells

    def _round_counts(self, hammer_count: int):
        """The probe's per-burst hammer counts (one burst unless a
        program splits it)."""
        if self._program is None:
            return (hammer_count,)
        return self._program.round_counts(hammer_count)

    def ber(self, hammer_count: int) -> float:
        if self._fallback is not None:
            _note_probes(self, 1)
            return self._fallback.ber(hammer_count)
        flipped = self._probes(hammer_count, 1, self._counts.count)[0]
        return float(flipped / self._size)

    def any_flip(self, hammer_count: int) -> bool:
        if self._fallback is not None:
            _note_probes(self, 1)
            return self._fallback.any_flip(hammer_count)
        return self._probes(hammer_count, 1, self._counts.any_flip)[0]

    def ber_ladder(self, hammer_count, iterations):
        """Alg. 1's worst-BER repetitions as one bookkeeping pass."""
        if self._fallback is not None:
            _note_probes(self, iterations)
            return self._fallback.ber_ladder(hammer_count, iterations)
        if iterations <= 0:
            return []
        with TRACER.span(
            "probe-batch", hammer_count=hammer_count, iterations=iterations,
        ):
            flipped = self._probes(
                hammer_count, iterations, self._counts.count
            )
        size = self._size
        return [float(count / size) for count in flipped]

    def _probes(self, hammer_count, iterations, answer):
        """``iterations`` back-to-back probes at one hammer count; returns
        ``answer(damage_bulk, damage_outlier, session, elapsed)`` per
        probe (the count kernel's ``count`` or ``any_flip``).

        The command schedule's ``env.advance`` chain is replayed as one
        local addition chain, add by add in the command path's order
        (elapsed times are sums of floats anchored at absolute
        timestamps), so every probe's session number and elapsed time is
        bit-identical, while the per-probe state writes -- which each
        probe overwrites with the same or the final value -- collapse
        into one update. ``check_communication`` is a pure V_PP check and
        V_PP cannot change mid-session, so one check covers all."""
        engine = self._engine
        sweep = self._sweep
        env = self._env
        engine._module.check_communication()
        state = sweep.state
        cell_gen = self._cell_gen
        physical = sweep.physical

        trcd_q = engine._trcd_q
        row_io = engine._row_io
        trp_q = engine._trp_q
        trc_q = engine._trc_q
        states = sweep.aggressor_states
        steps = self._session_steps
        hammered = self._hammered
        counts = self._round_counts(hammer_count)
        # Per-probe constants at this hammer count (plain loops: this is
        # the bisection's per-probe hot path).
        total_cycles = 0
        hammer_adds = []
        for count in counts:
            cycles = count * hammered
            total_cycles += cycles
            hammer_adds.append(cycles * trc_q)
        damage_bulk, damage_outlier = _add_damage(
            self._base_bulk, self._base_outlier, self._hammer_terms, counts
        )

        now = env.now
        session = state.session
        answers = []
        last_restore = state.last_restore_time
        for _ in range(iterations):
            # WRITE_ROW victim, then every non-victim row, then HAMMER.
            session += 2
            cell_gen.ensure_jitter_window(physical, session)
            now += trcd_q
            now += row_io
            restore_time = now
            now += trp_q
            for row_state, step in zip(states, steps):
                row_state.session += step
                now += trcd_q
                now += row_io
                now += trp_q
            for hammer_add in hammer_adds:
                now += hammer_add
            elapsed = now - restore_time
            answers.append(
                answer(damage_bulk, damage_outlier, session, elapsed)
            )
            # READ_ROW: the flips land at its ACT, which restores.
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
        _note_probes(self, iterations)
        self._pending = (
            damage_bulk, damage_outlier, session - 1, elapsed
        )
        return answers

    def close(self) -> None:
        if self._fallback is not None:
            self._fallback.close()
            return
        if self._pending is None:
            return
        damage_bulk, damage_outlier, session, elapsed = self._pending
        self._pending = None
        sweep = self._sweep
        counts = self._counts
        if counts.any_decay(elapsed):
            # Retention decay fires: evaluate the full vectorized mask
            # (rare -- probe waits are far below retention times). Eager:
            # flip_mask reads the retention thresholds at the *current*
            # operating point.
            data = sweep.bits.copy()
            flips = sweep.flip_mask(
                damage_bulk, damage_outlier, session, elapsed
            )
            if flips.any():
                data[flips] = sweep.discharged_value
            sweep.state.data = data
        else:
            # The damage flips depend only on the recorded probe, so the
            # row's bits are built on first read -- usually never: the
            # next probe's WRITE_ROW overwrites them.
            sweep.state.defer_data(_flipped_bits(
                sweep, counts.flip_populations,
                damage_bulk, damage_outlier, session,
            ))


class FusedRetentionSession(RetentionSession):
    """One row's Alg. 3 refresh-window ladder against the
    group-decomposed retention kernel: counts per probe by needle
    inversion, one word histogram per *selected* (worst) iteration, one
    flip set at close for the final device state."""

    def __init__(self, engine, ctx, row, pattern):
        super().__init__(engine, ctx, row, pattern)
        sweep = self._sweep = engine._sweep(ctx, "retention", row, pattern)
        self._bank = engine._module.bank(ctx.bank)
        self._probed = False
        sweep.state.pattern_index = sweep.pattern_index
        if not _sensing_exact(sweep, self._bank, engine, row):
            self._fallback = engine._fallback_session(
                ctx, row, pattern, "retention"
            )
            return
        self._fallback = None
        self._env = engine._env
        self._size = sweep.bits.size
        self._pending = None
        # Retention probes never draw jitter (the flip rule has no
        # tolerance term), so only the count kernel needs resolving up
        # front.
        self._counts = sweep.fused_counts()

    def _count_windows(
        self, windows: Sequence[float], iterations: int
    ) -> Tuple[List[int], List[float]]:
        """``iterations`` probes of every window fused into one
        bookkeeping pass: the command schedule's ``env.advance`` chain is
        replayed add by add (elapsed times depend on the running clock's
        float magnitude), while the per-probe state writes, counter
        updates and ``check_communication`` -- a pure V_PP check, and
        V_PP cannot change mid-session -- collapse into one each.
        Returns per-probe (counts, elapsed times) in ladder order."""
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
        _note_probes(self, probes)
        self._pending = elapsed_values[-1]
        return self._counts.count_many(elapsed_values), elapsed_values

    def _worst(self, counts, elapsed_values, start, iterations):
        """The worst probe among ``iterations`` starting at ``start``.
        The per-probe path keeps the first strictly-larger BER; with a
        common divisor, that is the first maximal count."""
        window_counts = counts[start:start + iterations]
        best = window_counts.index(max(window_counts))
        return (
            float(window_counts[best] / self._size),
            self._counts.word_histogram(elapsed_values[start + best]),
        )

    def ber(self, trefw: float) -> float:
        if self._fallback is not None:
            _note_probes(self, 1)
            return self._fallback.ber(trefw)
        counts, _ = self._count_windows((trefw,), 1)
        return float(counts[0] / self._size)

    def worst_probe(self, trefw, iterations):
        if iterations <= 0:
            # No probe: the generic loop's (-1.0, {}), device untouched.
            return super().worst_probe(trefw, iterations)
        if self._fallback is not None:
            _note_probes(self, iterations)
            return self._fallback.worst_probe(trefw, iterations)
        with TRACER.span(
            "probe-batch", trefw=trefw, iterations=iterations,
        ):
            counts, elapsed_values = self._count_windows(
                (trefw,), iterations
            )
        return self._worst(counts, elapsed_values, 0, iterations)

    def worst_ladder(self, windows, iterations):
        if self._fallback is not None:
            _note_probes(self, len(windows) * iterations)
            return self._fallback.worst_ladder(windows, iterations)
        if iterations <= 0 or not windows:
            return super().worst_ladder(windows, iterations)
        with TRACER.span(
            "probe-batch", windows=len(windows), iterations=iterations,
        ):
            counts, elapsed_values = self._count_windows(windows, iterations)
            return [
                self._worst(
                    counts, elapsed_values, index * iterations, iterations
                )
                for index in range(len(windows))
            ]

    def close(self) -> None:
        if self._fallback is not None:
            self._fallback.close()
            return
        if self._pending is None:
            return
        elapsed = self._pending
        self._pending = None
        sweep = self._sweep
        counts = self._counts
        # Built on first read (see FusedHammerSession.close): the kernel
        # resolves its prefixes against layouts fixed at this point.
        sweep.state.defer_data(_flipped_bits(
            sweep, lambda: (counts.flip_indices(elapsed),)
        ))


def _armed(injector) -> bool:
    """Whether a bench fault injector can fire (an injector without a
    ``spec`` is taken to be armed)."""
    return injector is not None and getattr(injector, "spec", True) is not None


class KernelTrcdSession(TrcdSession):
    """One row's Alg. 2 sweep on the kernel engine.

    Each trial's verdict comes from two cached scalars of a
    :class:`~repro.dram.bank.TrcdSweep` (the charged cells' largest
    activation requirement at this V_PP) and the command path's
    bookkeeping is replayed per program: one program for a faulty
    trial (the command path stops at the first faulty probe), otherwise
    ``iterations``. The row data and the flip guard the last program
    leaves are materialized at close.

    The whole session runs on the engine's command oracle instead,
    counted in ``trcd_fallbacks_<reason>``, when

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
        self._fallback = engine._oracle.trcd_session(
            ctx, row, pattern, per_column
        )

    def faulty(self, trcd, iterations):
        sweep = self._sweep
        if sweep is None:
            return self._fallback.faulty(trcd, iterations)
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
        else:
            self._fallback.close()


class FusedProbeEngine(ProbeEngine):
    """The kernel engine: whole probe sessions at scalar cost, every
    V_PP point from one presorted layout per row.

    Selection: the default engine (TRR modules still force the command
    engine). Sweeps -- a (row, pattern) pair's cached per-row state --
    live in an LRU of at most :data:`_SWEEP_CACHE_SIZE` entries. Every
    fallback session runs on one command oracle that shares the
    engine's counters. The one-off probe entry
    points (``hammer_ber``, ``retention_ber``, ``retention_probe``) are
    routed through one-probe sessions, so WCDP tie-break ranking hits
    the kernels too.
    """

    name = "fused"

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
        self._sweep_capacity = _SWEEP_CACHE_SIZE
        # The one command oracle of every fallback session; its probes
        # count on this engine's counters.
        self._oracle = CommandProbeEngine(ctx)
        self._oracle.counters = self.counters

    # -- the sweep LRU ------------------------------------------------------

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

    def _fallback_session(self, ctx, row, pattern, kind, program=None):
        """The command oracle's session for a kernel session that opened
        on a sensing hazard (``kind``: ``hammer``, ``program`` or
        ``retention``), counted in ``probe_fallbacks_<kind>_sensing``."""
        name = f"probe_fallbacks_{kind}_sensing"
        setattr(self.counters, name, getattr(self.counters, name) + 1)
        oracle = self._oracle
        if kind == "retention":
            return oracle.retention_session(ctx, row, pattern)
        if program is None:
            return oracle.hammer_session(ctx, row, pattern)
        return oracle.program_hammer_session(ctx, row, pattern, program)

    # -- sessions and one-off probes ----------------------------------------

    def hammer_session(self, ctx, row, pattern):
        return FusedHammerSession(self, ctx, row, pattern)

    def program_hammer_session(self, ctx, row, pattern, program):
        return FusedHammerSession(self, ctx, row, pattern, program)

    def retention_session(self, ctx, row, pattern):
        return FusedRetentionSession(self, ctx, row, pattern)

    def trcd_session(self, ctx, row, pattern, per_column=False):
        return KernelTrcdSession(self, ctx, row, pattern, per_column)

    def hammer_ber(self, ctx, row, pattern, hammer_count):
        """One-off hammer BER through a (one-probe) session."""
        with self.hammer_session(ctx, row, pattern) as session:
            return session.ber(hammer_count)

    def retention_ber(self, ctx, row, pattern, trefw):
        """One-off retention BER through a (one-probe) session."""
        with self.retention_session(ctx, row, pattern) as session:
            return session.ber(trefw)

    def retention_probe(self, ctx, row, pattern, trefw):
        """One-off (BER, word histogram) probe through a session
        (``worst_probe`` over a single iteration is exactly one
        probe)."""
        with self.retention_session(ctx, row, pattern) as session:
            return session.worst_probe(trefw, 1)

    def preheat(
        self, ctx, rows, tests: Sequence[str] = TEST_TYPES,
        hammer_probes: int = 0,
    ) -> int:
        """The engine's warm-up before a pass over a row set.

        Warms the stacked layout passes the study's ``tests`` walk: the
        tolerance layout heads of the hammer kernel (``rowhammer``) and
        the retention layout heads every fused operating point and
        pattern re-slices (``retention``); Alg. 2 needs neither. With
        ``hammer_probes`` (the next hammer pass's most probes per row,
        from the scale's schedule) it also derives that pass's
        measurement jitter for every row in one vectorized derivation
        (:meth:`~repro.dram.bank.Bank.preheat_jitter`). The jitter is a
        pure hint: a read it did not predict derives its own window
        (:meth:`~repro.dram.cell.CellParameterGenerator.
        ensure_jitter_window`). Returns the number of rows whose
        tolerance layout was newly warmed."""
        bank = self._module.bank(ctx.bank)
        warmed = 0
        if "rowhammer" in tests:
            warmed = bank.preheat_tolerance_orders(rows)
        if "retention" in tests:
            bank.preheat_retention_orders(rows)
        if hammer_probes:
            bank.preheat_jitter(rows, hammer_probes)
        return warmed
