"""Probe engines: how Algorithms 1-3 touch the device.

The paper's measurement loops reduce to three probe shapes, repeated
tens of thousands of times per module:

* the double-sided RowHammer probe of Alg. 1 (initialize victim and
  aggressors, hammer, read back),
* the tRCD trial of Alg. 2 (initialize, activate with the trial
  latency, read back; see :mod:`repro.core.trcd` for its kernel/oracle
  split), and
* the write-wait-read retention probe of Alg. 3.

One kernel plus one oracle implement them (see ``docs/PERFORMANCE.md``):

* :class:`~repro.core.fused.FusedProbeEngine` (``"fused"``, the
  default) is the kernel. A whole bisection or retention ladder runs as
  one probe session (:meth:`ProbeEngine.hammer_session` /
  ``retention_session``) whose per-probe answers come from presorted
  per-row threshold layouts shared by every V_PP operating point -- a
  few scalar multiplies and binary searches per probe -- while the
  command schedule's bookkeeping (simulated time, restore sessions,
  activation counters) is replayed exactly.
* :class:`CommandProbeEngine` (``"command"``) runs each probe as a full
  SoftMC :class:`~repro.softmc.program.Program` through the host -- the
  validated reference path the kernel is checked against.

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
   operating point, and the kernel evaluates them with the same scalar
   operations as the Bank's own expressions (same operand order, same
   dtypes) at the same simulated-time offsets (same ``env.advance``
   sequence).

Engine selection: ``TestContext`` defaults to the kernel; pass
``probe_engine="command"`` to ``TestContext`` or
``CharacterizationStudy`` to force the reference path (the differential
tests and the benchmarks do). Both engines produce the same results, so
nothing above that seam -- no environment variable, CLI flag, API field
or fingerprint -- names an engine. :data:`ENGINE_NAMES` lists the
accepted names. Banks with the TRR defense installed always use the
command path, which feeds TRR its per-activation stream.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.metrics import bit_error_rate, flipped_word_counts
from repro.core.perf import ProbeCounters
from repro.core.scale import safe_timings
from repro.dram.patterns import DataPattern
from repro.dram.timing import TimingParameters
from repro.errors import AnalysisError, ConfigurationError
from repro.softmc.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import TestContext

#: The selectable probe engines: the kernel (the default) and the
#: command-path oracle, accepted by ``TestContext(probe_engine=...)``.
ENGINE_NAMES = ("fused", "command")


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
    :meth:`ProbeEngine.trcd_probe`; the kernel engine overrides it with
    :class:`~repro.core.fused.KernelTrcdSession`. Close the session (or
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
        return bit_error_rate(self._expected, result.data(read_index))


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


def make_engine(ctx: "TestContext", kind: str = None) -> ProbeEngine:
    """Build the probe engine for a context.

    ``kind`` picks ``"fused"`` (None, the default) or ``"command"``;
    other names raise :class:`ConfigurationError`. TRR-enabled modules
    always get the command engine, whose per-activation stream drives
    the defense model.
    """
    kind = kind or ENGINE_NAMES[0]
    if kind not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown probe engine {kind!r}; expected one of "
            + ", ".join(repr(name) for name in ENGINE_NAMES)
        )
    if kind == "command" or any(
        bank.trr is not None for bank in ctx.infra.module.banks
    ):
        return CommandProbeEngine(ctx)
    from repro.core.fused import FusedProbeEngine  # local: cycle

    return FusedProbeEngine(ctx)


def __getattr__(name: str):
    # ``perfbench/ledger.py`` still wraps ``BatchProbeEngine.preheat``
    # by that name; it resolves to the kernel engine's class (never to
    # a selectable engine).
    if name == "BatchProbeEngine":
        from repro.core.fused import FusedProbeEngine  # local: cycle

        return FusedProbeEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
