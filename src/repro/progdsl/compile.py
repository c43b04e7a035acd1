"""Program compilation and backend routing.

``compile_program`` turns a :class:`~repro.progdsl.spec.ProgramSpec`
(or a registered name) into a :class:`CompiledProgram`, the object the
probe engines consume.  Two backends exist:

* **compiled path** -- data-independent programs (no refresh
  interleaving) lower onto the presorted-threshold kernels: the
  program's deterministic ACT stream reduces to per-round hammer-count
  bursts that :class:`~repro.core.fused.FusedHammerSession` replays as
  scalar chains.  This is the fast path and
  requires **no engine-layer changes** per new program: resolution
  produces the row list, unrolling the burst schedule, and the generic
  program sessions do the rest.
* **fallback path** -- refresh-interleaved programs (data-dependent:
  REF steps the refresh cursor and feeds TRR samplers) and any program
  running on the command engine (TRR modules force it) are *emitted* as
  real :class:`~repro.softmc.program.Program` instruction streams and
  executed through the host, probe by probe.

Routing is visible in observability: every compile runs under a
``program_compile`` span and bumps ``repro_program_compiles_total``;
every fallback session-open bumps ``repro_program_fallbacks_total``
(see ``docs/PROGRAMS.md`` and ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.core.scale import safe_timings
from repro.dram.patterns import DataPattern
from repro.errors import ConfigurationError
from repro.progdsl.registry import get_program
from repro.progdsl.resolve import ResolvedProgram, resolve_rows
from repro.progdsl.spec import ProgramSpec
from repro.progdsl.unroll import round_counts
from repro.softmc.program import Program

#: Metric names for compiled-vs-fallback routing visibility.
COMPILES_METRIC = "repro_program_compiles_total"
FALLBACKS_METRIC = "repro_program_fallbacks_total"

#: Baseline physical-gap floor between row chunks of a parallel
#: campaign (mirrors :data:`repro.core.campaign.CHUNK_GAP`).
_BASE_CHUNK_GAP = 4


class CompiledProgram:
    """A validated program spec bound to its execution strategy.

    Construct through :func:`compile_program` (which traces and counts
    the compilation); attach to a ``TestContext`` via its ``program``
    field.  The object is stateless across rows/modules and safe to
    share between sessions of one campaign worker.
    """

    def __init__(self, spec: ProgramSpec):
        self.spec = spec
        #: Canonical DSL text -- the identity fingerprints incorporate.
        self.canonical = spec.canonical()
        self._fallback_counter = None

    # -- identity ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def is_default(self) -> bool:
        """True for programs that are structurally the pre-DSL schedule
        (the paper's double-sided hammer, or the plain scale-driven
        retention ladder): studies normalize these to the legacy code
        path, keeping their cache fingerprints byte-identical to
        pre-DSL studies."""
        if self.spec.kind == "hammer":
            return self.spec.is_default_schedule()
        return self.spec.windows is None and self.spec.iterations is None

    def chunk_gap(self) -> int:
        """Minimum physical row gap between parallel-campaign chunks so
        concurrent probes share no row state: the program touches rows
        up to ``reach`` away, two victims interact within ``2 * reach``,
        plus the same slack margin the double-sided baseline uses."""
        return max(_BASE_CHUNK_GAP, 2 * self.spec.reach + 2)

    # -- retention overrides -----------------------------------------

    def windows(self, scale) -> Tuple[float, ...]:
        """The retention ladder's window schedule (program override or
        the scale's)."""
        if self.spec.windows is not None:
            return tuple(self.spec.windows)
        return tuple(scale.retention_windows)

    def iterations(self, scale) -> int:
        """Per-window probe repetitions (program override or the
        scale's)."""
        if self.spec.iterations is not None:
            return self.spec.iterations
        return scale.iterations

    # -- hammer lowering ---------------------------------------------

    def resolve_for(self, ctx, row: int) -> ResolvedProgram:
        """Resolve the spec's physical offsets for one victim row on
        the context's module (through the bank's internal mapping --
        the oracle view; programs express physical geometry, so
        reverse-engineered adjacency does not apply)."""
        mapping = ctx.infra.module.bank(ctx.bank).mapping
        return resolve_rows(self.spec, mapping, row)

    def round_counts(self, hammer_count: int) -> Tuple[int, ...]:
        """Per-burst hammer counts for one probe (see
        :func:`repro.progdsl.unroll.round_counts`)."""
        return round_counts(hammer_count, self.spec.rounds)

    def emit_probe(
        self,
        bank: int,
        resolved: ResolvedProgram,
        pattern: DataPattern,
        row_bits: int,
        hammer_count: int,
    ) -> Tuple[Program, int]:
        """Emit one probe of the program as a SoftMC instruction stream
        (the fallback backend); returns ``(program, read_index)``.

        For the default double-sided spec this is instruction-identical
        to the command engine's bespoke pre-DSL construction: victim
        init, per-aggressor inverse init, one hammer burst, read-back.
        """
        spec = self.spec
        program = Program(safe_timings())
        program.initialize_row(bank, resolved.victim, pattern, row_bits)
        for decoy in resolved.decoy_rows:
            program.initialize_row(
                bank, decoy, pattern, row_bits,
                inverse=spec.decoy_data == "inverse",
            )
        for aggressor in resolved.aggressor_rows:
            program.initialize_row(
                bank, aggressor, pattern, row_bits,
                inverse=spec.aggressor_data == "inverse",
            )
        program.hammer_rounds(
            bank, resolved.aggressor_rows,
            self.round_counts(hammer_count), refresh=spec.refresh,
        )
        read_index = program.read_row(bank, resolved.victim)
        return program, read_index

    # -- session routing ---------------------------------------------

    def _count_fallback(self) -> None:
        counter = self._fallback_counter
        if counter is None:
            from repro.obs.metrics import REGISTRY  # local: keep obs optional

            counter = self._fallback_counter = REGISTRY.counter(
                FALLBACKS_METRIC,
                "Program sessions routed to the emitted-command-stream "
                "fallback backend",
            )
        counter.inc()

    def hammer_session(self, ctx, row: int, pattern: DataPattern):
        """Open this program's probe session for one row's schedule.

        Data-independent programs route to the engine's kernelized
        program session (``ProbeEngine.program_hammer_session``); the
        rest -- and every session on the command engine -- execute the
        emitted instruction stream per probe.
        """
        if self.spec.kind != "hammer":
            raise ConfigurationError(
                f"program {self.name!r} is a {self.spec.kind} program; "
                f"it has no hammer session"
            )
        from repro.core.probe import (  # local: engines import nothing from progdsl
            CommandProbeEngine,
            _ProgramStreamHammerSession,
        )

        engine = ctx.engine
        if not self.spec.data_independent or isinstance(
            engine, CommandProbeEngine
        ):
            self._count_fallback()
            return _ProgramStreamHammerSession(engine, ctx, row, pattern, self)
        return engine.program_hammer_session(ctx, row, pattern, self)

    def hammer_ber(
        self, ctx, row: int, pattern: DataPattern, hammer_count: int
    ) -> float:
        """One-off probe BER, routed through a (one-probe) session so
        every engine answers it from its own session."""
        with self.hammer_session(ctx, row, pattern) as session:
            return session.ber(hammer_count)


def compile_program(
    program: Union[str, ProgramSpec, CompiledProgram, None],
) -> Optional[CompiledProgram]:
    """Compile a program (registered name or spec) for execution.

    ``None`` and already-compiled programs pass through; names resolve
    via :mod:`repro.progdsl.registry`.  Each compilation runs under a
    ``program_compile`` tracing span and increments
    ``repro_program_compiles_total``.
    """
    if program is None or isinstance(program, CompiledProgram):
        return program
    from repro.obs.metrics import REGISTRY  # local: keep obs optional
    from repro.obs.trace import TRACER

    if isinstance(program, str):
        spec = get_program(program)
    else:
        spec = program
    with TRACER.span("program_compile", program=spec.name, kind=spec.kind):
        compiled = CompiledProgram(spec)
        REGISTRY.counter(
            COMPILES_METRIC, "DSL programs compiled for execution"
        ).inc()
    return compiled


def program_chunk_gap(
    program: Union[str, ProgramSpec, CompiledProgram, None],
) -> int:
    """The parallel-campaign chunk gap a program requires (the
    double-sided baseline's gap when no program is given)."""
    if program is None:
        return _BASE_CHUNK_GAP
    if isinstance(program, str):
        program = CompiledProgram(get_program(program))
    elif isinstance(program, ProgramSpec):
        program = CompiledProgram(program)
    return program.chunk_gap()
