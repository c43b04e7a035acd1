"""Declarative DRAM-program layer (the hammer/retention schedule DSL).

Pipeline: :class:`~repro.progdsl.spec.ProgramSpec` (declarative spec)
-> :func:`~repro.progdsl.parse.parse_program` (canonical text form) ->
:func:`~repro.progdsl.resolve.resolve_rows` (physical offsets ->
logical rows through the module's mapping) ->
:func:`~repro.progdsl.unroll.round_counts` (burst schedule) ->
:func:`~repro.progdsl.compile.compile_program` (backend routing:
presorted-threshold kernels for data-independent programs, emitted
SoftMC command streams otherwise).

See ``docs/PROGRAMS.md`` for the grammar, the compile-vs-fallback
rules, and worked examples.
"""

from repro.progdsl.compile import (
    CompiledProgram,
    compile_program,
    program_chunk_gap,
)
from repro.progdsl.parse import parse_program
from repro.progdsl.registry import (
    get_program,
    is_known_program,
    program_names,
    register_program,
)
from repro.progdsl.resolve import ResolvedProgram, resolve_rows
from repro.progdsl.spec import DEFAULT_PROGRAM, ProgramSpec
from repro.progdsl.unroll import round_counts, unroll_schedule

__all__ = [
    "CompiledProgram",
    "DEFAULT_PROGRAM",
    "ProgramSpec",
    "ResolvedProgram",
    "compile_program",
    "get_program",
    "is_known_program",
    "parse_program",
    "program_chunk_gap",
    "program_names",
    "register_program",
    "resolve_rows",
    "round_counts",
    "unroll_schedule",
]
