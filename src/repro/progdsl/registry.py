"""Registry of named DRAM programs.

Experiments, the runner (``--program``), the orchestration service and
the HTTP API all reference programs by name; this module owns the
name -> :class:`ProgramSpec` table.  The built-ins cover the paper's
schedules plus the n-sided/decoy patterns motivated by "Revisiting
RowHammer" (see ``docs/PROGRAMS.md``); experiment modules may register
additional programs at import time via :func:`register_program`.

Unknown names are validated centrally in
:mod:`repro.harness.validation`, giving the runner, service and API
one uniform exit-2 / HTTP-400 error shape.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.progdsl.spec import DEFAULT_PROGRAM, ProgramSpec

_REGISTRY: Dict[str, ProgramSpec] = {}


def register_program(spec: ProgramSpec, replace: bool = False) -> ProgramSpec:
    """Register ``spec`` under its name.  Re-registering a name with a
    structurally different spec is an error unless ``replace`` is set
    (identical re-registration is an idempotent no-op, so experiment
    modules can register their programs unconditionally at import)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and not replace:
        if existing.schedule_key() == spec.schedule_key():
            return existing
        raise ConfigurationError(
            f"program {spec.name!r} is already registered with a "
            f"different schedule"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_program(name: str) -> ProgramSpec:
    """Look up a registered program; raises
    :class:`~repro.errors.ConfigurationError` on unknown names (callers
    on user-input paths should pre-validate via
    :mod:`repro.harness.validation` instead)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown program {name!r}; registered programs: "
            f"{', '.join(program_names())}"
        ) from None


def is_known_program(name: str) -> bool:
    return name in _REGISTRY


def program_names() -> Tuple[str, ...]:
    """All registered program names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- built-ins --------------------------------------------------------

register_program(ProgramSpec(
    name=DEFAULT_PROGRAM,
    aggressors=(-1, 1),
    description="Paper's double-sided hammer (Alg. 1 access pattern).",
))

register_program(ProgramSpec(
    name="single-sided",
    aggressors=(1,),
    description="Single-sided hammer of the physically-above neighbor.",
))

register_program(ProgramSpec(
    name="quad-sided",
    aggressors=(-2, -1, 1, 2),
    description="4-sided hammer over both distance-1 and distance-2 "
                "neighbors.",
))

register_program(ProgramSpec(
    name="four-sided-decoy",
    aggressors=(-3, -1, 1, 3),
    decoys=(-2, 2),
    description="4-sided hammer with distance-2 decoy rows initialized "
                "but never activated.",
))

register_program(ProgramSpec(
    name="double-sided-refresh",
    aggressors=(-1, 1),
    rounds=32,
    refresh=True,
    description="Double-sided hammer split into 32 bursts with a REF "
                "after each burst (TRR-visible schedule; command-path "
                "fallback).",
))

register_program(ProgramSpec(
    name="retention-ladder",
    kind="retention",
    description="Paper's Alg. 3 retention ladder over the scale's "
                "window schedule.",
))
