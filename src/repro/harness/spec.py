"""Declarative experiment specs: one source of truth per experiment.

Every module under :mod:`repro.harness.experiments` exports an
:class:`ExperimentSpec` named ``SPEC`` declaring

* identity -- id, title, description (the uniform output/export schema
  is built from these),
* the characterization campaigns it consumes, as typed
  :class:`StudyRequest` tuples (what the runner's ``--orchestrate`` /
  ``--parallel`` preload planning is derived from),
* spec-only knobs (e.g. ``fig8``'s ``samples``) with their defaults,
* an analysis callable that receives the *resolved studies* -- specs
  are the only study entry point; analyses never call ``get_study``
  themselves (enforced by :mod:`repro.harness.lint` and the drift-guard
  test in ``tests/harness/test_spec.py``).

The registry auto-discovers specs, so adding an experiment is a single
new module; see ``docs/ADDING_EXPERIMENTS.md`` for the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.scale import StudyScale
from repro.harness import cache
from repro.harness.output import ExperimentOutput


@dataclass(frozen=True)
class StudyRequest:
    """One characterization campaign an experiment declares.

    ``None`` fields are holes filled at run time: ``modules`` falls back
    to the runner's ``--modules`` (then the spec's ``default_modules``,
    then :data:`repro.harness.cache.BENCH_MODULES`), ``scale`` and
    ``seed`` to the run's scale/seed. Non-``None`` fields pin the
    campaign regardless of runner arguments (e.g. ``pareto`` always
    studies its two showcase modules).
    """

    tests: Tuple[str, ...]
    modules: Optional[Tuple[str, ...]] = None
    scale: Optional[StudyScale] = None
    seed: Optional[int] = None
    #: Registered DSL program name (:mod:`repro.progdsl`) the campaign's
    #: probe schedules run through. None (the default) is the paper's
    #: schedule -- and the pre-DSL cache identity.
    program: Optional[str] = None

    def resolve(
        self,
        modules: Optional[Tuple[str, ...]] = None,
        scale: Optional[StudyScale] = None,
        seed: int = 0,
        program: Optional[str] = None,
    ) -> "ResolvedStudy":
        """Fill the request's holes with run-time values."""
        resolved_modules = self.modules if self.modules is not None else modules
        if resolved_modules is None:
            resolved_modules = cache.BENCH_MODULES
        return ResolvedStudy(
            tests=tuple(self.tests),
            modules=tuple(resolved_modules),
            scale=self.scale if self.scale is not None else scale,
            seed=self.seed if self.seed is not None else seed,
            program=self.program if self.program is not None else program,
        )


@dataclass(frozen=True)
class ResolvedStudy:
    """A :class:`StudyRequest` with every run-time hole filled in --
    exactly one cacheable campaign."""

    tests: Tuple[str, ...]
    modules: Tuple[str, ...]
    scale: Optional[StudyScale]
    seed: int
    program: Optional[str] = None

    @property
    def label(self) -> str:
        """Human-readable campaign label, e.g. ``"rowhammer+trcd"``."""
        label = "+".join(self.tests)
        if self.program is not None:
            label = f"{label}@{self.program}"
        return label

    def cache_key(self) -> str:
        """The study cache's identity for this campaign
        (:func:`~repro.harness.cache.study_fingerprint`; ``scale=None``
        is the bench scale :meth:`fetch` resolves it to)."""
        return cache.study_fingerprint(
            self.tests, self.modules, self.scale or StudyScale.bench(),
            self.seed, program=self.program,
        )

    def fetch(self):
        """Fetch the campaign through the study cache (in-process +
        disk layers)."""
        # Looked up through the module so tests can monkeypatch
        # ``cache.get_study`` and observe/redirect every fetch.
        return cache.get_study(
            self.tests, modules=self.modules, scale=self.scale,
            seed=self.seed, program=self.program,
        )


#: Analysis callable contract: ``analyze(output, studies, *, modules,
#: scale, seed, **knobs)`` fills ``output`` in place.
AnalysisFn = Callable[..., None]

#: Descriptions are either a plain string or a callable
#: ``(modules, knobs) -> str`` for the few experiments whose prose
#: depends on run parameters.
Description = Union[str, Callable[[Optional[Tuple[str, ...]], Dict[str, Any]], str]]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the harness needs to know about one experiment."""

    id: str
    title: str
    description: Description
    analyze: AnalysisFn
    studies: Tuple[StudyRequest, ...] = ()
    default_modules: Optional[Tuple[str, ...]] = None
    #: Default DSL program name applied to this spec's study requests
    #: (individual :class:`StudyRequest.program` pins still win); the
    #: runner's ``--program`` overrides this default at run time.
    program: Optional[str] = None
    knobs: Mapping[str, Any] = field(default_factory=dict)
    #: False for experiments whose results do not depend on the module
    #: selection (static tables, SPICE circuit studies); the runner
    #: warns when ``--modules`` is passed to one of these.
    module_scoped: bool = True
    #: Sort key for registry/listing order (paper artifacts first, then
    #: the extension experiments, mirroring DESIGN.md).
    order: int = 1000

    def resolve_modules(
        self, modules: Optional[Sequence[str]] = None
    ) -> Optional[Tuple[str, ...]]:
        """The module tuple an invocation operates on: an explicit
        argument wins, else the spec default (which may be None for
        all-modules/module-free experiments)."""
        if modules:
            return tuple(modules)
        return self.default_modules

    def resolved_studies(
        self,
        modules: Optional[Sequence[str]] = None,
        scale: Optional[StudyScale] = None,
        seed: int = 0,
        program: Optional[str] = None,
    ) -> Tuple[ResolvedStudy, ...]:
        """The exact campaigns one invocation will fetch, in declaration
        order. This is what preload planning and the drift-guard test
        consume."""
        resolved_modules = self.resolve_modules(modules)
        effective_program = program if program is not None else self.program
        return tuple(
            request.resolve(resolved_modules, scale, seed, effective_program)
            for request in self.studies
        )

    def resolve_knobs(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Spec knob defaults with ``overrides`` applied; unknown names
        are an error (they would be silently dropped otherwise)."""
        unknown = sorted(set(overrides) - set(self.knobs))
        if unknown:
            raise TypeError(
                f"experiment {self.id!r} got unexpected knob(s): "
                f"{', '.join(unknown)}; declared knobs: "
                f"{sorted(self.knobs) or '(none)'}"
            )
        knobs = dict(self.knobs)
        knobs.update(overrides)
        return knobs

    def describe(
        self,
        modules: Optional[Sequence[str]] = None,
        knobs: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """The output description for an invocation (resolves callable
        descriptions against the modules/knobs in effect)."""
        if callable(self.description):
            resolved = self.resolve_knobs(dict(knobs or {}))
            return self.description(self.resolve_modules(modules), resolved)
        return self.description

    def run(
        self,
        modules: Optional[Sequence[str]] = None,
        scale: Optional[StudyScale] = None,
        seed: int = 0,
        program: Optional[str] = None,
        **overrides: Any,
    ) -> ExperimentOutput:
        """Run the experiment: resolve knobs and modules, fetch the
        declared studies through the cache, and hand everything to the
        analysis callable."""
        knobs = self.resolve_knobs(overrides)
        resolved_modules = self.resolve_modules(modules)
        studies = tuple(
            resolved.fetch()
            for resolved in self.resolved_studies(
                modules, scale, seed, program
            )
        )
        output = ExperimentOutput(
            experiment_id=self.id,
            title=self.title,
            description=self.describe(modules, knobs),
        )
        self.analyze(
            output, studies, modules=resolved_modules, scale=scale,
            seed=seed, **knobs,
        )
        return output
