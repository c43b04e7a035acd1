"""Experiment registry: paper-artifact id -> declarative spec.

Every module under :mod:`repro.harness.experiments` exports a ``SPEC``
(:class:`repro.harness.spec.ExperimentSpec`) declaring its id, title,
study needs, and analysis; the registry discovers them automatically,
so adding an experiment is a one-file change (docs/ADDING_EXPERIMENTS.md
walks through it). Ids follow the paper's numbering (``table1``-
``table3``, ``fig3``-``fig11``) plus ``significance`` (Section 4.6) and
the extension experiments documented in DESIGN.md.

A module's file name is its experiment id, so discovery is lazy:
:func:`get_spec` imports the one module it names,
:func:`unknown_experiments` checks ids against the package's file names
without importing any, and only :func:`all_specs` (and the
``EXPERIMENT_IDS`` list built from it on first access) imports every
module, since report order (``spec.order``) is declared inside them.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Callable, Dict, Iterable, List

from repro.errors import ConfigurationError
from repro.harness.output import ExperimentOutput
from repro.harness.spec import ExperimentSpec

_PACKAGE = "repro.harness.experiments"

#: Every spec, in report order, once :func:`all_specs` has run.
_SPECS: Dict[str, ExperimentSpec] = {}
#: The specs imported so far, by module name (= id).
_LOADED: Dict[str, ExperimentSpec] = {}
#: The experiment package's module names, sorted, once listed.
_NAMES: List[str] = []


def experiment_names() -> List[str]:
    """Every experiment id, sorted by name: the experiment package's
    module names, read without importing any of them."""
    if not _NAMES:
        package = importlib.import_module(_PACKAGE)
        _NAMES.extend(sorted(
            info.name for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ))
    return _NAMES


def _load(name: str) -> ExperimentSpec:
    """Import experiment module ``name`` and return its ``SPEC``, which
    must declare ``name`` as its id."""
    spec = _LOADED.get(name)
    if spec is None:
        module = importlib.import_module(f"{_PACKAGE}.{name}")
        spec = getattr(module, "SPEC", None)
        if not isinstance(spec, ExperimentSpec):
            raise ConfigurationError(
                f"experiment module {module.__name__} does not export a "
                "SPEC (repro.harness.spec.ExperimentSpec)"
            )
        if spec.id != name:
            raise ConfigurationError(
                f"experiment module {module.__name__} declares id "
                f"{spec.id!r}; its file name must equal its id"
            )
        _LOADED[name] = spec
    return spec


def all_specs() -> Dict[str, ExperimentSpec]:
    """Id -> spec for every experiment, in report order (``(spec.order,
    spec.id)``). Imports every experiment module."""
    if not _SPECS:
        specs = [_load(name) for name in experiment_names()]
        _SPECS.update(
            (spec.id, spec)
            for spec in sorted(specs, key=lambda s: (s.order, s.id))
        )
    return _SPECS


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Resolve an experiment id to its spec, importing only its module."""
    if experiment_id not in experiment_names():
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{experiment_names()}"
        )
    return _load(experiment_id)


def __getattr__(name: str):
    # ``EXPERIMENT_IDS``: the public list of experiment ids in report
    # order, built on first access (PEP 562) so importing the registry
    # imports no experiment module.
    if name == "EXPERIMENT_IDS":
        ids = list(all_specs())
        globals()[name] = ids
        return ids
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def unknown_experiments(experiment_ids: Iterable[str]) -> List[str]:
    """The ids in ``experiment_ids`` not present in the registry
    (order-preserving, deduplicated), found without importing any
    experiment module. The runner uses this to fail fast with a readable
    message instead of a traceback."""
    known = experiment_names()
    unknown: List[str] = []
    for experiment_id in experiment_ids:
        if experiment_id not in known and experiment_id not in unknown:
            unknown.append(experiment_id)
    return unknown


def get_experiment(experiment_id: str) -> Callable[..., ExperimentOutput]:
    """Resolve an experiment id to its ``run`` callable."""
    return get_spec(experiment_id).run


def run_experiment(experiment_id: str, **kwargs) -> ExperimentOutput:
    """Run one experiment by id."""
    return get_experiment(experiment_id)(**kwargs)
