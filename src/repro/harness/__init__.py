"""Experiment harness: one runnable target per paper artifact.

Every table and figure of the paper's evaluation maps to an experiment
module under :mod:`repro.harness.experiments` that exports a
declarative ``SPEC`` (:class:`repro.harness.spec.ExperimentSpec`):
id (``"table3"``, ``"fig8"``, ...), title, declared study needs, and
the analysis callable. :mod:`repro.harness.registry` discovers the
specs automatically; :mod:`repro.harness.plan` derives campaign preload
plans from the declared needs; :mod:`repro.harness.runner` executes
experiments and :mod:`repro.harness.export` serializes the resulting
:class:`~repro.harness.output.ExperimentOutput`.
"""

from repro.harness.output import ExperimentOutput, ExperimentTable
from repro.harness.registry import (
    all_specs,
    get_experiment,
    get_spec,
    run_experiment,
)
from repro.harness.spec import ExperimentSpec, StudyRequest


def __getattr__(name: str):
    # ``EXPERIMENT_IDS`` imports every experiment module; resolve it
    # only when asked for (PEP 562), like the registry does.
    if name == "EXPERIMENT_IDS":
        from repro.harness import registry

        return registry.EXPERIMENT_IDS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentOutput",
    "ExperimentSpec",
    "ExperimentTable",
    "StudyRequest",
    "all_specs",
    "get_experiment",
    "get_spec",
    "run_experiment",
]
