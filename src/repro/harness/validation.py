"""Shared request validation for every front end.

The runner, the orchestration-service CLI (``python -m repro.service``)
and the characterization API (``python -m repro.api``) all accept module
names, test types and experiment ids from the outside world. Each used
to carry its own ad-hoc checks; this module is the single source of
truth so the three surfaces reject the same inputs with the same
messages -- and the CLIs agree on exit code 2 for unknown ids
(``tests/api/test_cli.py`` pins the contract).

Everything raises :class:`~repro.errors.ConfigurationError`; HTTP
front ends map that to a 400 response, CLIs to exit code 2.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.study import TEST_TYPES
from repro.dram.profiles import MODULE_PROFILES
from repro.errors import ConfigurationError
from repro.harness.registry import experiment_names, unknown_experiments


def unknown_modules(modules: Sequence[str]) -> List[str]:
    """The subset of ``modules`` that are not Table 3 module names, in
    input order (deduplicated)."""
    seen = set()
    unknown = []
    for name in modules:
        if name not in MODULE_PROFILES and name not in seen:
            unknown.append(name)
            seen.add(name)
    return unknown


def validate_modules(modules: Sequence[str]) -> Tuple[str, ...]:
    """Check every name against the module catalog; returns the tuple."""
    unknown = unknown_modules(modules)
    if unknown:
        raise ConfigurationError(
            "unknown module id(s): " + ", ".join(unknown)
            + "; available: " + ", ".join(sorted(MODULE_PROFILES))
        )
    if not modules:
        raise ConfigurationError("modules must not be empty")
    return tuple(modules)


def validate_tests(tests: Sequence[str]) -> Tuple[str, ...]:
    """Check every test type against the study vocabulary."""
    unknown = [test for test in tests if test not in TEST_TYPES]
    if unknown:
        raise ConfigurationError(
            "unknown test type(s): " + ", ".join(sorted(set(unknown)))
            + "; available: " + ", ".join(TEST_TYPES)
        )
    if not tests:
        raise ConfigurationError("tests must not be empty")
    return tuple(tests)


def validate_program(name: Optional[str]) -> Optional[str]:
    """Check a DSL program name against the program registry.

    None (no program requested) passes through. The DSL is imported
    lazily: front ends that never see a ``--program`` should not pay
    the import.
    """
    if name is None:
        return None
    from repro.progdsl import is_known_program, program_names

    if not is_known_program(name):
        raise ConfigurationError(
            f"unknown program id(s): {name}"
            + "; available: " + ", ".join(program_names())
        )
    return name


def validate_experiments(ids: Sequence[str]) -> Tuple[str, ...]:
    """Check every experiment id against the registry.

    Ids are checked against the experiment package's module names, so
    validating (or rejecting) ids imports no experiment module; the
    known ids are listed by name, not in report order, for the same
    reason. The service CLI and the API server validate ids this way
    without importing any experiment.
    """
    unknown = unknown_experiments(ids)
    if unknown:
        raise ConfigurationError(
            "unknown experiment id(s): " + ", ".join(unknown)
            + "; known ids: " + ", ".join(experiment_names())
        )
    return tuple(ids)


def validate_subset(
    values: Sequence[str],
    allowed: Optional[Sequence[str]],
    what: str,
) -> Tuple[str, ...]:
    """Check ``values`` against an optional allowlist (API front ends
    restrict tenants to ``--modules`` / ``--experiments`` subsets)."""
    if allowed is not None:
        blocked = sorted(set(values) - set(allowed))
        if blocked:
            raise ConfigurationError(
                f"{what} not allowed by this server: "
                + ", ".join(blocked)
                + "; allowed: " + ", ".join(sorted(allowed))
            )
    return tuple(values)
