"""Harness lint: AST checks enforcing the repo's code contracts.

**Declarative-spec contract.** Experiment modules must declare their
campaign needs as ``StudyRequest`` entries on their ``SPEC`` and
receive the resolved studies from the harness -- calling
:func:`repro.harness.cache.get_study` directly would hide a need from
the preload planner (``runner --orchestrate``, alias ``--parallel``) and
from the drift-guard test. The checker walks the AST of every module
under ``repro/harness/experiments/`` and flags:

* ``from repro.harness.cache import get_study`` (any alias), and
* any call whose callee is named ``get_study`` (bare or attribute).

**Sanctioned-clock contract.** Code under ``repro/core`` and
``repro/service`` must take timestamps through :mod:`repro.obs.clock`
(``wall()`` / ``monotonic()``), never ``time.time()`` /
``time.monotonic()`` / ``time.perf_counter()`` directly: mixing wall
and monotonic sources is how duration bugs (NTP steps, DST) creep into
telemetry and profiles. ``time.sleep`` is fine -- it is not a
timestamp. The checker flags both direct calls and ``from time
import time/monotonic/perf_counter``.

**Program-DSL contract.** Hammer schedules belong to the DRAM-program
DSL (:mod:`repro.progdsl`) or the :class:`~repro.softmc.program.
Program` builder macros -- never hand-rolled ACT loops. Outside
``repro/progdsl`` and ``repro/softmc`` the checker flags:

* any ``.act(...)`` call (raw ACT streams are the builders' job), and
* any ``for``/``while`` loop whose body both hammers
  (``.hammer``/``.hammer_doublesided``) and refreshes (``.ref``) --
  the ad-hoc burst-schedule shape; use a registered DSL program or
  ``Program.hammer_rounds`` instead (see docs/PROGRAMS.md).

**One-pool contract.** Worker processes start only in the campaign
:class:`~repro.service.pool.WorkerPool` (``repro/service/pool.py``),
the one reaper of hung units. Elsewhere the checker flags any use of
``multiprocessing``, ``ProcessPoolExecutor`` and ``os.fork``.

Run via ``make lint`` or ``python -m repro.harness.lint``; exits
non-zero when a violation is found.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import List, Optional, Tuple

#: (path, line, message) triple.
Violation = Tuple[str, int, str]

#: ``time`` module attributes that read a clock (``sleep`` is allowed).
_CLOCK_ATTRS = ("time", "monotonic", "perf_counter", "perf_counter_ns",
                "monotonic_ns", "time_ns")


def _package_dir(dotted: str) -> str:
    import importlib

    module = importlib.import_module(dotted)
    return os.path.dirname(os.path.abspath(module.__file__))


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def check_source(path: str, source: str) -> List[Violation]:
    """Lint one experiment module's source text."""
    violations: List[Violation] = []
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.harness.cache" and any(
                alias.name == "get_study" for alias in node.names
            ):
                violations.append((
                    path, node.lineno,
                    "imports get_study from repro.harness.cache; declare "
                    "a StudyRequest on the module's SPEC instead",
                ))
        elif isinstance(node, ast.Call):
            if _callee_name(node.func) == "get_study":
                violations.append((
                    path, node.lineno,
                    "calls get_study directly; declare a StudyRequest on "
                    "the module's SPEC and use the studies argument",
                ))
    return violations


def check_timing_source(path: str, source: str) -> List[Violation]:
    """Flag direct ``time``-module clock reads (sanctioned-clock
    contract; see the module docstring)."""
    violations: List[Violation] = []
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                names = [
                    alias.name for alias in node.names
                    if alias.name in _CLOCK_ATTRS
                ]
                if names:
                    violations.append((
                        path, node.lineno,
                        f"imports {', '.join(names)} from time; use "
                        "repro.obs.clock.wall()/monotonic() instead",
                    ))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _CLOCK_ATTRS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                violations.append((
                    path, node.lineno,
                    f"calls time.{func.attr}() directly; use "
                    "repro.obs.clock.wall()/monotonic() instead",
                ))
    return violations


#: Attribute-call names that mean "this loop hammers".
_HAMMER_ATTRS = ("hammer", "hammer_doublesided")


def check_program_source(path: str, source: str) -> List[Violation]:
    """Flag hand-rolled hammer schedules (program-DSL contract; see
    the module docstring)."""
    violations: List[Violation] = []
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "act":
                violations.append((
                    path, node.lineno,
                    "builds a raw ACT stream with .act(); use the "
                    "Program builder macros or a registered DSL program "
                    "(repro.progdsl)",
                ))
        elif isinstance(node, (ast.For, ast.While)):
            hammers = refreshes = None
            for child in ast.walk(node):
                if not isinstance(child, ast.Call):
                    continue
                func = child.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in _HAMMER_ATTRS:
                    hammers = child.lineno
                elif func.attr == "ref":
                    refreshes = child.lineno
            if hammers is not None and refreshes is not None:
                violations.append((
                    path, node.lineno,
                    "hand-rolls a refresh-interleaved hammer schedule; "
                    "use a registered DSL program (repro.progdsl) or "
                    "Program.hammer_rounds",
                ))
    return violations


#: Dotted names that start worker processes.
_PROCESS_STARTERS = re.compile(
    r"^multiprocessing(\.|$)|(^|\.)ProcessPoolExecutor$|^os\.fork(pty)?$"
)


def check_process_source(path: str, source: str) -> List[Violation]:
    """Flag worker processes started outside the campaign pool
    (one-pool contract; see the module docstring)."""
    violations: List[Violation] = []
    for node in ast.walk(ast.parse(source, filename=path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
        else:
            continue
        found = next(filter(_PROCESS_STARTERS.search, names), None)
        if found:
            violations.append((
                path, node.lineno,
                f"starts worker processes ({found}) outside "
                "repro/service/pool.py; use a repro.service.WorkerPool",
            ))
    return violations


def _walk_python_files(directory: str):
    for root, _dirs, files in os.walk(directory):
        for filename in sorted(files):
            if filename.endswith(".py"):
                yield os.path.join(root, filename)


def _check_files(paths, checker) -> List[Violation]:
    violations: List[Violation] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            violations.extend(checker(path, handle.read()))
    return violations


def check_experiments(directory: Optional[str] = None) -> List[Violation]:
    """Lint every experiment module; returns the violations found."""
    directory = directory or _package_dir("repro.harness.experiments")
    return _check_files(
        [os.path.join(directory, filename)
         for filename in sorted(os.listdir(directory))
         if filename.endswith(".py")],
        check_source,
    )


def check_programs(directories: Optional[List[str]] = None) -> List[Violation]:
    """Lint the whole ``repro`` package -- minus the sanctioned
    ``progdsl`` and ``softmc`` zones -- for hand-rolled hammer
    schedules."""
    if directories is None:
        base = _package_dir("repro")
        sanctioned = {
            os.path.join(base, "progdsl"), os.path.join(base, "softmc"),
        }
        directories = [
            os.path.join(base, entry)
            for entry in sorted(os.listdir(base))
            if os.path.isdir(os.path.join(base, entry))
            and os.path.join(base, entry) not in sanctioned
        ]
    return _check_files(
        [path for directory in directories
         for path in _walk_python_files(directory)],
        check_program_source,
    )


def check_clocks(directories: Optional[List[str]] = None) -> List[Violation]:
    """Lint ``repro.core`` and ``repro.service`` (or explicit
    directories) for unsanctioned clock reads."""
    if directories is None:
        directories = [
            _package_dir("repro.core"), _package_dir("repro.service"),
        ]
    return _check_files(
        [path for directory in directories
         for path in _walk_python_files(directory)],
        check_timing_source,
    )


def check_processes(directory: Optional[str] = None) -> List[Violation]:
    """Lint the whole ``repro`` package (or ``directory``) for worker
    processes started anywhere but ``service/pool.py``."""
    directory = directory or _package_dir("repro")
    sanctioned = os.path.join(directory, "service", "pool.py")
    return _check_files(
        [path for path in _walk_python_files(directory)
         if path != sanctioned],
        check_process_source,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    directory = argv[0] if argv else None
    violations = check_experiments(directory)
    if directory is None:
        violations += check_clocks() + check_programs() + check_processes()
    for path, line, message in violations:
        print(f"{path}:{line}: {message}", file=sys.stderr)
    if violations:
        print(
            f"harness lint: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print("harness lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
