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

**Reachable-source contract.** ``src/`` holds what the system runs.
Every top-level function, class and UPPER_CASE constant, and every
non-dunder method, of the ``repro`` package must be named by some
other ``src/`` code: a name, an attribute, or an identifier-shaped
string (a ``getattr`` key, a registry entry) outside ``__all__``.
Imports alone do not count, and neither do names in tests, benchmarks
or ``perfbench/`` -- that is the point of the rule. A definition that
only tests use belongs under ``tests/`` (an oracle) or nowhere. Public
surface that only docs, examples, benchmarks or ``perfbench/`` call,
and test-inspection seams, are listed in
:data:`REACHABILITY_ALLOWLIST` with a reason. An entry whose
definition is gone, or is now named from ``src/``, is itself a
violation, so the list cannot rot. The check is name-based: a method
counts as used when any ``src/`` code names an attribute of that name.

Run via ``make lint`` or ``python -m repro.harness.lint``; exits
non-zero when a violation is found.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

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


#: Allowlist reason of test-only code whose deletion would also retire
#: the unit tests that are its only users (ROADMAP.md, item 10).
_DEFERRED = "test-only; deleting it retires its unit tests (deferred)"

#: Definitions no other ``src/`` code names that stay in ``src/``
#: anyway (reachable-source contract): qualified name -> reason.
REACHABILITY_ALLOWLIST: Dict[str, str] = {
    # Public surface: docs, examples, benchmarks or perfbench call it.
    "repro.api.client.ApiClient": "the HTTP client (docs/API.md)",
    "repro.api.client.ApiClient.submit_job": "ApiClient surface",
    "repro.api.client.ApiClient.list_jobs": "ApiClient surface",
    "repro.api.client.ApiClient.cancel_job": "ApiClient surface",
    "repro.api.client.ApiClient.wait_job": "ApiClient surface",
    "repro.api.client.ApiClient.health": "ApiClient surface",
    "repro.api.client.ApiClient.metrics_text": "ApiClient surface",
    "repro.api.server.BackgroundServer":
        "in-process server for scripts, benchmarks and perfbench",
    "repro.core.probe.__getattr__":
        "lazy BatchProbeEngine alias that perfbench/ledger.py wraps",
    "repro.core.study.StudyResult.by_vendor":
        "result API of StudyResult, exported from repro",
    "repro.dram.ecc.SecdedCodec.bits_from_int":
        "examples/ecc_selective_refresh.py encodes with it",
    "repro.dram.module.DramModule.spd":
        "module identity of DramModule, exported from repro",
    "repro.dram.profiles.build_module": "exported in repro.__all__",
    "repro.harness.__getattr__": "lazy EXPERIMENT_IDS (PEP 562)",
    "repro.harness.registry.__getattr__":
        "lazy EXPERIMENT_IDS (PEP 562); examples/full_paper_run.py",
    "repro.harness.cache.clear_cache":
        "perfbench, benchmarks and test fixtures reset the memory layer",
    "repro.harness.cache.clear_disk_cache":
        "README's way to empty the disk cache",
    "repro.harness.store.StudyStore.load_dict":
        "a client's parse of a fetched study; perfbench times it",
    "repro.progdsl.parse.parse_program":
        "DSL text front end (docs/PROGRAMS.md); dsl-smoke round-trips it",
    "repro.progdsl.spec.ProgramSpec.renamed":
        "dsl-smoke checks renamed programs share a fingerprint",
    "repro.progdsl.unroll.unroll_schedule":
        "dsl-smoke checks schedules against it",
    "repro.service.faults.FaultPlan.script":
        "scripted fault plans (docs/SERVICE.md)",
    "repro.service.telemetry.read_events":
        "benchmarks/service_smoke.py reads the events log",
    "repro.system.trace.attack_feasibility":
        "examples/system_level_attack.py",
    "repro.system.trace.rowhammer_trace": "examples/system_level_attack.py",
    "repro.units.kohm": "unit helper; the unit set is kept whole",
    "repro.units.mv": "unit helper; the unit set is kept whole",
    "repro.units.pf": "unit helper; the unit set is kept whole",
    "repro.units.us": "unit helper; the unit set is kept whole",
    # Test seams: tests drive or inspect the device model through them.
    "repro.dram.bank.Bank.materialized_rows":
        "test-inspection seam over private bank state",
    "repro.dram.bank.Bank.probe_state":
        "test-inspection seam over private bank state",
    "repro.dram.bank.Bank.row_hammer_damage":
        "test-inspection seam over private bank state",
    "repro.dram.trr.TargetRowRefresh.tracked_rows":
        "test-inspection seam over the TRR tracker",
    "repro.obs.events.subscribers":
        "tests/obs/conftest.py checks no subscriber leaks",
    "repro.softmc.program.Program.wr":
        "WR builder macro; tests run WR programs on the host",
    "repro.system.trace.random_trace":
        "workload generator; the replay tests drive the controller with it",
    "repro.system.trace.sequential_trace":
        "workload generator; the replay tests drive the controller with it",
    # Test-only, deletion deferred.
    "repro.dram.chip.Chip.slice_row": _DEFERRED,
    "repro.dram.patterns.pattern_by_name": _DEFERRED,
    "repro.dram.physics.activation.ActivationModel.trcd_ratio": _DEFERRED,
    "repro.dram.physics.restoration.RestorationModel.restoration_latency":
        _DEFERRED,
    "repro.dram.physics.retention_model.RetentionModel.retention_time":
        _DEFERRED,
    "repro.dram.physics.transistor.AccessTransistorModel.conducts":
        _DEFERRED,
    "repro.dram.timing.TimingParameters.with_trefw": _DEFERRED,
    "repro.harness.figures.sparkline": _DEFERRED,
    "repro.softmc.isa.Instruction.produces_data": _DEFERRED,
    "repro.softmc.power_supply.PowerSupply.disable_output": _DEFERRED,
    "repro.softmc.power_supply.PowerSupply.enable_output": _DEFERRED,
    "repro.softmc.power_supply.PowerSupply.setpoint": _DEFERRED,
    "repro.system.defenses.BlockHammerThrottle.throttled_fraction":
        _DEFERRED,
    "repro.system.defenses.ParaDefense.bandwidth_overhead": _DEFERRED,
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _constant_names(node: ast.stmt):
    """The UPPER_CASE names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        for name in (target, *getattr(target, "elts", ())):
            if isinstance(name, ast.Name) and name.id.isupper():
                yield name.id


def _definitions(tree: ast.Module):
    """(qualified suffix, name, node) for every top-level function,
    class and UPPER_CASE constant, and every non-dunder method of a
    top-level class."""
    for node in tree.body:
        for name in _constant_names(node):
            yield name, name, node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                name = getattr(child, "name", "")
                if isinstance(child, _FUNCTIONS) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield f"{node.name}.{name}", name, child


def _references(tree: ast.Module):
    """(name, line) for everything ``tree`` names: loaded names and
    attributes, identifier-shaped strings outside ``__all__``, and the
    original name behind an ``import ... as`` alias."""
    exports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exports.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier() and id(node) not in exports
        ):
            yield node.value, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname and alias.asname != alias.name:
                    yield alias.name.rpartition(".")[2], node.lineno


def check_reachability(
    directory: Optional[str] = None,
    allowlist: Optional[Dict[str, str]] = None,
) -> List[Violation]:
    """Flag definitions of the package at ``directory`` (default: the
    ``repro`` package) that no other code of the package names, and
    stale ``allowlist`` entries (reachable-source contract; see the
    module docstring)."""
    directory = os.path.abspath(directory or _package_dir("repro"))
    allowlist = REACHABILITY_ALLOWLIST if allowlist is None else allowlist
    base = os.path.dirname(directory)
    # Pass 1: every file's definitions and references.
    definitions = []
    references = defaultdict(list)
    for path in _walk_python_files(directory):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        module = os.path.relpath(path, base)[:-len(".py")].replace(
            os.sep, "."
        ).removesuffix(".__init__")
        for suffix, name, node in _definitions(tree):
            definitions.append((
                f"{module}.{suffix}", name, path, node.lineno,
                node.end_lineno,
            ))
        for name, line in _references(tree):
            references[name].append((path, line))
    # Pass 2: a definition is used when something outside its own body
    # names it.
    violations: List[Violation] = []
    for qualified, name, path, first, last in definitions:
        used = any(
            ref_path != path or not first <= line <= last
            for ref_path, line in references[name]
        )
        if qualified in allowlist and used:
            violations.append((
                path, first,
                f"{qualified} is named from src/; drop its reachability "
                "allowlist entry",
            ))
        elif qualified not in allowlist and not used:
            violations.append((
                path, first,
                f"{qualified} is named by no other src/ code; delete it, "
                "move it under tests/, or allowlist it with a reason",
            ))
    defined = {qualified for qualified, *_ in definitions}
    for qualified in sorted(set(allowlist) - defined):
        violations.append((
            directory, 0,
            f"stale reachability allowlist entry {qualified}: no such "
            "definition",
        ))
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    directory = argv[0] if argv else None
    violations = check_experiments(directory)
    if directory is None:
        violations += (
            check_clocks() + check_programs() + check_processes()
            + check_reachability()
        )
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
