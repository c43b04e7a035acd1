#!/usr/bin/env python3
"""DRAM-program DSL smoke check (``make dsl-smoke``).

Compiles and runs every registered DSL program on a small module and
asserts the contracts ``docs/PROGRAMS.md`` documents:

* every registered spec round-trips through its canonical text
  (``parse(canonical(spec))`` is the identical spec) and unrolls to the
  same burst schedule afterwards;
* every hammer program executes bit-identically on the fused kernel
  and the command oracle -- same BER ladder, same any-flip verdicts;
* every retention program drives ``characterize_row`` end to end;
* fingerprints are stable: a default-schedule program leaves the
  campaign fingerprint byte-identical to a pre-DSL request, a
  non-default program changes it, and a renamed-but-identical program
  shares it (structural identity);
* compile/fallback routing is visible in the metrics registry.

Exits non-zero on any violation.

Run:  PYTHONPATH=src python benchmarks/dsl_smoke.py
"""

from __future__ import annotations

import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # launched from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.core.context import TestContext
from repro.core.retention import characterize_row
from repro.core.probe import open_hammer_session
from repro.core.scale import StudyScale
from repro.dram import constants
from repro.dram.patterns import STANDARD_PATTERNS
from repro.harness.cache import study_fingerprint
from repro.obs.metrics import REGISTRY
from repro.progdsl import (
    compile_program,
    get_program,
    parse_program,
    program_names,
    unroll_schedule,
)
from repro.softmc.infrastructure import TestInfrastructure

MODULE = "C5"
SEED = 11
ENGINES = ("command", "fused")
HAMMER_COUNTS = (60_000, 120_000)
VICTIM_ROW = 64


def _context(scale: StudyScale, kind: str, program) -> TestContext:
    infra = TestInfrastructure.for_module(
        MODULE, geometry=scale.geometry, seed=SEED
    )
    return TestContext(infra, scale, probe_engine=kind, program=program)


def check_roundtrip(name: str) -> None:
    spec = get_program(name)
    parsed = parse_program(spec.canonical())
    assert parsed == spec, f"{name}: canonical text does not round-trip"
    if spec.kind == "hammer":
        for hc in (1, 31, 300_000):
            assert unroll_schedule(parsed, hc) == unroll_schedule(spec, hc), (
                f"{name}: round-tripped spec unrolls differently at {hc}"
            )


def check_hammer_program(name: str, scale: StudyScale) -> None:
    compiled = compile_program(name)
    pattern = STANDARD_PATTERNS[0]
    ladders = {}
    for kind in ENGINES:
        ctx = _context(scale, kind, compiled)
        with open_hammer_session(ctx, VICTIM_ROW, pattern) as probe:
            ladders[kind] = (
                [probe.ber(hc) for hc in HAMMER_COUNTS],
                probe.any_flip(90_000),
            )
    reference = ladders["command"]
    for kind in ENGINES[1:]:
        assert ladders[kind] == reference, (
            f"{name}: {kind} diverges from command: "
            f"{ladders[kind]} != {reference}"
        )


def check_retention_program(name: str, scale: StudyScale) -> None:
    compiled = compile_program(name)
    pattern = STANDARD_PATTERNS[0]
    results = {}
    for kind in ENGINES:
        ctx = _context(scale, kind, compiled)
        records = characterize_row(
            ctx, VICTIM_ROW, pattern, constants.NOMINAL_VPP
        )
        results[kind] = [(r.trefw, r.ber) for r in records]
    assert results["command"] == results["fused"], (
        f"{name}: retention diverges across engines: {results}"
    )
    assert results["command"], f"{name}: retention produced no records"


def check_fingerprints(scale: StudyScale) -> None:
    base = study_fingerprint(("rowhammer",), (MODULE,), scale, SEED)
    default = study_fingerprint(
        ("rowhammer",), (MODULE,), scale, SEED, program="double-sided"
    )
    assert default == base, (
        "default-schedule program must not move the study fingerprint"
    )
    quad = study_fingerprint(
        ("rowhammer",), (MODULE,), scale, SEED, program="quad-sided"
    )
    assert quad != base, (
        "non-default program must move the study fingerprint"
    )
    renamed = get_program("quad-sided").renamed("quad-sided-alias")
    alias = study_fingerprint(
        ("rowhammer",), (MODULE,), scale, SEED, program=renamed
    )
    assert alias == quad, (
        "renamed-but-identical program must share the fingerprint"
    )
    again = study_fingerprint(
        ("rowhammer",), (MODULE,), scale, SEED, program="quad-sided"
    )
    assert again == quad, "fingerprint must be stable across compiles"


def main() -> int:
    scale = StudyScale.tiny()
    names = program_names()
    assert names, "no registered programs"
    for name in names:
        check_roundtrip(name)
        spec = get_program(name)
        if spec.kind == "hammer":
            check_hammer_program(name, scale)
        else:
            check_retention_program(name, scale)
        print(f"dsl-smoke: {name} ({spec.kind}): ok")
    check_fingerprints(scale)
    print("dsl-smoke: fingerprints: ok")
    compiles = REGISTRY.counter_values().get(
        "repro_program_compiles_total", 0
    )
    fallbacks = REGISTRY.counter_values().get(
        "repro_program_fallbacks_total", 0
    )
    assert compiles > 0, "compile counter never incremented"
    assert fallbacks > 0, "fallback counter never incremented"
    print(
        f"dsl-smoke: ok ({len(names)} programs, "
        f"{compiles:.0f} compiles, {fallbacks:.0f} fallback sessions)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
