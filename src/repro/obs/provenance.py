"""Study provenance manifests.

A provenance block answers "what exactly produced this result file?":
the campaign request fingerprint, the seed, the code version, whether
the result came out of a cache or a fresh run, the wall clock it cost,
and a snapshot of the probe counters that were spent producing it.
The harness export path writes one into every study/result JSON; the
disk cache verifies the block round-trips.

Schema (``repro.obs/provenance/v1``) -- required keys::

    schema        str    the literal schema id
    fingerprint   str    campaign/experiment content fingerprint
    seed          int    root campaign seed
    code_version  str    package version, plus git commit when available
    cache         str    "hit" | "miss" | "off"
    wall_seconds  float  monotonic wall clock spent producing the result
    counters      dict   str -> number counter snapshot
    created       float  wall-clock timestamp (label only)

Optional keys (``tests``, ``modules``, ``scale``, anything extra) pass
through untouched -- including the engine name that older blocks still
carry. :func:`validate_provenance` enforces the schema;
``benchmarks/obs_smoke.py`` and the disk-cache tests run it on every
block they see.
"""

from __future__ import annotations

import os
import subprocess
from typing import Any, Dict, Mapping, Optional

from repro.errors import AnalysisError
from repro.obs import clock

#: The schema id every valid block carries.
PROVENANCE_SCHEMA = "repro.obs/provenance/v1"

#: Required keys and their accepted types.
_REQUIRED = {
    "schema": str,
    "fingerprint": str,
    "seed": int,
    "code_version": str,
    "cache": str,
    "wall_seconds": (int, float),
    "counters": dict,
    "created": (int, float),
}

_CACHE_STATES = ("hit", "miss", "off")

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """``repro-<version>[+g<commit>]``, resolved once per process.

    The git commit is best-effort: builds from a tarball (no ``.git``,
    no ``git`` binary) fall back to the package version alone, keeping
    the function dependency-free and offline-safe.
    """
    global _code_version_cache
    if _code_version_cache is None:
        from repro import __version__

        version = f"repro-{__version__}"
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5,
            )
            if commit.returncode == 0 and commit.stdout.strip():
                version += f"+g{commit.stdout.strip()}"
        except (OSError, subprocess.SubprocessError):
            pass
        _code_version_cache = version
    return _code_version_cache


def build_provenance(
    fingerprint: str,
    seed: int,
    cache: str,
    wall_seconds: float,
    counters: Mapping[str, Any],
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble a schema-valid provenance block.

    ``extra`` keys (``tests``, ``modules``, ``scale``, ...) are carried
    verbatim alongside the required fields.
    """
    block: Dict[str, Any] = {
        "schema": PROVENANCE_SCHEMA,
        "fingerprint": fingerprint,
        "seed": seed,
        "code_version": code_version(),
        "cache": cache,
        "wall_seconds": round(float(wall_seconds), 6),
        "counters": {
            str(name): value for name, value in sorted(counters.items())
        },
        "created": round(clock.wall(), 6),
    }
    block.update(extra)
    return validate_provenance(block)


def validate_provenance(block: Any) -> Dict[str, Any]:
    """Check a provenance block against the v1 schema.

    Returns the block on success; raises
    :class:`~repro.errors.AnalysisError` naming every violation
    otherwise.
    """
    problems = []
    if not isinstance(block, dict):
        raise AnalysisError(
            f"provenance block must be a dict, got {type(block).__name__}"
        )
    for key, types in _REQUIRED.items():
        if key not in block:
            problems.append(f"missing key {key!r}")
        elif not isinstance(block[key], types) or isinstance(
            block[key], bool
        ):
            problems.append(
                f"key {key!r} has type {type(block[key]).__name__}"
            )
    if not problems:
        if block["schema"] != PROVENANCE_SCHEMA:
            problems.append(
                f"schema is {block['schema']!r}, "
                f"expected {PROVENANCE_SCHEMA!r}"
            )
        if block["cache"] not in _CACHE_STATES:
            problems.append(
                f"cache is {block['cache']!r}, expected one of "
                f"{_CACHE_STATES}"
            )
        for name, value in block["counters"].items():
            if not isinstance(name, str) or isinstance(value, bool) or (
                not isinstance(value, (int, float))
            ):
                problems.append(f"counter {name!r} is not numeric")
                break
        if block["wall_seconds"] < 0:
            problems.append("wall_seconds is negative")
    if problems:
        raise AnalysisError(
            "invalid provenance block: " + "; ".join(problems)
        )
    return block
