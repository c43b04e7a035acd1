"""Study cache: in-process memoization plus a persistent disk layer.

Several figures share one underlying campaign (Figures 3-6 all consume
the RowHammer study; Figures 10-11 the retention study). Experiments
fetch studies through this cache so that running ``fig3`` and ``fig5``
in one process performs the campaign once. Keys include the scale, the
seed and the (order-normalized) module tuple, so differently-scoped
runs never collide.

On top of the in-process dictionary sits an optional disk layer: when a
cache directory is configured (:func:`set_study_cache_dir` or the
``REPRO_STUDY_CACHE_DIR`` environment variable), completed campaigns
are serialized through :mod:`repro.core.serialization` under a content
fingerprint of ``(schema, tests, modules, scale, seed, program)``, and
later runner or benchmark invocations -- including across processes --
load them instead of recomputing. The library default is *off* (imports have
no filesystem side effects); the runner enables it by default and
exposes ``--no-cache`` / ``--cache-dir``.

The disk layer is a content-addressed :class:`~repro.harness.store.
StudyStore` -- the same store the characterization API serves
``GET /v1/studies/<fingerprint>`` from. Concurrent jobs writing one
fingerprint serialize on a per-fingerprint lockfile and publish with an
atomic rename, so a reader (or a racing writer) never observes a torn
entry; see :mod:`repro.harness.store` for the guarantees.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scale import StudyScale
from repro.core.serialization import SCHEMA_VERSION, _scale_to_dict
from repro.core.study import CharacterizationStudy, StudyResult
from repro.harness.store import StudyStore
from repro.obs import build_provenance, clock
from repro.obs.metrics import REGISTRY

#: Default module subset used by the benchmark harness: two per vendor,
#: chosen to cover the paper's interesting behaviours (strong V_PP
#: responders B3/C5, reversal module B9, tRCD offenders A0/B2, the
#: near-insensitive A4).
BENCH_MODULES = ("A0", "A4", "B3", "B9", "C5", "C9")

#: Environment variable configuring the disk cache directory.
CACHE_DIR_ENV_VAR = "REPRO_STUDY_CACHE_DIR"

#: Directory the runner uses when caching is on but no dir was given.
DEFAULT_CACHE_DIR = ".study-cache"

_CACHE: Dict[Tuple, StudyResult] = {}

_UNSET = object()
_disk_dir = _UNSET


def _key(tests, modules, scale, seed, program=None) -> Tuple:
    # Both tuples are order-normalized: ("A0", "B3") and ("B3", "A0")
    # request the same campaign. The probe engine does not participate:
    # the kernel and the oracle produce the same study.
    return (
        tuple(sorted(tests)), tuple(sorted(modules)), scale, seed,
        _program_key(program),
    )


def _program_key(program):
    """Structural cache identity of a DSL program selection.

    None for the default (no program, or one structurally identical to
    the paper's schedules) -- so default-program requests share cache
    entries, and fingerprints, with pre-DSL ones byte-for-byte.
    Non-default programs key on their name-normalized schedule, so a
    renamed-but-identical program reuses the same campaign.
    """
    from repro.progdsl import compile_program

    compiled = compile_program(program)
    if compiled is None or compiled.is_default:
        return None
    return compiled.spec.schedule_key()


# -- disk layer -------------------------------------------------------------------


def study_cache_dir() -> Optional[str]:
    """The active disk-cache directory, or None when disabled.

    An explicit :func:`set_study_cache_dir` wins; otherwise the
    ``REPRO_STUDY_CACHE_DIR`` environment variable applies.
    """
    if _disk_dir is not _UNSET:
        return _disk_dir
    return os.environ.get(CACHE_DIR_ENV_VAR) or None


def set_study_cache_dir(path: Optional[str]):
    """Set (or, with None, disable) the disk cache; returns the previous
    setting so callers can restore it."""
    global _disk_dir
    previous = _disk_dir
    _disk_dir = path
    return None if previous is _UNSET else previous


def study_fingerprint(
    tests: Sequence[str],
    modules: Sequence[str],
    scale: StudyScale,
    seed: int,
    program: str = None,
) -> str:
    """Content fingerprint of a campaign request.

    Hashes the serialization schema version together with the normalized
    request, so cache entries are automatically invalidated when the
    request or the on-disk format changes. The probe engine is not part
    of the request: both engines produce the same study. A non-default
    DSL ``program`` contributes its canonicalized (name-normalized)
    schedule; the default program leaves the payload -- and so the
    fingerprint -- byte-identical to a pre-DSL request.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tests": sorted(tests),
        "modules": sorted(modules),
        "scale": _scale_to_dict(scale),
        "seed": seed,
    }
    program_key = _program_key(program)
    if program_key is not None:
        payload["program"] = program_key
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def study_store(directory: Optional[str] = None) -> Optional[StudyStore]:
    """The content-addressed store over the active cache directory.

    With an explicit ``directory`` the store is built over it
    regardless of the cache configuration (the API server points this
    at its own ``--store-dir``); otherwise the active cache directory
    applies, and ``None`` is returned when the disk layer is off.
    """
    directory = directory or study_cache_dir()
    if not directory:
        return None
    return StudyStore(directory)


def _cache_event(kind: str) -> None:
    REGISTRY.counter(
        f"repro_study_cache_{kind}_total",
        f"study-cache {kind.replace('_', ' ')}",
    ).inc()


def attach_provenance(
    study: StudyResult,
    tests: Sequence[str],
    modules: Sequence[str],
    seed: int,
    wall_seconds: float,
    counters: Optional[Dict[str, float]] = None,
    program: Optional[str] = None,
) -> None:
    """Stamp a freshly produced study with its provenance block.

    Called by the two producers -- :func:`get_study`'s miss path and
    :meth:`repro.service.orchestrator.CampaignService.run` -- so every
    stored study carries the same schema-valid block (fingerprinted by
    the study *request*), with ``counters`` the work spent producing
    it. Without ``counters`` the block records process totals.
    """
    study.provenance = build_provenance(
        fingerprint=study_fingerprint(
            tests, modules, study.scale, seed, program=program
        ),
        seed=seed,
        cache="miss",
        wall_seconds=wall_seconds,
        counters=(
            counters if counters is not None else REGISTRY.counter_values()
        ),
        tests=sorted(tests),
        modules=sorted(modules),
    )


# -- lookup -----------------------------------------------------------------------


def _disk_store(use_disk: bool = None) -> Optional[StudyStore]:
    """The disk layer :func:`get_study` reads and writes: none when
    ``use_disk`` is False, else the active cache directory's store --
    or, with ``use_disk=True`` and no active directory, the
    :data:`DEFAULT_CACHE_DIR` one."""
    if use_disk is False:
        return None
    store = study_store()
    if store is None and use_disk:
        store = study_store(DEFAULT_CACHE_DIR)
    return store


def cached_study(
    tests: Sequence[str],
    modules: Sequence[str],
    scale: StudyScale,
    seed: int = 0,
    program: str = None,
    use_disk: bool = None,
) -> Optional[StudyResult]:
    """The study a campaign request already has in either cache layer
    (a disk hit is promoted into memory), or None -- counted as a
    miss. ``use_disk`` is :func:`get_study`'s. The pre-run
    (:meth:`repro.harness.plan.PreloadPlan.orchestrate`) uses it to skip
    campaigns that need no run."""
    key = _key(tests, modules, scale, seed, program)
    if key in _CACHE:
        _cache_event("memory_hits")
        return _CACHE[key]
    store = _disk_store(use_disk)
    if store is not None:
        study = store.load(
            study_fingerprint(tests, modules, scale, seed, program=program)
        )
        if study is not None:
            _cache_event("disk_hits")
            _CACHE[key] = study
            return study
    _cache_event("misses")
    return None


def get_study(
    tests: Sequence[str],
    modules: Sequence[str] = BENCH_MODULES,
    scale: StudyScale = None,
    seed: int = 0,
    use_disk: bool = None,
    program: str = None,
) -> StudyResult:
    """Run (or reuse) a campaign for the given tests and modules.

    Lookup order: in-process cache, then the disk cache (when a cache
    directory is active), then a fresh run -- which is written through
    to both layers. ``use_disk=False`` bypasses the disk layer for this
    call; ``use_disk=True`` forces it on, defaulting the directory to
    :data:`DEFAULT_CACHE_DIR` when none is configured. ``program``
    selects a registered DSL program for the campaign's probe schedules
    (None, and any structurally-default program, is the pre-DSL path
    and shares its cache entries).
    """
    scale = scale or StudyScale.bench()
    cached = cached_study(tests, modules, scale, seed, program, use_disk)
    if cached is not None:
        return cached
    baseline = REGISTRY.counter_values()
    started = clock.monotonic()
    study = CharacterizationStudy(scale=scale, seed=seed, program=program)
    result = study.run(modules=modules, tests=tuple(tests))
    wall = clock.monotonic() - started
    spent = {
        name: value - baseline.get(name, 0.0)
        for name, value in REGISTRY.counter_values().items()
        if value - baseline.get(name, 0.0)
    }
    attach_provenance(
        result, tests, modules, seed, wall, counters=spent, program=program
    )
    _CACHE[_key(tests, modules, scale, seed, program)] = result
    store = _disk_store(use_disk)
    if store is not None:
        store.store(
            result,
            study_fingerprint(tests, modules, scale, seed, program=program),
        )
    return result


def preload_study(
    study: StudyResult,
    tests: Sequence[str],
    modules: Sequence[str],
    seed: int = 0,
    write_disk: bool = True,
    wall_seconds: float = 0.0,
    program: str = None,
) -> None:
    """Install an externally-produced study (orchestrated campaign,
    loaded from disk) so subsequent ``get_study`` calls reuse it.

    Orchestrated studies arrive stamped by the campaign service; one
    arriving without a provenance block is stamped here (with
    ``wall_seconds`` as its cost), so every disk-cache entry carries
    provenance.
    """
    if study.provenance is None:
        attach_provenance(
            study, tests, modules, seed, wall_seconds, program=program
        )
    _CACHE[_key(tests, modules, study.scale, seed, program)] = study
    if write_disk:
        store = study_store()
        if store is not None:
            store.store(
                study,
                study_fingerprint(
                    tests, modules, study.scale, seed, program=program
                ),
            )


# -- invalidation -----------------------------------------------------------------


def invalidate_study(
    tests: Sequence[str],
    modules: Sequence[str] = BENCH_MODULES,
    scale: StudyScale = None,
    seed: int = 0,
    program: str = None,
) -> bool:
    """Drop one campaign from both cache layers. Returns True when
    anything was actually removed."""
    scale = scale or StudyScale.bench()
    removed = _CACHE.pop(
        _key(tests, modules, scale, seed, program), None
    ) is not None
    store = study_store()
    if store is not None:
        removed = store.delete(
            study_fingerprint(tests, modules, scale, seed, program=program)
        ) or removed
    return removed


def clear_cache() -> None:
    """Drop all in-process cached studies (tests use this for
    isolation). The disk layer is left untouched; see
    :func:`clear_disk_cache`."""
    _CACHE.clear()


def clear_disk_cache() -> List[str]:
    """Delete every entry in the active disk-cache directory; returns
    the removed paths."""
    store = study_store()
    if store is None:
        return []
    return store.clear()
