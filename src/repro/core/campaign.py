"""Parallel campaign execution.

Modules are characterized independently (separate simulated devices,
separate RNG namespaces), so a multi-module campaign parallelizes
trivially across processes. :func:`run_parallel` fans work out over a
process pool and merges the per-worker results into one
:class:`~repro.core.study.StudyResult`.

Two granularities are supported:

* ``"module"`` -- one work unit per module (the original scheme). A
  6-module bench run can use at most 6 cores.
* ``"chunk"`` (default) -- one work unit per *(module, row-chunk)*. The
  sampled rows of each module are partitioned into groups that are
  independent under the device model's coupling rules (see
  :func:`plan_row_chunks`), so a 6-module run saturates far more than
  6 cores and even a single-module campaign parallelizes.

Determinism: all device randomness is keyed by ``(seed, module, row)``
or by per-row restore-session counters, and chunk boundaries are placed
so no probe in one chunk touches the session state of a row in another
(double-sided probes reach one physical row beyond the victim). The
merge step reassembles records in the exact order a sequential
``run_module`` emits them, so chunked, module-parallel and sequential
campaigns agree record-for-record (asserted by the differential tests
in ``tests/core/test_serialization_campaign.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.results import ModuleResult
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.study import TEST_TYPES, CharacterizationStudy, StudyResult
from repro.dram.calibration import calibrate
from repro.dram.mapping import RowMapping, make_mapping
from repro.dram.profiles import module_profile
from repro.errors import AnalysisError, ConfigurationError
from repro.obs import events as obs_events
from repro.obs.metrics import REGISTRY, snapshot_delta
from repro.obs.trace import TRACER

#: Minimum physical-address separation between rows of different chunks.
#: A double-sided probe of victim v restores rows v-1 .. v+1, so probes
#: of victims three or more physical rows apart share no session state;
#: 4 adds one row of slack on top of that bound.
CHUNK_GAP = 4


def module_mapping(name: str, scale: StudyScale) -> RowMapping:
    """The logical->physical row mapping a module will be built with
    (needed to plan chunk boundaries without building the module)."""
    calibration = calibrate(module_profile(name), scale.geometry)
    return make_mapping(
        calibration.vendor.mapping_kind, calibration.geometry.rows_per_bank
    )


def plan_row_chunks(
    rows: Sequence[int], mapping: RowMapping, max_chunks: int,
    gap: int = CHUNK_GAP,
) -> List[List[int]]:
    """Partition sampled rows into independent, balanced chunks.

    Rows are grouped by physical adjacency: two rows closer than
    ``gap`` physical addresses (default :data:`CHUNK_GAP`, the
    double-sided bound; wider-reach DSL programs pass their own via
    :func:`repro.progdsl.program_chunk_gap`) must share a chunk (their
    probes couple through aggressor restore sessions). Groups are then
    packed, in physical order, into at most ``max_chunks`` chunks of
    roughly equal size. Each chunk lists its rows in ascending logical
    order -- the order the sequential study would visit them in.
    """
    if not rows:
        return []
    if max_chunks < 1:
        raise ConfigurationError(f"max_chunks must be >= 1: {max_chunks}")
    ordered = sorted(rows, key=mapping.to_physical)
    groups: List[List[int]] = [[ordered[0]]]
    for row in ordered[1:]:
        distance = mapping.to_physical(row) - mapping.to_physical(
            groups[-1][-1]
        )
        if distance >= gap:
            groups.append([row])
        else:
            groups[-1].append(row)
    # Pack contiguous groups into at most max_chunks balanced chunks.
    chunks: List[List[int]] = []
    remaining_rows = len(rows)
    remaining_slots = min(max_chunks, len(groups))
    current: List[int] = []
    for index, group in enumerate(groups):
        target = remaining_rows / remaining_slots
        if current and len(current) + len(group) / 2.0 > target and (
            remaining_slots > 1
        ):
            chunks.append(current)
            remaining_rows -= len(current)
            remaining_slots -= 1
            current = []
        current.extend(group)
    chunks.append(current)
    return [sorted(chunk) for chunk in chunks]


def _attach_state(handle):
    """Worker-side attach to the coordinator's shared device state.

    Returns None (fall back to private RNG derivation -- bit-identical,
    just slower) when no state was shared or the segment is gone, e.g.
    a resumed attempt after the owning coordinator died.
    """
    if handle is None:
        return None
    from repro.core.soa import attach_device_state

    try:
        return attach_device_state(handle)
    except (FileNotFoundError, OSError):  # pragma: no cover - rare race
        return None


def _build_shared_states(names, scale, seed) -> Dict[str, object]:
    """Coordinator-side: one shared-memory device-state block per
    module, covering the scale's full row sample (a superset of every
    chunk). Returns ``{}`` -- private derivation, bit-identical -- when
    shared memory is unavailable on the platform. The caller owns the
    returned states and must ``close(unlink=True)`` each in a finally.
    """
    from repro.core.soa import build_device_state

    states: Dict[str, object] = {}
    try:
        for name in names:
            states[name] = build_device_state(name, scale=scale, seed=seed)
            handle = states[name].handle
            obs_events.emit(
                "device_state_shared", module=name,
                bytes=states[name].nbytes,
                rows=len(handle.physical_rows), seed=handle.seed,
            )
    except OSError:  # pragma: no cover - no /dev/shm (platform quirk)
        _release_shared_states(states)
        return {}
    except BaseException:
        _release_shared_states(states)
        raise
    return states


def _release_shared_states(states: Dict[str, object]) -> None:
    for state in states.values():
        state.close(unlink=True)


def _run_one_module(args) -> tuple:
    """Worker: characterize one module (module-level entry point so the
    function pickles cleanly).

    Returns the metric delta the unit produced alongside the result:
    forked workers inherit the parent's registry state, so only the
    baseline-relative delta is safe for the coordinator to merge.
    """
    name, scale, seed, tests, probe_engine, program, state_handle = args
    state = _attach_state(state_handle)
    try:
        study = CharacterizationStudy(
            scale=scale, seed=seed, probe_engine=probe_engine,
            device_state=state, program=program,
        )
        baseline = REGISTRY.snapshot()
        module_result = study.run_module(name, tests=tests)
    finally:
        if state is not None:
            state.close()
    return name, module_result, snapshot_delta(baseline, REGISTRY.snapshot())


def _run_one_chunk(args) -> tuple:
    """Worker: characterize one (module, row-chunk) unit.

    Like :func:`_run_one_module`, ships the unit's metric delta back to
    the coordinator for :meth:`MetricsRegistry.merge_snapshot`.
    """
    name, scale, seed, tests, rows, chunk_index, probe_engine, program, \
        state_handle = args
    state = _attach_state(state_handle)
    try:
        study = CharacterizationStudy(
            scale=scale, seed=seed, probe_engine=probe_engine,
            device_state=state, program=program,
        )
        baseline = REGISTRY.snapshot()
        module_result = study.run_module(name, tests=tests, rows=rows)
    finally:
        if state is not None:
            state.close()
    return (
        name, chunk_index, module_result,
        snapshot_delta(baseline, REGISTRY.snapshot()),
    )


def merge_module_chunks(
    name: str, parts: List[ModuleResult], scale: StudyScale
) -> ModuleResult:
    """Reassemble chunk results in sequential record order.

    ``parts`` must be the results of disjoint row chunks of one module
    (ordered arbitrarily); the merge re-emits records exactly as a
    sequential :meth:`CharacterizationStudy.run_module` over the union
    of the rows would. Shared by :func:`run_parallel` and the
    orchestration service (:mod:`repro.service`).
    """
    reference = parts[0]
    for part in parts[1:]:
        if (
            part.vppmin != reference.vppmin
            or part.vpp_levels != reference.vpp_levels
        ):
            raise AnalysisError(
                f"module {name}: chunk workers disagree on the V_PP grid"
            )
    merged = ModuleResult(
        module=name,
        vendor=reference.vendor,
        vppmin=reference.vppmin,
        vpp_levels=list(reference.vpp_levels),
    )
    rowhammer: Dict[Tuple[float, int], object] = {}
    trcd: Dict[Tuple[float, int], object] = {}
    retention: Dict[Tuple[float, int], list] = {}
    for part in parts:
        for record in part.rowhammer:
            rowhammer[(record.vpp, record.row)] = record
        for record in part.trcd:
            trcd[(record.vpp, record.row)] = record
        for record in part.retention:
            retention.setdefault((record.vpp, record.row), []).append(record)
    all_rows = sorted(
        {key[1] for key in rowhammer}
        | {key[1] for key in trcd}
        | {key[1] for key in retention}
    )
    for vpp in merged.vpp_levels:
        for row in all_rows:
            if (vpp, row) in rowhammer:
                merged.rowhammer.append(rowhammer[(vpp, row)])
            if (vpp, row) in trcd:
                merged.trcd.append(trcd[(vpp, row)])
    for vpp in merged.vpp_levels:
        for row in all_rows:
            merged.retention.extend(retention.get((vpp, row), []))
    return merged


def run_parallel(
    modules: Iterable[str],
    scale: StudyScale = None,
    seed: int = 0,
    tests: Sequence[str] = TEST_TYPES,
    max_workers: Optional[int] = None,
    granularity: str = "chunk",
    chunks_per_module: int = None,
    probe_engine: str = None,
    shared_state: bool = True,
    program: str = None,
) -> StudyResult:
    """Run a campaign over a process pool.

    Equivalent to ``CharacterizationStudy(scale, seed).run(modules,
    tests)`` -- see the module docstring for why determinism is
    preserved -- but wall-clock scales with core count.

    Parameters
    ----------
    granularity:
        ``"chunk"`` (default) fans out (module, row-chunk) units;
        ``"module"`` fans out whole modules.
    chunks_per_module:
        Target chunk count per module at chunk granularity; defaults to
        the scale's ``row_chunks`` (the sample is naturally split into
        that many disjoint runs).
    probe_engine:
        Probe-engine override forwarded to every worker's
        :class:`CharacterizationStudy` (``"fused"`` / ``"command"``);
        None defers to the default selection policy.
    shared_state:
        Generate each module's per-cell parameter planes once, in this
        process, into shared memory (:mod:`repro.core.soa`) and have
        pool workers attach them zero-copy instead of re-deriving the
        device model per process (default True; results are
        bit-identical either way). Ignored on the inline fast paths,
        and silently disabled where shared memory is unavailable.
    program:
        Optional registered DSL program name (:mod:`repro.progdsl`)
        forwarded to every worker's study; chunk boundaries widen to
        the program's coupling reach so chunked and sequential runs
        stay record-identical. None runs the paper's schedules.
    """
    from repro.progdsl import compile_program, program_chunk_gap

    compile_program(program)  # validate the name before fanning out
    scale = scale or StudyScale.bench()
    names = list(modules)
    if granularity not in ("chunk", "module"):
        raise ConfigurationError(
            f"unknown granularity {granularity!r}; expected 'chunk' or "
            f"'module'"
        )
    result = StudyResult(scale=scale, seed=seed)
    if len(names) <= 1 and granularity == "module" or max_workers == 1:
        # Inline path: run_module mutates this process's registry
        # directly, so no snapshot merging (it would double count).
        study = CharacterizationStudy(
            scale=scale, seed=seed, probe_engine=probe_engine,
            program=program,
        )
        for name in names:
            result.modules[name] = study.run_module(name, tests=tests)
        return result

    if granularity == "module":
        states = (
            _build_shared_states(names, scale, seed) if shared_state else {}
        )
        try:
            jobs = [
                (
                    name, scale, seed, tuple(tests), probe_engine, program,
                    states[name].handle if name in states else None,
                )
                for name in names
            ]
            obs_events.emit(
                "campaign_started", units=len(jobs), seed=seed,
                mode="parallel-module",
            )
            collected: Dict[str, object] = {}
            with TRACER.span(
                "campaign", units=len(jobs), seed=seed,
                mode="parallel-module",
            ), ProcessPoolExecutor(max_workers=max_workers) as pool:
                for name, module_result, delta in pool.map(
                    _run_one_module, jobs
                ):
                    collected[name] = module_result
                    REGISTRY.merge_snapshot(delta)
                    obs_events.emit("unit_finished", unit=name)
        finally:
            _release_shared_states(states)
        for name in names:
            result.modules[name] = collected[name]
        obs_events.emit("campaign_finished", units=len(jobs))
        return result

    chunk_jobs = []
    for name in names:
        mapping = module_mapping(name, scale)
        rows = sample_rows(
            mapping.num_rows, scale.rows_per_module, scale.row_chunks
        )
        chunks = plan_row_chunks(
            rows, mapping, chunks_per_module or scale.row_chunks,
            gap=program_chunk_gap(program),
        )
        for index, chunk in enumerate(chunks):
            chunk_jobs.append(
                (
                    name, scale, seed, tuple(tests), chunk, index,
                    probe_engine, program,
                )
            )
    if len(chunk_jobs) <= 1:
        study = CharacterizationStudy(
            scale=scale, seed=seed, probe_engine=probe_engine,
            program=program,
        )
        for name in names:
            result.modules[name] = study.run_module(name, tests=tests)
        return result
    # One shared block per module serves all of its chunk workers (the
    # full-sample block is a superset of every chunk's rows).
    states = _build_shared_states(names, scale, seed) if shared_state else {}
    chunk_jobs = [
        job + ((states[job[0]].handle if job[0] in states else None),)
        for job in chunk_jobs
    ]
    obs_events.emit(
        "campaign_started", units=len(chunk_jobs), seed=seed,
        mode="parallel-chunk",
    )
    parts: Dict[str, Dict[int, ModuleResult]] = {name: {} for name in names}
    try:
        with TRACER.span(
            "campaign", units=len(chunk_jobs), seed=seed,
            mode="parallel-chunk",
        ), ProcessPoolExecutor(max_workers=max_workers) as pool:
            for name, index, module_result, delta in pool.map(
                _run_one_chunk, chunk_jobs
            ):
                parts[name][index] = module_result
                REGISTRY.merge_snapshot(delta)
                obs_events.emit("unit_finished", unit=f"{name}#{index}")
    finally:
        _release_shared_states(states)
    for name in names:
        ordered = [parts[name][i] for i in sorted(parts[name])]
        result.modules[name] = merge_module_chunks(name, ordered, scale)
    obs_events.emit("campaign_finished", units=len(chunk_jobs))
    return result


#: Backwards-compatible aliases (pre-service-subsystem names).
_module_mapping = module_mapping
_merge_module_chunks = merge_module_chunks
