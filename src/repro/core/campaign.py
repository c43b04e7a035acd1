"""Row-chunk planning and chunk merging for campaigns.

Modules are characterized independently (separate simulated devices,
separate RNG namespaces), and within a module the sampled rows split
into chunks that are independent under the device model's coupling
rules (:func:`plan_row_chunks`). The orchestration service
(:class:`repro.service.orchestrator.CampaignService`, the one
process-pool runner) fans these ``(module, row-chunk)`` units out and
reassembles them with :func:`merge_module_chunks`.

Determinism: all device randomness is keyed by ``(seed, module, row)``
or by per-row restore-session counters, and chunk boundaries are placed
so no probe in one chunk touches the session state of a row in another
(double-sided probes reach one physical row beyond the victim). The
merge step reassembles records in the exact order a sequential
``run_module`` emits them, so chunked, pooled and sequential campaigns
agree record-for-record (asserted by the differential tests in
``tests/core/test_serialization_campaign.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.results import ModuleResult
from repro.core.scale import StudyScale
from repro.dram.calibration import calibrate
from repro.dram.mapping import RowMapping, make_mapping
from repro.dram.profiles import module_profile
from repro.errors import AnalysisError, ConfigurationError

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


def merge_module_chunks(
    name: str, parts: List[ModuleResult], scale: StudyScale
) -> ModuleResult:
    """Reassemble chunk results in sequential record order.

    ``parts`` must be the results of disjoint row chunks of one module
    (ordered arbitrarily); the merge re-emits records exactly as a
    sequential :meth:`CharacterizationStudy.run_module` over the union
    of the rows would.
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
    levels = list(reference.vpp_levels)
    return ModuleResult(
        module=name,
        vendor=reference.vendor,
        vppmin=reference.vppmin,
        vpp_levels=levels,
        rowhammer=_sequential_order([p.rowhammer for p in parts], levels),
        trcd=_sequential_order([p.trcd for p in parts], levels),
        retention=_sequential_order([p.retention for p in parts], levels),
    )


def _sequential_order(tables, vpp_levels):
    """One table of the parts' records, ordered by (V_PP level, row) --
    a sequential run's order. The sort is stable, so each (V_PP, row)
    group keeps its part's window order; records at a V_PP off the
    grid are dropped."""
    table = type(tables[0]).concat(tables)
    level = np.full(len(table), -1)
    for index, vpp in enumerate(vpp_levels):
        level[table.vpp == vpp] = index
    order = np.lexsort((table.row, level))
    return table.take(order[level[order] >= 0])
