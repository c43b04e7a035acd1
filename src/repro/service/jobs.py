"""Work-unit decomposition for orchestrated campaigns.

A campaign over ``(modules, tests, scale, seed)`` decomposes into
``(module, row-chunk)`` work units, gap-partitioned by
:func:`repro.core.campaign.plan_row_chunks`, so units are independent
under the device model's coupling rules and merge bit-identically to a
sequential run. Each unit
carries everything a worker needs to characterize its rows in a fresh
process: the module name, the row subset, and the test tuple.

Unit ids are stable (``"<module>/<chunk_index>"``) across runs of the
same campaign, which is what makes checkpoints resumable and fault
plans reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.campaign import module_mapping, plan_row_chunks
from repro.core.sampling import sample_rows
from repro.core.scale import StudyScale
from repro.core.study import TEST_TYPES
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable unit: a row chunk of one module's campaign."""

    unit_id: str
    module: str
    chunk_index: int
    rows: Tuple[int, ...]
    tests: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigurationError(f"unit {self.unit_id}: empty row set")


def plan_units(
    modules: Sequence[str],
    scale: StudyScale = None,
    tests: Sequence[str] = TEST_TYPES,
    chunks_per_module: Optional[int] = None,
    program: Optional[str] = None,
) -> List[WorkUnit]:
    """Decompose a campaign into independent work units.

    Rows are the scale's standard sample (what a sequential
    ``run_module`` would visit), partitioned into at most
    ``chunks_per_module`` (default: the scale's ``row_chunks``)
    gap-separated chunks -- the gap widened to the DSL ``program``'s
    coupling reach when one is selected. Units are ordered by module
    (in the given order) then chunk index.
    """
    from repro.progdsl import program_chunk_gap

    scale = scale or StudyScale.bench()
    tests = tuple(tests)
    for test in tests:
        if test not in TEST_TYPES:
            raise ConfigurationError(f"unknown test type {test!r}")
    if not tests:
        raise ConfigurationError("tests must not be empty")
    seen = set()
    units: List[WorkUnit] = []
    for name in modules:
        if name in seen:
            raise ConfigurationError(f"duplicate module {name!r}")
        seen.add(name)
        mapping = module_mapping(name, scale)  # validates the name too
        rows = sample_rows(
            mapping.num_rows, scale.rows_per_module, scale.row_chunks
        )
        chunks = plan_row_chunks(
            rows, mapping, chunks_per_module or scale.row_chunks,
            gap=program_chunk_gap(program),
        )
        for index, chunk in enumerate(chunks):
            units.append(
                WorkUnit(
                    unit_id=f"{name}/{index}",
                    module=name,
                    chunk_index=index,
                    rows=tuple(chunk),
                    tests=tests,
                )
            )
    return units
