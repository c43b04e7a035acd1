"""Trace-driven workload replay.

The controller can be driven from access traces -- (operation, address)
sequences -- which is how memory-system studies evaluate policies on
realistic workloads. Three synthetic generators cover the cases this
study needs:

* :func:`sequential_trace` -- a streaming workload (row-buffer friendly);
* :func:`random_trace` -- a pointer-chasing workload (row-buffer hostile);
* :func:`rowhammer_trace` -- a user-space double-sided attack: alternating
  reads of the two aggressor rows, each access forced to re-activate by
  the bank conflict (the paper's footnote 8 notes 300K hammers are "low
  enough to be used in a system-level attack in a real system").

:func:`attack_feasibility` quantifies that footnote: how many times over
an attacker can reach HC_first within one refresh window at back-to-back
activation rate -- and how reduced V_PP (higher HC_first) shrinks that
headroom.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List

from repro.dram import constants
from repro.errors import AnalysisError, ConfigurationError
from repro.rng import RngHub
from repro.system.address import AddressMapping
from repro.system.controller import ControllerStats, MemoryController
from repro.units import ns


class Op(enum.Enum):
    """Trace operation."""

    READ = "R"
    WRITE = "W"


@dataclass(frozen=True)
class TraceEntry:
    """One access of a trace (8-byte aligned)."""

    op: Op
    address: int

    def __post_init__(self) -> None:
        if self.address % 8:
            raise ConfigurationError(
                f"trace addresses must be 8-byte aligned: {self.address:#x}"
            )


def sequential_trace(
    start: int, count: int, stride: int = 8, op: Op = Op.READ
) -> List[TraceEntry]:
    """A streaming access pattern."""
    if count < 1 or stride % 8:
        raise ConfigurationError("count >= 1 and 8-byte stride required")
    return [TraceEntry(op, start + i * stride) for i in range(count)]


def random_trace(
    mapping: AddressMapping, count: int, seed: int = 0, op: Op = Op.READ
) -> List[TraceEntry]:
    """A uniformly random (row-buffer hostile) access pattern."""
    rng = RngHub(seed).generator("trace/random")
    words = mapping.capacity // 8
    addresses = rng.integers(0, words, size=count) * 8
    return [TraceEntry(op, int(a)) for a in addresses]


def rowhammer_trace(
    mapping: AddressMapping,
    controller_mapping_bank: int,
    aggressor_rows: Iterable[int],
    hammer_count: int,
) -> Iterator[TraceEntry]:
    """A user-space double-sided attack trace.

    Alternating reads of the aggressor rows' first words: consecutive
    accesses conflict in the row buffer, forcing one activation each --
    the classic cache-bypassing RowHammer loop.
    """
    rows = list(aggressor_rows)
    if not rows:
        raise ConfigurationError("need at least one aggressor row")
    addresses = [
        mapping.row_base_address(controller_mapping_bank, row) for row in rows
    ]
    for _ in range(hammer_count):
        for address in addresses:
            yield TraceEntry(Op.READ, address)


def replay(
    controller: MemoryController, trace: Iterable[TraceEntry],
    write_payload: bytes = b"\x00" * 8,
) -> ControllerStats:
    """Drive ``controller`` through ``trace``; returns its stats."""
    if len(write_payload) != 8:
        raise ConfigurationError("write_payload must be 8 bytes")
    for entry in trace:
        if entry.op is Op.READ:
            controller.read(entry.address, 8)
        else:
            controller.write(entry.address, write_payload)
    return controller.stats


@dataclass(frozen=True)
class FeasibilityReport:
    """Attack-feasibility numbers for one (module, V_PP) point."""

    hcfirst: int
    window_activations: int
    attacks_per_window: float


def attack_feasibility(
    hcfirst: int,
    trefw: float = constants.NOMINAL_TREFW,
    trc: float = ns(45.0),
    aggressors: int = 2,
) -> FeasibilityReport:
    """Footnote 8's arithmetic: how many complete double-sided attacks
    (HC_first activations per aggressor) fit in one refresh window."""
    if hcfirst < 1:
        raise AnalysisError(f"hcfirst must be >= 1: {hcfirst}")
    if trefw <= 0 or trc <= 0:
        raise AnalysisError("trefw and trc must be positive")
    window = int(trefw / trc)
    per_attack = hcfirst * aggressors
    return FeasibilityReport(
        hcfirst=hcfirst,
        window_activations=window,
        attacks_per_window=window / per_attack,
    )
