"""Shared context threaded through the test algorithms.

Bundles the bench, the study scale, the bank under test and the
adjacency oracle so that Algorithms 1-3 take one argument instead of
four, matching how the paper's pseudo-code implicitly shares its setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adjacency import AdjacencyOracle, MappingAdjacency
from repro.core.scale import StudyScale, safe_timings  # noqa: F401 (re-export)
from repro.softmc.infrastructure import TestInfrastructure


@dataclass
class TestContext:
    """Execution context of one module's characterization."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    infra: TestInfrastructure
    scale: StudyScale
    bank: int = 0
    adjacency: AdjacencyOracle = None
    #: Probe-engine selection: None (default policy), "fused" (the
    #: kernel) or "command" (the oracle) -- the only place an engine is
    #: chosen (see :func:`repro.core.probe.make_engine`).
    probe_engine: str = None
    #: The resolved :class:`repro.core.probe.ProbeEngine` instance.
    engine: object = None
    #: Compiled DSL program (:class:`repro.progdsl.compile.
    #: CompiledProgram`) the measurement loops route probe sessions
    #: through; None runs the paper's double-sided / scale-driven
    #: schedules unchanged.
    program: object = None

    def __post_init__(self) -> None:
        if self.adjacency is None:
            self.adjacency = MappingAdjacency(self.infra)
        if self.engine is None:
            from repro.core.probe import make_engine  # local: avoid cycle

            self.engine = make_engine(self, kind=self.probe_engine)

    @property
    def row_bits(self) -> int:
        """Bits per row of the module under test."""
        return self.infra.module.geometry.row_bits

    @property
    def module_name(self) -> str:
        """Name of the module under test."""
        return self.infra.module.name
