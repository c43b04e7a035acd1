"""Test-program builder.

A :class:`Program` is an ordered list of SoftMC instructions plus the
timing parameters the memory controller applies while running it. The
builder methods mirror the pseudo-code vocabulary of the paper's
Algorithms 1-3 (``initialize_row``, ``hammer_doublesided``,
``read_row``...), so the core test loops read like the paper.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.dram.patterns import DataPattern
from repro.dram.timing import TimingParameters
from repro.errors import ProgramError
from repro.softmc.isa import Instruction, Opcode


class Program:
    """An executable SoftMC test program."""

    def __init__(self, timings: TimingParameters = None):
        self._timings = timings or TimingParameters.nominal()
        self._instructions: List[Instruction] = []

    @property
    def timings(self) -> TimingParameters:
        """Controller timing parameters in force for this program."""
        return self._timings

    @property
    def instructions(self) -> List[Instruction]:
        """The program's instructions (copy)."""
        return list(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def _append(self, instruction: Instruction) -> int:
        self._instructions.append(instruction)
        return len(self._instructions) - 1

    # -- raw commands -------------------------------------------------------------

    def act(self, bank: int, row: int) -> int:
        """Append an ACT command; returns the instruction index."""
        return self._append(Instruction(Opcode.ACT, bank=bank, row=row))

    def pre(self, bank: int) -> int:
        """Append a PRE command."""
        return self._append(Instruction(Opcode.PRE, bank=bank))

    def rd(self, bank: int, column: int) -> int:
        """Append an RD command; its index keys the read data."""
        return self._append(Instruction(Opcode.RD, bank=bank, column=column))

    def wr(self, bank: int, column: int, data: np.ndarray) -> int:
        """Append a WR command with a 64-bit payload."""
        return self._append(
            Instruction(Opcode.WR, bank=bank, column=column, data=np.asarray(data))
        )

    def ref(self) -> int:
        """Append a REF command."""
        return self._append(Instruction(Opcode.REF))

    def wait(self, duration: float) -> int:
        """Append an idle wait of ``duration`` seconds (retention tests)."""
        return self._append(Instruction(Opcode.WAIT, duration=duration))

    # -- macros (the paper's pseudo-code vocabulary) ---------------------------------

    def initialize_row(
        self, bank: int, row: int, pattern: DataPattern, row_bits: int,
        inverse: bool = False,
    ) -> int:
        """``initialize_row`` of Algorithms 1-3: fill a row with a data
        pattern (or its bitwise inverse, for aggressor rows)."""
        bits = (
            pattern.inverse_bits(row_bits) if inverse else pattern.row_bits(row_bits)
        )
        return self._append(
            Instruction(Opcode.WRITE_ROW, bank=bank, row=row, data=bits)
        )

    def hammer(self, bank: int, rows: Sequence[int], count: int) -> int:
        """``count`` alternating ACT/PRE cycles per row, interleaved
        round-robin over ``rows`` -- the general n-sided hammer burst
        the program DSL lowers to (:mod:`repro.progdsl`)."""
        if len(rows) == 0:
            raise ProgramError("hammer requires at least one aggressor row")
        return self._append(
            Instruction(Opcode.HAMMER, bank=bank, rows=tuple(rows), count=count)
        )

    def hammer_doublesided(
        self, bank: int, aggressors: Sequence[int], count: int
    ) -> int:
        """``hammer_doublesided`` of Alg. 1: ``count`` alternating
        ACT/PRE cycles per aggressor row."""
        return self.hammer(bank, aggressors, count)

    def hammer_rounds(
        self,
        bank: int,
        rows: Sequence[int],
        counts: Sequence[int],
        refresh: bool = False,
    ) -> int:
        """A burst schedule: one hammer burst per entry of ``counts``,
        each followed by a REF when ``refresh`` is set (the ordering TRR
        trackers see from a refresh-compliant controller). This is the
        only sanctioned way to build multi-burst hammer schedules by
        hand -- ``make lint`` rejects ad-hoc hammer/REF loops elsewhere;
        prefer a registered :mod:`repro.progdsl` program."""
        index = len(self.instructions) - 1
        for count in counts:
            index = self.hammer(bank, rows, count)
            if refresh:
                index = self.ref()
        return index

    def read_row(self, bank: int, row: int) -> int:
        """ACT + all-column RD + PRE; the index keys the row's read bits."""
        return self._append(Instruction(Opcode.READ_ROW, bank=bank, row=row))

    def read_column_of_row(self, bank: int, row: int, column: int) -> int:
        """Alg. 2's inner access: ACT (with the program's tRCD), a single
        column RD, PRE. Returns the RD instruction index."""
        self.act(bank, row)
        index = self.rd(bank, column)
        self.pre(bank)
        return index
