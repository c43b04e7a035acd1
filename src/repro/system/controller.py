"""An open-page memory controller over the simulated module.

The controller is the *system-side* consumer of the paper's findings:
it operates a module at the policy's (possibly reduced) V_PP and applies
the Section 8 mitigations -- the programmed activation latency, rank-
level SECDED on every 64-bit word, base-rate refresh sweeps, and
double-rate selective refresh for profiled weak rows.

Access model: a flat byte-addressable space (see
:mod:`repro.system.address`), 8-byte aligned reads/writes, an open-page
row-buffer policy per bank, and refresh catch-up performed lazily on
every access (the controller owns the simulated clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.dram.ecc import DecodeStatus, SecdedCodec
from repro.dram.module import DramModule
from repro.dram.timing import quantize_to_command_clock
from repro.errors import ConfigurationError, UncorrectableError
from repro.system.address import AddressMapping
from repro.system.policy import ControllerPolicy
from repro.units import ns

#: Column access latency charged per RD/WR.
_COLUMN_LATENCY = ns(15.0)
#: Precharge latency.
_TRP = ns(13.5)
#: Time charged per row refreshed during a sweep.
_ROW_REFRESH_COST = ns(350.0)


@dataclass
class ControllerStats:
    """Operation accounting."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
    refresh_sweeps: int = 0
    selective_refreshes: int = 0
    ecc_corrected: int = 0
    ecc_uncorrectable: int = 0


class MemoryController:
    """Drives one module under a :class:`ControllerPolicy`."""

    def __init__(self, module: DramModule, policy: ControllerPolicy):
        self._module = module
        self._policy = policy
        module.env.set_vpp(policy.vpp)
        module.check_communication()
        self._mapping = AddressMapping(module.geometry)
        self._codec = SecdedCodec() if policy.ecc_enabled else None
        # Rank-level ECC stores parity in dedicated chips; modeled as a
        # controller-side store keyed by (bank, row, column).
        self._parity: Dict[tuple, np.ndarray] = {}
        self._open_rows: Dict[int, Optional[int]] = {
            bank.index: None for bank in module.banks
        }
        now = module.env.now
        self._next_sweep = now + policy.refresh_window
        self._next_selective = now + policy.refresh_window / 2.0
        self.stats = ControllerStats()

    @property
    def module(self) -> DramModule:
        """The module under this controller."""
        return self._module

    @property
    def policy(self) -> ControllerPolicy:
        """The active operating policy."""
        return self._policy

    @property
    def mapping(self) -> AddressMapping:
        """The controller's address mapping."""
        return self._mapping

    # -- refresh -----------------------------------------------------------------

    def _catch_up_refresh(self) -> None:
        """Perform any refresh work whose deadline has passed.

        Called lazily before every access: between accesses the
        simulated clock may have jumped (idle periods), so the
        controller retroactively performs the sweeps a real one would
        have interleaved.
        """
        env = self._module.env
        guard = 0
        while env.now >= min(self._next_sweep, self._next_selective):
            if self._next_selective <= self._next_sweep:
                self._selective_refresh()
                self._next_selective += self._policy.refresh_window / 2.0
            else:
                self._full_sweep()
                self._next_sweep += self._policy.refresh_window
            guard += 1
            if guard > 100_000:  # pragma: no cover - runaway protection
                raise ConfigurationError(
                    "refresh catch-up runaway; check the refresh window"
                )

    def _full_sweep(self) -> None:
        self._close_all()
        refreshed = 0
        for bank in self._module.banks:
            refreshed += bank.refresh_all()
        self._module.env.advance(refreshed * _ROW_REFRESH_COST)
        self.stats.refresh_sweeps += 1

    def _selective_refresh(self) -> None:
        if not self._policy.selective_refresh_rows:
            return
        self._close_all()
        by_bank: Dict[int, list] = {}
        for bank_index, row in self._policy.selective_refresh_rows:
            by_bank.setdefault(bank_index, []).append(row)
        for bank_index, rows in by_bank.items():
            self._module.bank(bank_index).refresh_rows(rows)
            self.stats.selective_refreshes += len(rows)
        self._module.env.advance(
            len(self._policy.selective_refresh_rows) * _ROW_REFRESH_COST
        )

    def _close_all(self) -> None:
        for bank_index, open_row in self._open_rows.items():
            if open_row is not None:
                self._module.bank(bank_index).precharge()
                self._open_rows[bank_index] = None

    def flush(self) -> None:
        """Close all open rows and perform due refresh work."""
        self._catch_up_refresh()
        self._close_all()

    def idle(self, duration: float) -> None:
        """Advance simulated time by ``duration`` with deadline-accurate
        refresh.

        Unlike advancing the environment clock externally (where catch-up
        refresh runs *late*, after charge has already decayed past its
        deadline), ``idle`` steps the clock to each refresh deadline and
        performs the due work there -- what real refresh hardware does.
        """
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0: {duration}")
        env = self._module.env
        deadline_end = env.now + duration
        while True:
            next_deadline = min(self._next_sweep, self._next_selective)
            if next_deadline > deadline_end:
                break
            if next_deadline > env.now:
                env.advance(next_deadline - env.now)
            if self._next_selective <= self._next_sweep:
                self._selective_refresh()
                self._next_selective += self._policy.refresh_window / 2.0
            else:
                self._full_sweep()
                self._next_sweep += self._policy.refresh_window
        if deadline_end > env.now:
            env.advance(deadline_end - env.now)

    # -- row buffer ---------------------------------------------------------------

    def _open(self, bank_index: int, row: int) -> None:
        bank = self._module.bank(bank_index)
        env = self._module.env
        if self._open_rows[bank_index] == row:
            self.stats.row_hits += 1
            return
        self.stats.row_misses += 1
        if self._open_rows[bank_index] is not None:
            bank.precharge()
            env.advance(quantize_to_command_clock(_TRP))
        trcd = quantize_to_command_clock(self._policy.trcd)
        bank.activate(row, trcd=trcd)
        env.advance(trcd)
        self._open_rows[bank_index] = row
        self.stats.activations += 1

    # -- data path ------------------------------------------------------------------

    @staticmethod
    def _check_alignment(address: int, length: int) -> None:
        if address % AddressMapping.COLUMN_BYTES or length % AddressMapping.COLUMN_BYTES:
            raise ConfigurationError(
                "accesses must be 8-byte aligned and sized (column words)"
            )
        if length <= 0:
            raise ConfigurationError(f"length must be positive: {length}")

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` (8-byte aligned) at ``address``."""
        self._check_alignment(address, len(data))
        self._catch_up_refresh()
        env = self._module.env
        for offset in range(0, len(data), 8):
            decoded = self._mapping.decode(address + offset)
            self._open(decoded.bank, decoded.row)
            word_bits = np.unpackbits(
                np.frombuffer(data[offset : offset + 8], dtype=np.uint8),
                bitorder="little",
            )
            self._module.bank(decoded.bank).write_column(
                decoded.column, word_bits
            )
            env.advance(_COLUMN_LATENCY)
            self._after_access(decoded.bank)
            if self._codec is not None:
                codeword = self._codec.encode(word_bits)
                self._parity[(decoded.bank, decoded.row, decoded.column)] = (
                    codeword
                )
            self.stats.writes += 1

    def _after_access(self, bank_index: int) -> None:
        """Apply the page policy after a column access."""
        if self._policy.page_policy == "closed":
            self._module.bank(bank_index).precharge()
            self._module.env.advance(quantize_to_command_clock(_TRP))
            self._open_rows[bank_index] = None

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes (8-byte aligned) from ``address``.

        With ECC enabled, each 64-bit word is decoded against its stored
        parity: single-bit flips are corrected transparently (counted in
        the stats); double-bit flips raise
        :class:`~repro.errors.UncorrectableError` after being counted.
        """
        self._check_alignment(address, length)
        self._catch_up_refresh()
        env = self._module.env
        chunks = []
        for offset in range(0, length, 8):
            decoded = self._mapping.decode(address + offset)
            self._open(decoded.bank, decoded.row)
            word_bits = self._module.bank(decoded.bank).read_column(
                decoded.column
            )
            env.advance(_COLUMN_LATENCY)
            self._after_access(decoded.bank)
            self.stats.reads += 1
            if self._codec is not None:
                word_bits = self._decode_word(decoded, word_bits)
            chunks.append(
                np.packbits(word_bits, bitorder="little").tobytes()
            )
        return b"".join(chunks)

    def _decode_word(self, decoded, word_bits: np.ndarray) -> np.ndarray:
        key = (decoded.bank, decoded.row, decoded.column)
        stored = self._parity.get(key)
        if stored is None:
            # Never written under ECC: treat as unprotected.
            return word_bits
        from repro.dram.ecc import _DATA_POSITIONS  # layout constant

        codeword = stored.copy()
        codeword[_DATA_POSITIONS] = word_bits
        try:
            result = self._codec.decode(codeword)
        except UncorrectableError:
            self.stats.ecc_uncorrectable += 1
            raise
        if result.status is DecodeStatus.CORRECTED:
            self.stats.ecc_corrected += 1
        return result.data
