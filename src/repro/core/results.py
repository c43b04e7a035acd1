"""Result tables of the characterization pipeline.

A module's measurements are three column tables, one per test type:
:class:`RowHammerTable` (Alg. 1), :class:`TrcdTable` (Alg. 2) and
:class:`RetentionTable` (Alg. 3). A table holds one numpy column per
field, one entry per (row, V_PP[, tREFW]) record, in the order the
campaign emits them. Analyses select records with boolean masks
(:meth:`ModuleResult.rowhammer_at` ...) and reduce columns; iterating a
table yields plain row tuples (:class:`RowHammerRow` ...) for the few
callers that want records. ``==`` between tables is a ``bool``, true
only when every column holds exactly the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

#: ``hcfirst`` column value of a censored Alg. 1 record (no flip within
#: the bisection's reach; ``None`` in row tuples and study documents).
HCFIRST_CENSORED = -1


class RowHammerRow(NamedTuple):
    """Alg. 1 outcome for one (row, V_PP) point.

    ``hcfirst`` is None when no bit flip was observed anywhere within the
    bisection's reach (censored measurement -- very strong rows).
    ``ber`` is the worst (largest) BER over iterations at the fixed
    300K hammer count; ``ber_iterations`` keeps the per-iteration values
    for the CV analysis of Section 4.6.
    """

    bank: int
    row: int
    vpp: float
    wcdp_index: int
    hcfirst: Optional[int]
    ber: float
    ber_iterations: Tuple[float, ...]


class TrcdRow(NamedTuple):
    """Alg. 2 outcome: minimum reliable activation latency for one
    (row, V_PP) point. ``trcd_min`` is in seconds, quantized to the
    1.5 ns command clock."""

    bank: int
    row: int
    vpp: float
    wcdp_index: int
    trcd_min: float


class RetentionRow(NamedTuple):
    """Alg. 3 outcome for one (row, V_PP, tREFW) point.

    ``word_flip_histogram`` maps flips-per-64-bit-word to word counts,
    feeding the ECC analysis (Observation 14, Figure 11).
    """

    bank: int
    row: int
    vpp: float
    trefw: float
    wcdp_index: int
    ber: float
    word_flip_histogram: Dict[int, int]


def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class _Table:
    """Equal-length columns; subclasses name them in ``COLUMNS``.

    Every column is indexed by record along its first axis, so
    :meth:`take` and :meth:`concat` treat them alike (the retention
    table's CSR histogram overrides both). ``COLUMNS + EXTRA`` names
    every array, each a constructor keyword.
    """

    COLUMNS: Tuple[str, ...] = ()
    #: Arrays not indexed by record (the retention table's CSR triple).
    EXTRA: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.row)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} records>)"

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(
            getattr(self, name) for name in self.COLUMNS + self.EXTRA
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if len(self) != len(other):
            return False
        return not len(self) or all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._arrays(), other._arrays())
        )

    def at(self, vpp: float) -> np.ndarray:
        """Boolean mask of the records at one V_PP level."""
        return np.abs(self.vpp - vpp) < 1e-9

    def take(self, index) -> "_Table":
        """The records selected by a boolean mask or an index array,
        in index order."""
        return type(self)(
            **{name: getattr(self, name)[index] for name in self.COLUMNS}
        )

    @classmethod
    def concat(cls, tables: Sequence["_Table"]) -> "_Table":
        """The tables' records, one table after another."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls()
        return cls(**{
            name: np.concatenate([getattr(t, name) for t in tables])
            for name in cls.COLUMNS
        })

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "_Table":
        """A table of row tuples (fields in the row type's order)."""
        if not rows:
            return cls()
        return cls(*zip(*rows))


class RowHammerTable(_Table):
    """Alg. 1 records: ``hcfirst`` holds :data:`HCFIRST_CENSORED` for
    censored rows; ``ber_iterations`` is an ``(n, iterations)`` block."""

    COLUMNS = (
        "bank", "row", "vpp", "wcdp_index", "hcfirst", "ber",
        "ber_iterations",
    )

    def __init__(self, bank=(), row=(), vpp=(), wcdp_index=(), hcfirst=(),
                 ber=(), ber_iterations=()):
        self.bank = _ints(bank)
        self.row = _ints(row)
        self.vpp = _floats(vpp)
        self.wcdp_index = _ints(wcdp_index)
        if not isinstance(hcfirst, np.ndarray):
            hcfirst = [
                HCFIRST_CENSORED if value is None else value
                for value in hcfirst
            ]
        self.hcfirst = _ints(hcfirst)
        self.ber = _floats(ber)
        try:
            block = _floats(ber_iterations)
        except ValueError:
            raise AnalysisError(
                "ber_iterations rows differ in length"
            ) from None
        if block.ndim == 1 and not block.size:
            block = block.reshape(len(self.row), 0)
        if block.ndim != 2 or len(block) != len(self.row):
            raise AnalysisError(
                "ber_iterations must be one row of values per record"
            )
        self.ber_iterations = block

    @property
    def censored(self) -> np.ndarray:
        """Mask of the records whose HC_first is censored."""
        return self.hcfirst == HCFIRST_CENSORED

    def __iter__(self) -> Iterator[RowHammerRow]:
        for bank, row, vpp, wcdp, hcfirst, ber, iterations in zip(
            self.bank.tolist(), self.row.tolist(), self.vpp.tolist(),
            self.wcdp_index.tolist(), self.hcfirst.tolist(),
            self.ber.tolist(), self.ber_iterations.tolist(),
        ):
            yield RowHammerRow(
                bank, row, vpp, wcdp,
                None if hcfirst == HCFIRST_CENSORED else hcfirst,
                ber, tuple(iterations),
            )


class TrcdTable(_Table):
    """Alg. 2 records."""

    COLUMNS = ("bank", "row", "vpp", "wcdp_index", "trcd_min")

    def __init__(self, bank=(), row=(), vpp=(), wcdp_index=(), trcd_min=()):
        self.bank = _ints(bank)
        self.row = _ints(row)
        self.vpp = _floats(vpp)
        self.wcdp_index = _ints(wcdp_index)
        self.trcd_min = _floats(trcd_min)

    def __iter__(self) -> Iterator[TrcdRow]:
        return map(TrcdRow, self.bank.tolist(), self.row.tolist(),
                   self.vpp.tolist(), self.wcdp_index.tolist(),
                   self.trcd_min.tolist())


def _histograms_to_csr(histograms) -> Tuple[np.ndarray, ...]:
    """``(offsets, flips, words)`` of a sequence of ``{flips: words}``
    mappings (keys may be ints or their decimal strings). Each record's
    entries are sorted by flip count, so equal mappings give equal
    arrays whatever their insertion order."""
    histograms = list(histograms)
    offsets = np.zeros(len(histograms) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, histograms), np.int64, len(histograms)),
        out=offsets[1:],
    )
    flips = np.fromiter(
        chain.from_iterable(histograms), np.int64, offsets[-1]
    )
    words = np.fromiter(
        chain.from_iterable(map(dict.values, histograms)), np.int64,
        offsets[-1],
    )
    owner = np.repeat(np.arange(len(histograms)), np.diff(offsets))
    if np.any((owner[1:] == owner[:-1]) & (flips[1:] < flips[:-1])):
        order = np.lexsort((flips, owner))
        flips, words = flips[order], words[order]
    return offsets, flips, words


class RetentionTable(_Table):
    """Alg. 3 records. The word-flip histograms are one CSR triple:
    record ``i`` maps ``hist_flips[a:b]`` to ``hist_words[a:b]`` with
    ``a, b = hist_offsets[i], hist_offsets[i + 1]``, flips ascending."""

    COLUMNS = ("bank", "row", "vpp", "trefw", "wcdp_index", "ber")
    EXTRA = ("hist_offsets", "hist_flips", "hist_words")

    def __init__(self, bank=(), row=(), vpp=(), trefw=(), wcdp_index=(),
                 ber=(), word_flip_histogram=None, hist_offsets=None,
                 hist_flips=(), hist_words=()):
        self.bank = _ints(bank)
        self.row = _ints(row)
        self.vpp = _floats(vpp)
        self.trefw = _floats(trefw)
        self.wcdp_index = _ints(wcdp_index)
        self.ber = _floats(ber)
        if word_flip_histogram is not None:
            hist_offsets, hist_flips, hist_words = _histograms_to_csr(
                word_flip_histogram
            )
        elif hist_offsets is None:
            hist_offsets = np.zeros(len(self.row) + 1, dtype=np.int64)
        self.hist_offsets = _ints(hist_offsets)
        self.hist_flips = _ints(hist_flips)
        self.hist_words = _ints(hist_words)
        if (
            len(self.hist_offsets) != len(self.row) + 1
            or self.hist_offsets[-1] != len(self.hist_flips)
            or len(self.hist_words) != len(self.hist_flips)
        ):
            raise AnalysisError("inconsistent word-flip histogram arrays")

    def at(self, vpp: float, trefw: float = None) -> np.ndarray:
        """Boolean mask of the records at one V_PP (optionally one
        window)."""
        mask = super().at(vpp)
        if trefw is not None:
            mask &= np.abs(self.trefw - trefw) < 1e-12
        return mask

    def histogram_sums(self, values: np.ndarray = None) -> np.ndarray:
        """Per record, the sum of ``values`` (default: the word counts)
        over its histogram entries."""
        values = self.hist_words if values is None else values
        totals = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, out=totals[1:])
        return totals[self.hist_offsets[1:]] - totals[self.hist_offsets[:-1]]

    @property
    def words_with_one_flip(self) -> np.ndarray:
        """Per record, the 64-bit words with exactly one flipped bit."""
        return self.histogram_sums(
            np.where(self.hist_flips == 1, self.hist_words, 0)
        )

    @property
    def words_uncorrectable(self) -> np.ndarray:
        """Per record, the words with two or more flips (beyond
        SECDED)."""
        return self.histogram_sums(
            np.where(self.hist_flips >= 2, self.hist_words, 0)
        )

    def take(self, index) -> "RetentionTable":
        index = np.arange(len(self))[index]
        starts = self.hist_offsets[index]
        lengths = self.hist_offsets[index + 1] - starts
        offsets = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        entries = (
            np.repeat(starts - offsets[:-1], lengths)
            + np.arange(offsets[-1])
        )
        return RetentionTable(
            **{name: getattr(self, name)[index] for name in self.COLUMNS},
            hist_offsets=offsets, hist_flips=self.hist_flips[entries],
            hist_words=self.hist_words[entries],
        )

    @classmethod
    def concat(cls, tables: Sequence["RetentionTable"]) -> "RetentionTable":
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls()
        shifts = np.cumsum([0] + [len(t.hist_flips) for t in tables[:-1]])
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in tables])
                for name in cls.COLUMNS
            },
            hist_offsets=np.concatenate(
                [[0]] + [
                    t.hist_offsets[1:] + shift
                    for t, shift in zip(tables, shifts)
                ]
            ),
            hist_flips=np.concatenate([t.hist_flips for t in tables]),
            hist_words=np.concatenate([t.hist_words for t in tables]),
        )

    def histograms(self, key=None) -> List[Dict]:
        """Every record's ``{flips: words}`` histogram, flip counts
        passed through ``key`` when given (``str`` for JSON)."""
        flips = self.hist_flips.tolist()
        if key is not None:
            flips = map(key, flips)
        entries = zip(flips, self.hist_words.tolist())
        return [
            dict(islice(entries, length)) if length else {}
            for length in np.diff(self.hist_offsets).tolist()
        ]

    def __iter__(self) -> Iterator[RetentionRow]:
        return map(RetentionRow, self.bank.tolist(), self.row.tolist(),
                   self.vpp.tolist(), self.trefw.tolist(),
                   self.wcdp_index.tolist(), self.ber.tolist(),
                   self.histograms())


@dataclass
class ModuleResult:
    """All measurements for one module."""

    module: str
    vendor: str
    vppmin: float
    vpp_levels: List[float] = field(default_factory=list)
    rowhammer: RowHammerTable = field(default_factory=RowHammerTable)
    trcd: TrcdTable = field(default_factory=TrcdTable)
    retention: RetentionTable = field(default_factory=RetentionTable)

    # -- record selections (boolean masks over a table) ------------------------

    def rowhammer_at(self, vpp: float) -> np.ndarray:
        """Mask of the RowHammer records at one V_PP level."""
        return self.rowhammer.at(vpp)

    def trcd_at(self, vpp: float) -> np.ndarray:
        """Mask of the tRCD records at one V_PP level."""
        return self.trcd.at(vpp)

    def retention_at(self, vpp: float, trefw: float = None) -> np.ndarray:
        """Mask of the retention records at one V_PP (optionally one
        window)."""
        return self.retention.at(vpp, trefw)

    # -- module-level statistics ---------------------------------------------------

    def min_hcfirst(self, vpp: float) -> Optional[int]:
        """Module-level HC_first: minimum across rows (Table 3's metric)."""
        table = self.rowhammer
        values = table.hcfirst[table.at(vpp) & ~table.censored]
        return int(values.min()) if values.size else None

    def max_ber(self, vpp: float) -> float:
        """Module-level BER: maximum across rows at the fixed hammer count."""
        values = self.rowhammer.ber[self.rowhammer_at(vpp)]
        if not values.size:
            raise AnalysisError(f"no RowHammer records at vpp={vpp}")
        return float(values.max())

    def max_trcd_min(self, vpp: float) -> float:
        """Module-level tRCD_min: the worst row's requirement."""
        values = self.trcd.trcd_min[self.trcd_at(vpp)]
        if not values.size:
            raise AnalysisError(f"no tRCD records at vpp={vpp}")
        return float(values.max())

    def mean_retention_ber(self, vpp: float, trefw: float) -> float:
        """Average retention BER across rows (Figure 10a's statistic)."""
        values = self.retention.ber[self.retention_at(vpp, trefw)]
        if not values.size:
            raise AnalysisError(
                f"no retention records at vpp={vpp}, trefw={trefw}"
            )
        return float(np.mean(values))
