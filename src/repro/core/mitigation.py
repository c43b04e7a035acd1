"""Mitigation analyses: ECC, selective refresh, and V_PP recommendation.

Covers the paper's Section 6.3 mitigation study and Table 3's
``V_PPRec`` column:

* **ECC** (Observation 14): at the smallest refresh window with non-zero
  retention BER (module at V_PPmin), classify every 64-bit data word by
  SECDED outcome. The paper finds every failing word carries exactly one
  flip -- fully correctable.
* **Selective refresh** (Observation 15): the fraction of rows that
  contain erroneous words at a window but not at any smaller one; only
  those rows need the doubled refresh rate [75, 144, 145].
* **V_PPRec** (Table 3 / Section 8): the lowest V_PP at which the module
  is no worse than nominal on both RowHammer metrics and still passes
  its reliability checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.results import ModuleResult
from repro.dram.constants import NOMINAL_TRCD, NOMINAL_TREFW
from repro.dram.ecc import count_correctable_words
from repro.errors import AnalysisError

import numpy as np


# -- ECC analysis (Observation 14 / Figure 11) -------------------------------------


@dataclass(frozen=True)
class EccReport:
    """SECDED outcome of one module's retention flips at one window."""

    module: str
    vpp: float
    trefw: float
    rows_with_flips: int
    words_correctable: int
    words_uncorrectable: int

    @property
    def all_correctable(self) -> bool:
        """True when simple SECDED fixes every erroneous word."""
        return self.words_uncorrectable == 0


def smallest_failing_window(
    module_result: ModuleResult, vpp: float
) -> Optional[float]:
    """Smallest tREFW with non-zero retention BER at ``vpp`` (None when
    the module never fails in the swept range)."""
    table = module_result.retention
    failing = table.trefw[module_result.retention_at(vpp) & (table.ber > 0)]
    return float(failing.min()) if failing.size else None


def ecc_report(
    module_result: ModuleResult, vpp: float, trefw: float = None
) -> Optional[EccReport]:
    """ECC classification at the smallest failing window (or ``trefw``)."""
    if trefw is None:
        trefw = smallest_failing_window(module_result, vpp)
        if trefw is None:
            return None
    table = module_result.retention
    selected = module_result.retention_at(vpp, trefw)
    if not selected.any():
        raise AnalysisError(
            f"no retention data at vpp={vpp}, trefw={trefw}"
        )
    lengths = np.diff(table.hist_offsets)
    entries = np.repeat(selected, lengths)
    # One flip count per erroneous word of the selected records.
    verdict = count_correctable_words(
        np.repeat(table.hist_flips[entries], table.hist_words[entries])
    )
    return EccReport(
        module=module_result.module,
        vpp=vpp,
        trefw=trefw,
        rows_with_flips=int(np.count_nonzero(selected & (lengths > 0))),
        words_correctable=verdict["correctable"],
        words_uncorrectable=verdict["uncorrectable"],
    )


# -- selective refresh (Observation 15 / Figure 11) ----------------------------------


@dataclass(frozen=True)
class SelectiveRefreshReport:
    """Fraction of rows needing a doubled refresh rate at one window."""

    module: str
    vpp: float
    trefw: float
    total_rows: int
    newly_failing_rows: int  # fail at trefw but at no smaller window
    word_count_histogram: Dict[int, int]  # erroneous words/row -> rows

    @property
    def row_fraction(self) -> float:
        """Fraction of rows that must be refreshed faster."""
        if self.total_rows == 0:
            return 0.0
        return self.newly_failing_rows / self.total_rows


def selective_refresh_report(
    module_result: ModuleResult, vpp: float, trefw: float
) -> SelectiveRefreshReport:
    """Rows failing at ``trefw`` but clean at every smaller window."""
    table = module_result.retention
    at_vpp = module_result.retention_at(vpp)
    at_window = module_result.retention_at(vpp, trefw)
    failed_smaller = table.row[
        at_vpp & (table.trefw < trefw - 1e-12) & (table.ber > 0)
    ]
    newly = at_window & (table.ber != 0) & ~np.isin(table.row, failed_smaller)
    histogram: Dict[int, int] = {}
    for words in table.histogram_sums()[newly].tolist():
        histogram[words] = histogram.get(words, 0) + 1
    return SelectiveRefreshReport(
        module=module_result.module,
        vpp=vpp,
        trefw=trefw,
        total_rows=len(np.unique(table.row[at_window])),
        newly_failing_rows=int(np.count_nonzero(newly)),
        word_count_histogram=histogram,
    )


# -- V_PP recommendation (Table 3 / Section 8) ----------------------------------------


@dataclass(frozen=True)
class VppRecommendation:
    """Recommended operating point of one module."""

    module: str
    vpp: float
    hcfirst: Optional[int]
    ber: float
    rationale: str


def recommend_vpp(module_result: ModuleResult) -> VppRecommendation:
    """Table 3's V_PPRec rule.

    Scanning from V_PPmin upward, pick the lowest V_PP that is no worse
    than nominal on both RowHammer metrics (HC_first not reduced, BER
    not increased) and whose reliability data -- when measured -- shows
    the module still meets nominal tRCD and stays retention-clean at the
    nominal 64 ms window. Falls back to nominal V_PP when no reduced
    level qualifies.
    """
    levels = sorted(module_result.vpp_levels)
    nominal = max(levels)
    hc_nominal = module_result.min_hcfirst(nominal)
    ber_nominal = module_result.max_ber(nominal)
    for vpp in levels:
        if vpp >= nominal:
            break
        hc = module_result.min_hcfirst(vpp)
        ber = module_result.max_ber(vpp)
        if hc_nominal is not None and (hc is None or hc < hc_nominal):
            continue
        if ber > ber_nominal:
            continue
        if module_result.trcd and (
            module_result.max_trcd_min(vpp) > NOMINAL_TRCD + 1e-12
        ):
            continue
        at_64ms = module_result.retention_at(vpp, NOMINAL_TREFW)
        if (module_result.retention.ber[at_64ms] > 0).any():
            continue
        return VppRecommendation(
            module=module_result.module,
            vpp=vpp,
            hcfirst=hc,
            ber=ber,
            rationale=(
                "lowest V_PP with RowHammer metrics no worse than nominal "
                "and reliability checks passing"
            ),
        )
    return VppRecommendation(
        module=module_result.module,
        vpp=nominal,
        hcfirst=hc_nominal,
        ber=ber_nominal,
        rationale="no reduced V_PP improved on nominal without side effects",
    )
