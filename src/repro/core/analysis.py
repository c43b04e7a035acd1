"""Aggregation of study results into the paper's figures' statistics.

* Figures 3 and 5: per-module curves of BER / HC_first across V_PP,
  normalized per row to the row's value at nominal V_PP, with 90 %
  confidence bands across rows.
* Figures 4 and 6: per-vendor population densities of the per-row
  normalized values at V_PPmin.
* Figure 10a: retention BER versus refresh window per V_PP level.
* Figure 10b: per-vendor retention BER distribution at a fixed window.
* The prose statistics of Observations 1-6 (fractions of rows whose
  BER/HC_first decrease/increase, average and maximum changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.results import ModuleResult
from repro.core.study import StudyResult
from repro.errors import AnalysisError
from repro.stats import confidence_band, population_density

#: Rows whose metric moved by less than this fraction count as unchanged
#: (Observation 3 uses a 2 % bucket for Mfr. A).
FLAT_THRESHOLD = 0.02


@dataclass(frozen=True)
class NormalizedCurve:
    """One module's normalized metric across the V_PP grid."""

    module: str
    vpp_levels: Sequence[float]
    mean: Sequence[float]
    band_low: Sequence[float]
    band_high: Sequence[float]

    def at(self, vpp: float) -> float:
        """Mean normalized value at one V_PP level."""
        for level, value in zip(self.vpp_levels, self.mean):
            if abs(level - vpp) < 1e-9:
                return value
        raise AnalysisError(f"vpp {vpp} not in curve for {self.module}")


def _per_row_normalized(
    module_result: ModuleResult, metric: str, vpp: float
) -> List[float]:
    """Per-row metric at ``vpp`` normalized to the same row's value at
    nominal V_PP, in the nominal records' row order. Rows without a
    valid nominal value are skipped."""
    nominal = module_result.vpp_levels[0]
    if metric in ("ber", "hcfirst"):
        table = module_result.rowhammer
        column = table.ber if metric == "ber" else table.hcfirst
        valid = ~table.censored if metric == "hcfirst" else True
    elif metric == "trcd":
        table = module_result.trcd
        column = table.trcd_min
        valid = True
    else:
        raise AnalysisError(f"unknown metric {metric!r}")
    base = table.at(nominal) & valid
    here = table.at(vpp) & valid
    if not here.any():
        return []
    base_rows, baseline = table.row[base], column[base]
    order = np.argsort(table.row[here])
    here_rows, values = table.row[here][order], column[here][order]
    slot = np.searchsorted(here_rows, base_rows).clip(max=len(here_rows) - 1)
    found = (here_rows[slot] == base_rows) & (baseline != 0)
    return (values[slot[found]] / baseline[found]).tolist()


def normalized_curves(
    study: StudyResult, metric: str, band_level: float = 0.90
) -> Dict[str, NormalizedCurve]:
    """Figures 3/5 data: normalized per-row curves per module."""
    curves: Dict[str, NormalizedCurve] = {}
    for name, module_result in study.modules.items():
        means, lows, highs, levels = [], [], [], []
        for vpp in module_result.vpp_levels:
            values = _per_row_normalized(module_result, metric, vpp)
            if not values:
                continue
            band = confidence_band(values, band_level)
            levels.append(vpp)
            means.append(float(np.mean(values)))
            lows.append(band.low)
            highs.append(band.high)
        if levels:
            curves[name] = NormalizedCurve(
                module=name, vpp_levels=levels, mean=means,
                band_low=lows, band_high=highs,
            )
    return curves


def vppmin_densities(
    study: StudyResult, metric: str, bins: int = 30
) -> Dict[str, dict]:
    """Figures 4/6 data: per-vendor population density of per-row
    normalized values at each module's V_PPmin."""
    per_vendor: Dict[str, List[float]] = {}
    for module_result in study.modules.values():
        values = _per_row_normalized(
            module_result, metric, module_result.vppmin
        )
        per_vendor.setdefault(module_result.vendor, []).extend(values)
    densities = {}
    for vendor, values in per_vendor.items():
        if not values:
            continue
        estimate = population_density(values, bins=bins)
        densities[vendor] = {
            "values": values,
            "centers": estimate.centers,
            "density": estimate.density,
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }
    return densities


@dataclass(frozen=True)
class TrendSummary:
    """Observation 1/2/4/5-style prose statistics for one metric."""

    metric: str
    fraction_decreasing: float
    fraction_increasing: float
    fraction_flat: float
    mean_change: float  # signed mean of (normalized - 1)
    max_decrease: float  # most negative change, as a positive magnitude
    max_increase: float


def trend_summary(study: StudyResult, metric: str) -> TrendSummary:
    """Aggregate per-row changes at V_PPmin across all modules."""
    values: List[float] = []
    for module_result in study.modules.values():
        values.extend(
            _per_row_normalized(module_result, metric, module_result.vppmin)
        )
    if not values:
        raise AnalysisError(f"no per-row data for metric {metric!r}")
    arr = np.asarray(values) - 1.0
    return TrendSummary(
        metric=metric,
        fraction_decreasing=float(np.mean(arr < -FLAT_THRESHOLD)),
        fraction_increasing=float(np.mean(arr > FLAT_THRESHOLD)),
        fraction_flat=float(np.mean(np.abs(arr) <= FLAT_THRESHOLD)),
        mean_change=float(arr.mean()),
        max_decrease=float(max(0.0, -arr.min())),
        max_increase=float(max(0.0, arr.max())),
    )


@dataclass(frozen=True)
class VendorTrendDetail:
    """Observation 3/6-style per-vendor population statistics."""

    vendor: str
    rows: int
    fraction_improved_over_5pct: float
    fraction_flat_within_2pct: float
    fraction_increasing: float


def vendor_trend_details(
    study: StudyResult, metric: str, improvement_sign: float = -1.0
) -> Dict[str, VendorTrendDetail]:
    """Per-vendor breakdown of per-row changes at V_PPmin.

    ``improvement_sign`` encodes which direction is an improvement:
    ``-1`` for BER (smaller is better), ``+1`` for HC_first. Reproduces
    the prose statistics of Observations 3 and 6 (e.g. "BER reduces by
    more than 5 % for all DRAM rows of Mfr. C, while BER variation ...
    is smaller than 2 % in 49.6 % of the rows of Mfr. A").
    """
    if improvement_sign not in (-1.0, 1.0):
        raise AnalysisError("improvement_sign must be -1 or +1")
    per_vendor: Dict[str, List[float]] = {}
    for module_result in study.modules.values():
        values = _per_row_normalized(
            module_result, metric, module_result.vppmin
        )
        per_vendor.setdefault(module_result.vendor, []).extend(values)
    details = {}
    for vendor, values in per_vendor.items():
        if not values:
            continue
        changes = np.asarray(values) - 1.0
        improvement = improvement_sign * changes
        details[vendor] = VendorTrendDetail(
            vendor=vendor,
            rows=len(values),
            fraction_improved_over_5pct=float(np.mean(improvement > 0.05)),
            fraction_flat_within_2pct=float(np.mean(np.abs(changes) <= 0.02)),
            fraction_increasing=float(np.mean(changes > FLAT_THRESHOLD)),
        )
    return details


# -- retention (Figure 10) -------------------------------------------------------


@dataclass(frozen=True)
class RetentionCurve:
    """Average retention BER versus refresh window for one V_PP level."""

    vpp: float
    windows: Sequence[float]
    mean_ber: Sequence[float]
    band_low: Sequence[float]
    band_high: Sequence[float]


def retention_curves(
    study: StudyResult, band_level: float = 0.90
) -> List[RetentionCurve]:
    """Figure 10a data: BER vs. tREFW per V_PP, rows pooled across
    modules (in module, then record order)."""
    tables = [m.retention for m in study.modules.values()]
    if not tables:
        return []
    vpp = np.concatenate([table.vpp for table in tables])
    trefw = np.concatenate([table.trefw for table in tables])
    ber = np.concatenate([table.ber for table in tables])
    curves = []
    for level in np.unique(vpp)[::-1].tolist():
        at_level = vpp == level
        windows = np.unique(trefw[at_level]).tolist()
        means, lows, highs = [], [], []
        for window in windows:
            values = ber[at_level & (trefw == window)]
            band = confidence_band(values, band_level)
            means.append(float(np.mean(values)))
            lows.append(band.low)
            highs.append(band.high)
        curves.append(
            RetentionCurve(
                vpp=level, windows=windows, mean_ber=means,
                band_low=lows, band_high=highs,
            )
        )
    return curves


def retention_density_at(
    study: StudyResult, trefw: float, bins: int = 30
) -> Dict[str, dict]:
    """Figure 10b data: per-vendor retention-BER distribution across rows
    at one refresh window, with per-V_PP means."""
    per_vendor: Dict[str, Dict[float, List[np.ndarray]]] = {}
    for module_result in study.modules.values():
        table = module_result.retention
        keep = np.abs(table.trefw - trefw) <= 1e-12
        if not keep.any():
            continue
        vpps, bers = table.vpp[keep], table.ber[keep]
        by_vpp = per_vendor.setdefault(module_result.vendor, {})
        levels, first = np.unique(vpps, return_index=True)
        for level in levels[np.argsort(first)].tolist():
            by_vpp.setdefault(level, []).append(bers[vpps == level])
    output: Dict[str, dict] = {}
    for vendor, by_vpp in per_vendor.items():
        by_vpp = {vpp: np.concatenate(parts) for vpp, parts in by_vpp.items()}
        output[vendor] = {
            "values": np.concatenate(list(by_vpp.values())).tolist(),
            "mean_by_vpp": {
                vpp: float(np.mean(values)) for vpp, values in by_vpp.items()
            },
        }
    return output
