"""Statistical helpers used across the library.

Thin, well-named wrappers so that experiment code reads like the paper's
methodology section: coefficients of variation (Section 4.6), confidence
intervals (Figures 3, 5, 10a), population densities (Figures 4, 6, 10b),
and the lognormal order-statistics used to calibrate module profiles.

:func:`normal_ppf` is a pure-Python port of the Cephes ``ndtri``
rational approximation (Stephen L. Moshier, Cephes Math Library
2.1), the routine behind ``scipy.special.ndtri`` and therefore
``scipy.stats.norm.ppf``. The coefficients below are Cephes'
``P0``/``Q0``, ``P1``/``Q1`` and ``P2``/``Q2`` tables, evaluated in
the same Horner order as its ``polevl``/``p1evl``, so the port returns
the same float64 bit for bit; ``tests/test_stats.py::TestNdtriPort``
pins that against scipy on every branch and boundary. Keeping scipy
out of the import graph takes over a second off every process's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError

#: sqrt(2 pi), as Cephes spells it.
_S2PI = 2.50662827463100050242e0
#: exp(-2): below it (and above 1 - exp(-2)) ``ndtri`` leaves the
#: central approximation.
_EXP_M2 = 0.13533528323661269189

#: Each ``Q`` table spells out the leading 1 that Cephes' ``p1evl``
#: implies; ``1.0 * x`` is exact, so Horner's rule is unchanged.
#:
#: Central region, ``|q - 0.5| <= 0.5 - exp(-2)``:
#: ``x / sqrt(2 pi) = y + y^3 P0(y^2) / Q0(y^2)`` with ``y = q - 0.5``.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
#: Tail with ``z = sqrt(-2 log q)`` in [2, 8), i.e. q down to exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
#: Deep tail, ``z`` in [8, 64).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coefficients: tuple) -> float:
    """Cephes ``polevl``: the polynomial with ``coefficients`` (highest
    degree first) at ``x``, by Horner's rule."""
    result = coefficients[0]
    for coefficient in coefficients[1:]:
        result = result * x + coefficient
    return result


def normal_ppf(q: float) -> float:
    """Inverse standard-normal CDF (Cephes ``ndtri``, bit-identical to
    ``scipy.stats.norm.ppf``)."""
    if not 0.0 < q < 1.0:
        raise AnalysisError(f"quantile must be in (0, 1): {q}")
    y = float(q)
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def coefficient_of_variation(values: Sequence[float]) -> float:
    """CV = standard deviation over mean (Section 4.6).

    Returns 0 for a constant series; raises for an empty or zero-mean one.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute CV of an empty series")
    mean = arr.mean()
    if mean == 0:
        if np.all(arr == 0):
            return 0.0
        raise AnalysisError("CV undefined: mean is zero but values vary")
    return float(arr.std(ddof=0) / abs(mean))


@dataclass(frozen=True)
class ConfidenceBand:
    """A central confidence band of a sample (e.g. the 90 % bands shading
    the curves of Figures 3 and 5)."""

    low: float
    high: float
    level: float

    @property
    def width(self) -> float:
        """Band width (high - low)."""
        return self.high - self.low


def confidence_band(values: Sequence[float], level: float = 0.90) -> ConfidenceBand:
    """Central quantile band containing ``level`` of the sample."""
    if not 0.0 < level < 1.0:
        raise AnalysisError(f"level must be in (0, 1): {level}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute a confidence band of an empty series")
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(arr, [alpha, 1.0 - alpha])
    return ConfidenceBand(low=float(low), high=float(high), level=level)


@dataclass(frozen=True)
class DensityEstimate:
    """A normalized histogram density (the population-density plots of
    Figures 4, 6 and 10b)."""

    centers: np.ndarray
    density: np.ndarray
    bin_width: float

    def mode(self) -> float:
        """Location of the highest-density bin."""
        return float(self.centers[int(np.argmax(self.density))])


def population_density(
    values: Sequence[float], bins: int = 40, value_range: tuple = None
) -> DensityEstimate:
    """Histogram-based population density estimate."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot estimate density of an empty series")
    counts, edges = np.histogram(arr, bins=bins, range=value_range, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DensityEstimate(
        centers=centers, density=counts, bin_width=float(edges[1] - edges[0])
    )


def lognormal_minimum_location(
    target_minimum: float, sigma: float, count: int
) -> float:
    """Median of a lognormal whose expected minimum over ``count`` draws
    is ``target_minimum``.

    Used to calibrate per-row weakness distributions so that the *minimum*
    HC_first across a module's tested rows lands on the Table 3 anchor.
    The expected minimum of ``count`` lognormal draws is approximated by
    the ``1/(count+1)`` quantile.
    """
    if target_minimum <= 0:
        raise AnalysisError(f"target_minimum must be positive: {target_minimum}")
    if count < 1:
        raise AnalysisError(f"count must be >= 1: {count}")
    z = normal_ppf(1.0 / (count + 1.0))
    # ln(min) ~= mu + sigma * z  =>  median = exp(mu)
    return target_minimum / float(np.exp(sigma * z))


def lognormal_sigma_for_tail(
    tail_probability: float, ratio_to_median: float
) -> float:
    """Sigma of a lognormal such that ``P(X < median * ratio) = tail``.

    Used to size per-cell tolerance spreads from a (HC_first, BER) anchor
    pair: the BER at a fixed hammer count is the lognormal tail mass below
    that count.
    """
    if not 0.0 < tail_probability < 0.5:
        raise AnalysisError(
            f"tail_probability must be in (0, 0.5): {tail_probability}"
        )
    if not 0.0 < ratio_to_median < 1.0:
        raise AnalysisError(f"ratio_to_median must be in (0, 1): {ratio_to_median}")
    z = normal_ppf(tail_probability)
    return float(np.log(ratio_to_median) / z)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute geometric mean of an empty series")
    if np.any(arr <= 0):
        raise AnalysisError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
