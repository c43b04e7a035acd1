"""Section 4.6: statistical significance of the measurements.

Computes the coefficient of variation of every row's per-iteration BER
series and reports the 90th/95th/99th percentiles -- the paper's
methodology-validation statistic (CV of 0.08 / 0.13 / 0.24).
"""

from __future__ import annotations

from repro import paper
from repro.core.metrics import cv_percentiles
from repro.harness.output import ExperimentTable
from repro.harness.spec import ExperimentSpec, StudyRequest


def _analyze(output, studies, *, modules, scale, seed):
    """Regenerate the Section 4.6 CV percentiles."""
    (study,) = studies
    paper_cv = paper.value("significance.cv_percentiles")
    series = [
        series
        for module_result in study.modules.values()
        for series in module_result.rowhammer.ber_iterations
        if series.size and series.max() > 0
    ]
    percentiles = cv_percentiles(series)
    table = output.add_table(
        ExperimentTable(
            "CV percentiles", ["percentile", "measured CV", "paper CV"]
        )
    )
    for percentile in sorted(percentiles):
        table.add_row(
            percentile, percentiles[percentile], paper_cv.get(percentile)
        )
    output.data["cv_percentiles"] = percentiles
    output.data["series_count"] = len(series)
    output.note(
        f"paper: CV is {paper_cv[90.0]} / {paper_cv[95.0]} / "
        f"{paper_cv[99.0]} at the 90th / 95th / 99th "
        "percentiles across all experimental results"
    )


SPEC = ExperimentSpec(
    id="significance",
    title="Coefficient of variation of measurements (Section 4.6)",
    description=(
        "CV across measurement iterations per (row, V_PP) BER series; "
        "percentiles over all series."
    ),
    analyze=_analyze,
    studies=(StudyRequest(tests=("rowhammer",)),),
    order=130,
)

run = SPEC.run
