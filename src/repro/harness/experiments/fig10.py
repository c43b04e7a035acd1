"""Figure 10: retention BER under reduced V_PP.

(a) average retention BER versus refresh window per V_PP level, with
90 % confidence bands (the x-axis effectively starts at the first window
with any flips, as in the paper);
(b) per-vendor retention-BER distribution across rows at tREFW = 4 s
with per-V_PP means (Observation 12's 0.3->0.8 / 0.2->0.5 / 1.4->2.5 %
vendor shifts), plus the Observation 13 module count at the nominal
64 ms window.
"""

from __future__ import annotations

import numpy as np

from repro import paper
from repro.core.analysis import retention_curves, retention_density_at
from repro.dram.constants import NOMINAL_TREFW
from repro.harness.output import ExperimentTable
from repro.harness.spec import ExperimentSpec, StudyRequest
from repro.units import seconds_to_ms

#: The window Figure 10b slices at.
DENSITY_WINDOW = 4.096


def _analyze(output, studies, *, modules, scale, seed):
    """Regenerate the Figure 10 series."""
    (study,) = studies
    curves = retention_curves(study)
    paper_anchors = paper.value("fig10.retention_ber_4s")

    curve_table = output.add_table(
        ExperimentTable(
            "Retention BER curves (Fig. 10a)",
            ["V_PP", "tREFW [ms]", "mean BER", "band_low", "band_high"],
        )
    )
    for curve in curves:
        for window, mean, low, high in zip(
            curve.windows, curve.mean_ber, curve.band_low, curve.band_high
        ):
            curve_table.add_row(
                curve.vpp, seconds_to_ms(window), mean, low, high
            )

    window = _closest_window(study, DENSITY_WINDOW)
    densities = retention_density_at(study, window)
    density_table = output.add_table(
        ExperimentTable(
            "Retention BER at ~4 s (Fig. 10b)",
            ["Mfr.", "V_PP", "mean BER", "paper nominal", "paper 1.5V"],
        )
    )
    for vendor in sorted(densities):
        anchors = paper_anchors.get(vendor, (None, None))
        for vpp in sorted(densities[vendor]["mean_by_vpp"], reverse=True):
            density_table.add_row(
                vendor, vpp, densities[vendor]["mean_by_vpp"][vpp],
                anchors[0], anchors[1],
            )

    clean, failing = _modules_at_nominal_window(study)
    output.data["curves"] = [
        {
            "vpp": curve.vpp,
            "windows_ms": [seconds_to_ms(w) for w in curve.windows],
            "mean_ber": list(curve.mean_ber),
        }
        for curve in curves
    ]
    output.data["density_window_s"] = window
    output.data["mean_by_vendor_vpp"] = {
        vendor: info["mean_by_vpp"] for vendor, info in densities.items()
    }
    output.data["clean_at_64ms"] = clean
    output.data["failing_at_64ms"] = failing
    output.note(
        f"modules with no retention flips at the nominal 64 ms window at "
        f"V_PPmin: {clean}; failing: {failing} (paper, Obsv. 13: 23 of 30 "
        f"clean; offenders B6/B8/B9 and C1/C3/C5/C9)"
    )
    shifts = ", ".join(
        f"{low * 100:.1f}->{high * 100:.1f}% ({vendor})"
        for vendor, (low, high) in sorted(paper_anchors.items())
    )
    output.note(
        f"paper (Obsv. 12): mean BER at 4 s rises {shifts} from 2.5 V to "
        "1.5 V"
    )


def _closest_window(study, target: float) -> float:
    windows = np.unique(np.concatenate([
        module_result.retention.trefw
        for module_result in study.modules.values()
    ])).tolist()
    return min(windows, key=lambda w: abs(w - target))


def _modules_at_nominal_window(study):
    clean, failing = [], []
    for name, module_result in sorted(study.modules.items()):
        table = module_result.retention
        selected = module_result.retention_at(module_result.vppmin) & (
            np.abs(table.trefw - NOMINAL_TREFW) < 1e-9
        )
        if not selected.any():
            continue
        failed = (table.ber[selected] > 0).any()
        (failing if failed else clean).append(name)
    return clean, failing


SPEC = ExperimentSpec(
    id="fig10",
    title="Retention BER under reduced V_PP (Figure 10)",
    description=(
        "Average retention BER vs refresh window per V_PP (rows "
        "pooled across modules), and the per-vendor distribution at "
        "tREFW ~ 4 s."
    ),
    analyze=_analyze,
    studies=(StudyRequest(tests=("retention",)),),
    order=110,
)

run = SPEC.run
