"""The ``--profile`` report covers the phases pool workers ran.

``--profile`` aggregates the stitched trace -- this process's spans
plus the fragments pool workers ship home -- so a pooled campaign's
per-phase time reaches the coordinator's table.
"""

from repro.core.scale import StudyScale
from repro.obs import context as obs_context
from repro.obs.trace import TRACER, profile_report, span_table
from repro.service import CampaignService

PHASES = ("module", "wcdp", "rowhammer")


def test_pooled_profile_reports_worker_phases():
    TRACER.enable()
    CampaignService(
        ["C5"], tests=("rowhammer",), scale=StudyScale.tiny(), seed=0,
        max_workers=2,
    ).run()
    totals = span_table(obs_context.stitched_trace())
    for phase in PHASES:
        count, seconds, in_workers = totals[phase]
        # Pooled: each of these phases ran only inside the workers.
        assert count > 0
        assert in_workers > 0
        assert in_workers == seconds
    report = profile_report()
    assert report.startswith("-- profile")
    rows = {
        line.split()[0]: line for line in report.splitlines()
        if line and not line.startswith("--")
    }
    for phase in PHASES:
        assert "in workers" in rows[phase]
    assert "repro_probes_hammer_total" in rows
