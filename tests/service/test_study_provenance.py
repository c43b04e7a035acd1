"""The campaign service stamps the study it produces.

Every front end of :class:`~repro.service.CampaignService` -- the
runner's ``--orchestrate`` pre-run, API jobs and ``python -m
repro.service --out`` -- hands out a study whose provenance comes from
the one stamp inside ``CampaignService.run``: fingerprinted by the
study request, with ``counters`` the work that campaign spent, never
process totals. Each test first pre-loads the registry with a million
hammer probes no campaign made.
"""

import pytest

from repro.api import ApiClient, ApiServer, BackgroundServer
from repro.core.scale import StudyScale
from repro.core.serialization import load_study
from repro.harness import cache
from repro.harness.plan import PreloadPlan
from repro.harness.spec import ResolvedStudy
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.provenance import validate_provenance
from repro.service import CampaignService
from repro.service.__main__ import main

HAMMER = "repro_probes_hammer_total"
PRELOAD = 1_000_000
TESTS = ("rowhammer",)


def _hammers() -> float:
    return REGISTRY.counter_values().get(HAMMER, 0.0)


@pytest.fixture(autouse=True)
def _preloaded_registry():
    REGISTRY.counter(HAMMER).inc(PRELOAD)


def test_sequential_api_jobs_carry_their_own_counters(tmp_path):
    with BackgroundServer(
        str(tmp_path / "store"), str(tmp_path / "state"), workers=1
    ) as server:
        client = ApiClient(port=server.port)
        for seed in (0, 1):
            before = _hammers()
            job = client.wait_job(client.submit_job({
                "modules": ["C5"], "tests": list(TESTS), "scale": "tiny",
                "seed": seed,
            })["id"])
            assert job["state"] == "completed"
            growth = _hammers() - before
            block = validate_provenance(
                client.get_study(job["fingerprint"])["provenance"]
            )
            assert block["fingerprint"] == job["fingerprint"]
            assert 0 < block["counters"][HAMMER] < PRELOAD
            # The job's own work: not the first job's, not the preload.
            assert block["counters"][HAMMER] == growth


def test_orchestrated_preload_is_stamped_with_its_own_counters(
    tiny_scale,
):
    request = ResolvedStudy(
        tests=TESTS, modules=("C5",), scale=tiny_scale, seed=0
    )
    before = _hammers()
    assert PreloadPlan(requests=(request,)).orchestrate(
        max_workers=1, progress=lambda message: None
    ) == []
    growth = _hammers() - before
    study = cache.cached_study(TESTS, ("C5",), tiny_scale, 0)
    block = validate_provenance(study.provenance)
    assert block["fingerprint"] == cache.study_fingerprint(
        TESTS, ("C5",), tiny_scale, 0
    )
    assert block["cache"] == "miss"
    assert 0 < block["counters"][HAMMER] < PRELOAD
    assert block["counters"][HAMMER] == growth


def test_pooled_campaign_counters_are_the_sum_of_worker_deltas(
    tiny_scale, monkeypatch
):
    deltas = []
    deliver = CampaignService._deliver_result

    def spy(self, state, unit, attempt, result, wall, delta, *args, **kw):
        deltas.append(delta)
        return deliver(self, state, unit, attempt, result, wall, delta,
                       *args, **kw)

    monkeypatch.setattr(CampaignService, "_deliver_result", spy)
    outcome = CampaignService(
        ["C5"], tests=TESTS, scale=tiny_scale, seed=0, max_workers=2,
    ).run()
    block = validate_provenance(outcome.study.provenance)
    assert len(deltas) == outcome.metrics.units_completed > 1
    workers = MetricsRegistry()
    for delta in deltas:
        workers.merge_snapshot(delta)
    assert block["counters"] == workers.counter_values()
    assert 0 < block["counters"][HAMMER] < PRELOAD


def test_service_cli_out_carries_the_study_fingerprint(tmp_path, capsys):
    out = str(tmp_path / "study.json")
    args = ["--modules", "C5", "--tests", *TESTS, "--scale", "tiny",
            "--seed", "3", "--no-checkpoint", "--quiet", "--out", out]
    assert main(args) == 0
    capsys.readouterr()
    block = validate_provenance(load_study(out).provenance)
    api = ApiServer(str(tmp_path / "store"), str(tmp_path / "state"),
                    workers=1)
    status, document = api.handle(
        "POST", "/v1/jobs", {},
        {"modules": ["C5"], "tests": list(TESTS), "scale": "tiny",
         "seed": 3},
        "default",
    )
    assert status == 202
    assert block["fingerprint"] == cache.study_fingerprint(
        TESTS, ("C5",), StudyScale.tiny(), 3
    ) == document["job"]["fingerprint"]
    assert block["cache"] == "miss"
    assert "scale" not in block
    assert 0 < block["counters"][HAMMER] < PRELOAD
