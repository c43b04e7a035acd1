"""API server: routes, round trips, SSE, restart recovery, determinism.

Route semantics are tested through :meth:`ApiServer.handle` (no socket
needed); the full HTTP/SSE path and the differential gate -- the job
the API serves must be bit-identical to a direct study run -- go over
a real socket via :class:`BackgroundServer` + :class:`ApiClient`.
"""

import http.client
import json
import os
import time

import pytest

from repro.api import ApiClient, ApiError, ApiServer, BackgroundServer
from repro.api.jobs import JobStateDir, run_job
from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.harness.cache import attach_provenance
from repro.obs.metrics import REGISTRY
from repro.service.orchestrator import CampaignService

PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


@pytest.fixture
def api(tmp_path):
    """An ApiServer with no workers started (sync route testing)."""
    return ApiServer(
        str(tmp_path / "store"), str(tmp_path / "state"), workers=1
    )


def _raw_request(port, method, path):
    """(status, content type, body bytes) of one plain HTTP request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return (
            response.status, response.getheader("Content-Type"),
            response.read(),
        )
    finally:
        connection.close()


def submit(api, payload=None, tenant="default"):
    status, document = api.handle(
        "POST", "/v1/jobs", {}, payload or dict(PAYLOAD), tenant
    )
    return status, document


class TestRoutes:
    def test_submit_accepts_with_202(self, api):
        status, document = submit(api)
        assert status == 202
        job = document["job"]
        assert job["state"] == "queued"
        assert job["fingerprint"]
        # persisted for restart recovery
        assert os.path.isfile(api.state.path(job["id"]))

    def test_submit_unknown_module_is_400(self, api):
        status, document = submit(api, {"modules": ["ZZ9"]})
        assert status == 400
        assert "ZZ9" in document["error"]

    def test_submit_over_quota_is_429(self, tmp_path):
        api = ApiServer(
            str(tmp_path / "s"), str(tmp_path / "st"), tenant_quota=1
        )
        assert submit(api, tenant="alice")[0] == 202
        status, document = submit(api, tenant="alice")
        assert status == 429
        assert "quota" in document["error"]
        assert submit(api, tenant="bob")[0] == 202  # per-tenant

    def test_poll_unknown_job_is_404(self, api):
        status, _ = api.handle("GET", "/v1/jobs/job-nope", {}, None, "t")
        assert status == 404

    def test_unknown_study_is_404(self, api):
        status, _ = api.handle(
            "GET", f"/v1/studies/{'0' * 32}", {}, None, "t"
        )
        assert status == 404

    def test_unknown_route_is_404(self, api):
        assert api.handle("GET", "/v2/nope", {}, None, "t")[0] == 404

    def test_wrong_method_is_405(self, api):
        assert api.handle("PUT", "/v1/jobs", {}, {}, "t")[0] == 405

    def test_job_listing_filters_by_tenant(self, api):
        submit(api, tenant="alice")
        submit(api, tenant="bob")
        status, document = api.handle(
            "GET", "/v1/jobs", {"tenant": "bob"}, None, "t"
        )
        assert status == 200
        assert [job["tenant"] for job in document["jobs"]] == ["bob"]

    def test_cancel_queued_job(self, api):
        _, document = submit(api)
        job_id = document["job"]["id"]
        status, document = api.handle(
            "POST", f"/v1/jobs/{job_id}/cancel", {}, None, "t"
        )
        assert status == 200
        assert document["job"]["state"] == "cancelled"
        # cancelling again is idempotent
        status, _ = api.handle(
            "POST", f"/v1/jobs/{job_id}/cancel", {}, None, "t"
        )
        assert status == 200

    def test_healthz_reports_config(self, api):
        status, document = api.handle("GET", "/v1/healthz", {}, None, "t")
        assert status == 200
        assert document["status"] == "ok"
        assert document["workers"] == 1


class TestRestartRecovery:
    def test_interrupted_jobs_resume_after_restart(self, tmp_path):
        store_dir = str(tmp_path / "store")
        state_dir = str(tmp_path / "state")
        first = ApiServer(store_dir, state_dir)  # workers never started
        _, document = submit(first)
        job_id = document["job"]["id"]
        fingerprint = document["job"]["fingerprint"]
        # "Restart": a new server over the same state recovers the job.
        second = ApiServer(store_dir, state_dir)
        assert second._recovered == 1
        recovered = second.queue.get(job_id)
        assert recovered is not None and recovered.state == "queued"
        second.start_workers()
        try:
            client_side = _wait_terminal(second, job_id)
        finally:
            second.stop_workers()
        assert client_side.state == "completed"
        assert second.store.contains(fingerprint)

    def test_terminal_jobs_stay_queryable_after_restart(self, tmp_path):
        store_dir = str(tmp_path / "store")
        state_dir = str(tmp_path / "state")
        first = ApiServer(store_dir, state_dir)
        _, document = submit(first)
        job_id = document["job"]["id"]
        first.queue.cancel(job_id)
        first.state.save(first.queue.get(job_id))
        second = ApiServer(store_dir, state_dir)
        assert second._recovered == 0  # nothing to re-queue
        status, document = second.handle(
            "GET", f"/v1/jobs/{job_id}", {}, None, "t"
        )
        assert status == 200
        assert document["job"]["state"] == "cancelled"


class TestAdmissionHits:
    """A request whose study the store holds is answered at admission:
    ``200`` with the job completed, one persist, no queue, no worker --
    and still everything a job records."""

    @pytest.fixture
    def hits(self, published_store, tmp_path):
        """A server (no workers) whose store answers PAYLOAD."""
        return ApiServer(published_store, str(tmp_path / "state"),
                         workers=1)

    def test_hit_is_completed_in_the_submit_response(self, hits):
        status, document = submit(hits)
        assert status == 200
        job = document["job"]
        assert (job["state"], job["cache"]) == ("completed", "hit")
        stamps = [job["created"], job["started"], job["finished"]]
        assert all(isinstance(stamp, float) for stamp in stamps)
        assert stamps == sorted(stamps)
        assert hits.queue.get(job["id"]).terminal
        assert hits.queue.depth() == 0

    def test_hit_is_persisted_once(self, hits, monkeypatch):
        saves = []
        save = JobStateDir.save

        def counting_save(self, job):
            saves.append(job.state)
            save(self, job)

        monkeypatch.setattr(JobStateDir, "save", counting_save)
        assert submit(hits)[0] == 200
        assert saves == ["completed"]

    def test_hit_counts_as_a_completed_job(self, hits):
        def seconds_observed():
            return REGISTRY.histogram(
                "repro_api_job_seconds", labels=("tenant",)
            ).labels(tenant="acme").count

        def queue_waits():
            return REGISTRY.histogram(
                "repro_api_queue_wait_seconds", labels=("tenant",)
            ).labels(tenant="acme").count

        completed = REGISTRY.counter("repro_api_jobs_completed_total")
        before = (completed.value, seconds_observed(), queue_waits())
        assert submit(hits, tenant="acme")[0] == 200
        # Completed and timed, but never queued: no queue wait.
        assert (completed.value, seconds_observed(), queue_waits()) == (
            before[0] + 1, before[1] + 1, before[2],
        )

    def test_hit_stays_terminal_and_queryable_after_restart(
        self, hits, published_store, tmp_path
    ):
        _, document = submit(hits)
        job_id = document["job"]["id"]
        again = ApiServer(published_store, str(tmp_path / "state"))
        assert again._recovered == 0
        status, document = again.handle(
            "GET", f"/v1/jobs/{job_id}", {}, None, "t"
        )
        assert status == 200
        assert (document["job"]["state"], document["job"]["cache"]) == (
            "completed", "hit",
        )
        assert again.queue.depth() == 0

    def test_hit_over_quota_is_429(self, published_store, tmp_path):
        api = ApiServer(published_store, str(tmp_path / "state"),
                        tenant_quota=1)
        assert submit(api, {**PAYLOAD, "seed": 1}, tenant="alice")[0] == 202
        status, document = submit(api, tenant="alice")
        assert status == 429
        assert "quota" in document["error"]
        assert submit(api, tenant="bob")[0] == 200

    def test_hit_overtakes_queued_misses(self, hits):
        misses = [
            submit(hits, {**PAYLOAD, "seed": seed, "priority": 9})[1]["job"]
            for seed in (1, 2)
        ]
        assert [job["state"] for job in misses] == ["queued", "queued"]
        status, document = submit(hits)
        assert (status, document["job"]["state"]) == (200, "completed")
        assert hits.queue.depth() == 2
        assert all(
            hits.queue.get(job["id"]).state == "queued" for job in misses
        )
        popped = [hits.queue.pop(timeout=0.1).id for _ in misses]
        assert popped == [job["id"] for job in misses]

    def test_cancelling_a_hit_is_409(self, hits):
        job_id = submit(hits)[1]["job"]["id"]
        status, document = hits.handle(
            "POST", f"/v1/jobs/{job_id}/cancel", {}, None, "t"
        )
        assert status == 409
        assert document["job"]["state"] == "completed"

    def test_duplicate_miss_in_the_queue_ends_as_a_hit(self, api):
        """Both submitted before the study exists: both queue, and the
        second finds the first's study when the worker runs it."""
        first, second = (submit(api)[1]["job"] for _ in range(2))
        assert (first["state"], second["state"]) == ("queued", "queued")
        for job_id in (first["id"], second["id"]):
            job = api.queue.pop(timeout=0.1)
            assert job.id == job_id
            run_job(job, api.store, api.checkpoint_base)
        assert api.queue.get(first["id"]).cache == "miss"
        duplicate = api.queue.get(second["id"])
        assert (duplicate.state, duplicate.cache) == ("completed", "hit")

    def test_identical_misses_in_flight_run_one_campaign(
        self, tmp_path, monkeypatch
    ):
        """Two workers pop two identical misses at once: the second
        waits for the first's campaign and answers from the store."""
        api = ApiServer(
            str(tmp_path / "store"), str(tmp_path / "state"), workers=2
        )
        runs = []
        run = CampaignService.run

        def gated_run(service, *args, **kwargs):
            runs.append(service.fingerprint)
            # Hold the campaign until the duplicate has been popped too.
            deadline = time.monotonic() + 30.0
            while api.queue.depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # for its worker to reach the store check
            return run(service, *args, **kwargs)

        monkeypatch.setattr(CampaignService, "run", gated_run)
        first, second = (submit(api)[1]["job"] for _ in range(2))
        api.start_workers()
        try:
            jobs = [_wait_terminal(api, job["id"]) for job in (first, second)]
        finally:
            api.stop_workers()
        assert len(runs) == 1
        # Either worker may take the lock first.
        assert sorted((job.state, job.cache) for job in jobs) == [
            ("completed", "hit"), ("completed", "miss"),
        ]


def _wait_terminal(api, job_id, timeout=300.0):
    import time

    from repro.obs import clock

    deadline = clock.monotonic() + timeout
    while True:
        job = api.queue.get(job_id)
        if job.terminal:
            return job
        if clock.monotonic() >= deadline:
            raise TimeoutError(f"job {job_id} still {job.state}")
        time.sleep(0.02)


class TestHttpRoundTrip:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("api-http")
        with BackgroundServer(
            str(tmp / "store"), str(tmp / "state"), workers=2
        ) as background:
            yield background

    @pytest.fixture(scope="class")
    def client(self, server):
        return ApiClient(port=server.port)

    @pytest.fixture(scope="class")
    def finished_job(self, client):
        job = client.submit_job(dict(PAYLOAD))
        return client.wait_job(job["id"])

    def test_job_completes_over_http(self, finished_job):
        assert finished_job["state"] == "completed"
        assert finished_job["metrics"]["units_completed"] > 0

    def test_served_study_bit_identical_to_direct_run(
        self, client, finished_job
    ):
        """The acceptance differential: same request -> the API serves
        exactly the study a direct runner invocation produces."""
        served = client.get_study(finished_job["fingerprint"])
        direct = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=PAYLOAD["seed"]
        ).run(modules=PAYLOAD["modules"], tests=tuple(PAYLOAD["tests"]))
        attach_provenance(
            direct, PAYLOAD["tests"], PAYLOAD["modules"],
            PAYLOAD["seed"], wall_seconds=0.0,
        )
        direct_doc = study_to_dict(direct)
        assert (
            served["provenance"]["fingerprint"]
            == direct_doc["provenance"]["fingerprint"]
            == finished_job["fingerprint"]
        )
        strip = lambda doc: {
            key: value for key, value in doc.items()
            if key != "provenance"
        }
        assert strip(served) == strip(direct_doc)

    def test_study_body_is_the_stored_entry(self, server, finished_job):
        """GET /v1/studies/<fp> sends the entry file's bytes as they are;
        an unknown fingerprint stays 404 and other methods 405."""
        fingerprint = finished_job["fingerprint"]
        with open(server.api.store.path(fingerprint), "rb") as handle:
            stored = handle.read()
        status, content_type, body = _raw_request(
            server.port, "GET", f"/v1/studies/{fingerprint}"
        )
        assert (status, content_type) == (200, "application/json")
        assert body == stored
        status, _, body = _raw_request(
            server.port, "GET", f"/v1/studies/{'0' * 32}"
        )
        assert status == 404
        assert "no study published" in json.loads(body)["error"]
        status, _, body = _raw_request(
            server.port, "DELETE", f"/v1/studies/{fingerprint}"
        )
        assert status == 405
        assert json.loads(body) == {"error": "method not allowed"}

    def test_sse_replays_full_history(self, client, finished_job):
        """A subscriber arriving after completion still sees the whole
        campaign story, every record stamped with the job id."""
        records = list(client.events(finished_job["id"]))
        kinds = [record["event"] for record in records]
        assert kinds[0] == "campaign_started"
        assert "unit_finished" in kinds
        assert kinds[-1] == "job_finished"
        assert all(r["job"] == finished_job["id"] for r in records)

    def test_resubmission_hits_store(self, client, finished_job):
        job = client.submit_job(dict(PAYLOAD))
        assert job["state"] == "completed"
        assert job["cache"] == "hit"
        assert job["fingerprint"] == finished_job["fingerprint"]
        assert client.wait_job(job) is job  # terminal: no request

    def test_hit_streams_only_its_finish(self, client, finished_job):
        job = client.submit_job(dict(PAYLOAD))
        records = list(client.events(job["id"]))
        assert [
            (record["event"], record["state"], record["cache"])
            for record in records
        ] == [("job_finished", "completed", "hit")]
        assert records[0]["job"] == job["id"]

    def test_hit_moves_the_ops_completed_count_by_one(
        self, client, finished_job
    ):
        def completed():
            return client.ops()["queue"]["jobs_by_state"]["completed"]

        before = completed()
        assert client.submit_job(dict(PAYLOAD))["cache"] == "hit"
        assert completed() == before + 1

    def test_error_statuses_over_http(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.submit_job({"modules": ["ZZ9"]})
        assert excinfo.value.status == 400
        with pytest.raises(ApiError) as excinfo:
            client.get_job("job-nope")
        assert excinfo.value.status == 404

    def test_metrics_exposition(self, client):
        text = client.metrics_text()
        assert "repro_api_requests_total" in text
        assert "repro_api_request_seconds" in text

    def test_health_over_http(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["studies"] >= 1
