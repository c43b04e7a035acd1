"""Observability surface of the API: trace propagation at admission,
the ``/v1/ops`` rollup, per-tenant SLO metrics, and the stitched
cross-process trace served by ``GET /v1/jobs/<id>/trace``.
"""

import json

import pytest

from repro.api.jobs import Job, JobSpec, run_job
from repro.api.server import ApiServer
from repro.obs import context as obs_context
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


@pytest.fixture(autouse=True)
def _clean_tracer():
    """API tests drive the process-global tracer; keep it isolated."""
    TRACER.disable()
    TRACER.reset()
    obs_context.clear_fragments()
    yield
    TRACER.disable()
    TRACER.reset()
    obs_context.clear_fragments()


@pytest.fixture
def api(tmp_path):
    return ApiServer(
        str(tmp_path / "store"), str(tmp_path / "state"), workers=1
    )


def submit(api, payload=None, tenant="default"):
    return api.handle(
        "POST", "/v1/jobs", {}, payload or dict(PAYLOAD), tenant
    )


class TestAdmissionTrace:
    def test_every_admitted_job_gets_a_trace_context(self, api):
        status, document = submit(api)
        assert status == 202
        trace = document["job"]["trace"]
        assert len(trace["trace_id"]) == 32

    def test_trace_ids_are_distinct_per_job(self, api):
        first = submit(api)[1]["job"]["trace"]["trace_id"]
        second = submit(api)[1]["job"]["trace"]["trace_id"]
        assert first != second

    def test_enabled_tracer_records_the_admission_span(self, api):
        TRACER.enable()
        _, document = submit(api, tenant="acme")
        job = document["job"]
        (span,) = [s for s in TRACER.spans if s.name == "api.admission"]
        assert span.attrs["tenant"] == "acme"
        assert span.attrs["job"] == job["id"]
        # The job's context re-parents downstream spans under the
        # admission span, inside the admission's own trace.
        assert job["trace"]["span_id"] == span.span_id
        assert job["trace"]["trace_id"] == span.trace_id

    def test_trace_context_survives_persistence(self, api):
        _, document = submit(api)
        job_id = document["job"]["id"]
        (loaded,) = [
            job for job in api.state.load_all() if job.id == job_id
        ]
        assert loaded.trace == document["job"]["trace"]

    def test_admission_hit_has_only_its_admission_span(
        self, published_store, tmp_path
    ):
        TRACER.enable()
        hits = ApiServer(published_store, str(tmp_path / "state"))
        status, document = submit(hits)
        assert status == 200
        spans = [
            span for span in TRACER.spans
            if span.attrs.get("job") == document["job"]["id"]
        ]
        assert [span.name for span in spans] == ["api.admission"]
        assert spans[0].attrs["cache"] == "hit"

    def test_disabled_tracer_leaves_span_id_unset(self, api):
        _, document = submit(api)
        assert document["job"]["trace"]["span_id"] is None


class TestOpsEndpoint:
    def test_ops_rollup_shape(self, api):
        submit(api, tenant="acme")
        status, document = api.handle("GET", "/v1/ops", {}, None, "x")
        assert status == 200
        assert document["queue"]["depth"] == 1
        assert document["queue"]["jobs_by_state"] == {"queued": 1}
        acme = document["tenants"]["acme"]
        assert acme["active"] == 1 and acme["queued"] == 1
        assert acme["quota"] == api.queue.tenant_quota
        assert document["workers"]["configured"] == 1
        assert document["workers"]["alive"] == 0  # not started
        assert document["tracing"]["enabled"] is False
        assert document["flight_recorder"]["recent"] == []
        assert "cache" in document and "studies" in document

    def test_ops_lists_recent_flight_recorder_dumps(self, api):
        recorder = FlightRecorder()
        recorder.configure(f"{api.flight_base}/job-x")
        recorder.record("fault", {"kind": "power_droop"})
        recorder.dump("hang_injected")
        _, document = api.handle("GET", "/v1/ops", {}, None, "x")
        (dump,) = document["flight_recorder"]["recent"]
        assert dump["reason"] == "hang_injected"
        assert dump["entries"] == 1

    def test_ops_is_method_checked(self, api):
        status, _ = api.handle("POST", "/v1/ops", {}, None, "x")
        assert status == 405

    def test_ops_html_renders_tenants_and_escapes(self, api):
        submit(api, tenant="a<b")
        page = api._ops_html()
        assert page.startswith("<!doctype html>")
        assert "a&lt;b" in page
        assert "queue depth 1" in page

    def test_ops_document_is_json_serializable(self, api):
        submit(api)
        _, document = api.handle("GET", "/v1/ops", {}, None, "x")
        assert json.loads(json.dumps(document)) == document


class TestQueueWaitMetric:
    def test_pop_observes_per_tenant_queue_wait(self, api):
        family = REGISTRY.histogram(
            "repro_api_queue_wait_seconds", labels=("tenant",)
        )
        before = family.labels(tenant="acme").count
        submit(api, tenant="acme")
        job = api.queue.pop(timeout=1.0)
        assert job is not None
        assert family.labels(tenant="acme").count == before + 1


class TestJobTraceEndpoint:
    def test_unknown_job_is_404(self, api):
        status, document = api.handle(
            "GET", "/v1/jobs/nope/trace", {}, None, "x"
        )
        assert status == 404
        assert "nope" in document["error"]

    def test_job_without_context_is_404(self, api):
        job = Job.create(JobSpec.from_payload(dict(PAYLOAD)), "t")
        job.trace = None
        api.queue.adopt(job)
        status, document = api.handle(
            "GET", f"/v1/jobs/{job.id}/trace", {}, None, "x"
        )
        assert status == 404
        assert "trace" in document["error"]

    def test_stitched_trace_spans_api_to_orchestrator(self, api):
        TRACER.enable()
        _, document = submit(api)
        job_id = document["job"]["id"]
        job = api.queue.pop(timeout=1.0)
        run_job(job, api.store, api.checkpoint_base,
                flight_base=api.flight_base)
        assert job.state == "completed"
        status, payload = api.handle(
            "GET", f"/v1/jobs/{job_id}/trace", {}, None, "x"
        )
        assert status == 200
        assert payload["trace_id"] == document["job"]["trace"]["trace_id"]
        events = payload["trace"]["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        # HTTP admission, the worker-thread job span, and the
        # orchestrator's campaign all stitched into one trace.
        assert {"api.admission", "api.job", "campaign"} <= names
        traces = {
            e["args"]["trace"] for e in events if e["ph"] == "X"
        }
        assert traces == {payload["trace_id"]}
        # api.job parents under the admission span recorded earlier
        # on another thread.
        by_name = {
            e["name"]: e for e in events if e["ph"] == "X"
        }
        assert by_name["api.job"]["args"]["parent_id"] == (
            document["job"]["trace"]["span_id"]
        )

    def test_second_jobs_trace_excludes_the_first(self, api):
        TRACER.enable()
        first = submit(api)[1]["job"]
        second = submit(api, {**PAYLOAD, "seed": 1})[1]["job"]
        for _ in range(2):
            job = api.queue.pop(timeout=1.0)
            run_job(job, api.store, api.checkpoint_base)
        _, payload = api.handle(
            "GET", f"/v1/jobs/{second['id']}/trace", {}, None, "x"
        )
        job_spans = [
            e for e in payload["trace"]["traceEvents"]
            if e["ph"] == "X" and e["name"] == "api.job"
        ]
        assert [s["args"]["job"] for s in job_spans] == [second["id"]]
        assert first["trace"]["trace_id"] != second["trace"]["trace_id"]


class TestPooledJobStitching:
    def test_pooled_job_yields_one_trace_across_processes(self, api):
        """The acceptance path: an API-submitted ``workers: 2`` job
        produces a single stitched trace -- one trace id from HTTP
        admission through the pool workers' work-unit spans, with
        cross-process flow events over the queue hop."""
        TRACER.enable()
        _, document = submit(api, {**PAYLOAD, "workers": 2})
        job_id = document["job"]["id"]
        trace_id = document["job"]["trace"]["trace_id"]
        job = api.queue.pop(timeout=1.0)
        run_job(job, api.store, api.checkpoint_base,
                flight_base=api.flight_base)
        assert job.state == "completed", job.error
        _, payload = api.handle(
            "GET", f"/v1/jobs/{job_id}/trace", {}, None, "x"
        )
        events = payload["trace"]["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {
            "api.admission", "api.job", "campaign", "work-unit",
        } <= names
        assert {e["args"]["trace"] for e in slices} == {trace_id}
        # Worker spans were recorded in other processes.
        pids = {e["pid"] for e in slices}
        assert len(pids) >= 2
        # The queue hop renders as flow pairs into the worker lanes.
        flows = [e for e in events if e.get("cat") == "repro.flow"]
        assert flows and {f["ph"] for f in flows} == {"s", "f"}
        # Worker lanes are labeled.
        labels = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert any("worker" in label for label in labels)
