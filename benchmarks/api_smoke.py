#!/usr/bin/env python3
"""API smoke check (``make api-smoke``): one full service round trip.

Boots an in-process :class:`~repro.api.server.BackgroundServer` and
asserts, end to end:

* submit -> poll -> SSE -> study fetch works for a tiny campaign;
* the served study carries the request's provenance fingerprint and is
  bit-identical to a direct ``CharacterizationStudy.run`` (the API's
  determinism contract);
* an identical resubmission is answered from the content-addressed
  store at admission (``completed``, ``cache: hit``, no recompute and
  no poll);
* the error surface holds: 400 for unknown ids, 404 for unknown
  jobs/fingerprints, 429 past the tenant quota, 409 cancelling a
  finished job;
* connections persist: a client session of several requests uses
  exactly one connection, and a ``Connection: close`` request is
  answered, then closed;
* both CLIs (``python -m repro.api``, ``python -m repro.service``)
  exit 2 on unknown module / experiment ids -- the shared
  ``repro.harness.validation`` contract.

Run:  PYTHONPATH=src python benchmarks/api_smoke.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile

try:
    import repro  # noqa: F401
except ImportError:  # launched from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.api import ApiClient, ApiError, BackgroundServer
from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.harness.cache import attach_provenance
from repro.obs.metrics import REGISTRY

PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


def check_round_trip(client: ApiClient) -> dict:
    job = client.submit_job(PAYLOAD)
    assert job["state"] in ("queued", "running"), job["state"]
    events = list(client.events(job["id"]))
    kinds = [event["event"] for event in events]
    assert "campaign_started" in kinds and "job_finished" in kinds, kinds
    assert all(event["job"] == job["id"] for event in events)
    job = client.wait_job(job["id"])
    assert job["state"] == "completed", (job["state"], job["error"])
    print(f"  round trip: {len(events)} SSE events, "
          f"{job['metrics']['units_completed']} unit(s), cache miss")
    return job


def check_determinism(client: ApiClient, job: dict) -> None:
    served = client.get_study(job["fingerprint"])
    direct = CharacterizationStudy(
        scale=StudyScale.tiny(), seed=PAYLOAD["seed"]
    ).run(modules=PAYLOAD["modules"], tests=tuple(PAYLOAD["tests"]))
    attach_provenance(
        direct, PAYLOAD["tests"], PAYLOAD["modules"], PAYLOAD["seed"],
        wall_seconds=0.0,
    )
    direct_doc = study_to_dict(direct)
    assert (
        served["provenance"]["fingerprint"]
        == direct_doc["provenance"]["fingerprint"]
        == job["fingerprint"]
    )
    strip = lambda doc: {k: v for k, v in doc.items() if k != "provenance"}
    assert strip(served) == strip(direct_doc), (
        "API-served study diverged from the direct run"
    )
    print(f"  determinism: served study bit-identical "
          f"(fingerprint {job['fingerprint'][:12]}...)")


class CountingClient(ApiClient):
    """An :class:`ApiClient` that counts the requests it makes."""

    requests = 0

    def request(self, *args, **kwargs):
        self.requests += 1
        return super().request(*args, **kwargs)


def check_store_short_circuit(client: ApiClient) -> None:
    counting = CountingClient(port=client.port, tenant=client.tenant)
    job = counting.submit_job(PAYLOAD)
    assert job["state"] == "completed" and job["cache"] == "hit", (
        job["state"], job["cache"],
    )
    assert counting.wait_job(job) == job
    assert counting.requests == 1, (
        f"{counting.requests - 1} poll(s) for a job answered at admission"
    )
    print("  short circuit: identical resubmission answered from the "
          "store at admission, no poll")


def check_errors(client: ApiClient, finished_job: dict) -> None:
    def expect(status, fn, *args):
        try:
            fn(*args)
        except ApiError as error:
            assert error.status == status, (error.status, status)
            return
        raise AssertionError(f"expected HTTP {status}")

    expect(400, client.submit_job, {"modules": ["ZZ9"]})
    expect(400, client.submit_job, {"experiment": "nope"})
    expect(400, client.submit_job, {**PAYLOAD, "scale": "galactic"})
    expect(404, client.get_job, "job-doesnotexist")
    expect(404, client.get_study, "0" * 32)
    expect(409, client.cancel_job, finished_job["id"])
    print("  errors: 400 / 404 / 409 mapping holds")


def check_transport(port: int) -> None:
    def connections():
        return REGISTRY.counter_values()["repro_api_connections_total"]

    before = connections()
    with ApiClient(port=port) as client:
        for _ in range(4):
            client.health()
        client.list_jobs()
        client.ops()
    assert connections() == before + 1, (
        f"a 6-request session used {connections() - before} connections"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        received = b""
        while True:  # until the server closes
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    head = received.partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert head[0] == b"HTTP/1.1 200 OK", head[0]
    assert b"Connection: close" in head, head
    print("  transport: 6 requests on one connection; Connection: close "
          "answered, then closed")


def check_quota() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-api-quota-")
    with BackgroundServer(
        os.path.join(tmp, "store"), os.path.join(tmp, "state"),
        workers=1, tenant_quota=1,
    ) as server:
        client = ApiClient(port=server.port)
        first = client.submit_job(PAYLOAD)
        try:
            client.submit_job(PAYLOAD)
        except ApiError as error:
            assert error.status == 429, error.status
        else:
            raise AssertionError("expected HTTP 429 past the quota")
        client.wait_job(first["id"])
    print("  quota: second active job from one tenant rejected with 429")


def check_cli_exit_codes() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")]
    )
    cases = [
        (["-m", "repro.api", "--modules", "ZZ9"], 2),
        (["-m", "repro.api", "--experiments", "nope"], 2),
        (["-m", "repro.service", "--modules", "ZZ9"], 2),
        (["-m", "repro.harness.runner", "not-an-experiment"], 2),
    ]
    for args, expected in cases:
        proc = subprocess.run(
            [sys.executable, *args], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == expected, (
            f"{' '.join(args)} exited {proc.returncode}, expected "
            f"{expected}; stderr: {proc.stderr[-200:]}"
        )
    print("  exit codes: repro.api / repro.service / runner all exit 2 "
          "on unknown ids")


def main() -> int:
    print("api smoke: one tiny campaign through the full HTTP surface...")
    tmp = tempfile.mkdtemp(prefix="repro-api-smoke-")
    with BackgroundServer(
        os.path.join(tmp, "store"), os.path.join(tmp, "state"), workers=2,
    ) as server:
        client = ApiClient(port=server.port)
        health = client.health()
        assert health["status"] == "ok", health
        job = check_round_trip(client)
        check_determinism(client, job)
        check_store_short_circuit(client)
        check_errors(client, job)
        check_transport(server.port)
        assert "repro_api_requests_total" in client.metrics_text()
    check_quota()
    check_cli_exit_codes()
    print("api smoke: submit/SSE/poll/fetch, determinism, store "
          "short-circuit, error mapping, transport, CLI exit codes all OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
