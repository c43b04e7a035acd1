#!/usr/bin/env python3
"""API load benchmark -> the ``load`` section of BENCH_service.json.

Drives many concurrent HTTP requests (``make service-load``; >= 1000
submitted jobs by default) against an **in-process**
:class:`~repro.api.server.BackgroundServer` running tiny-scale
campaigns, and records:

* per-request latency (p50 / p99, milliseconds) across every submit,
  poll, and study fetch;
* sustained request throughput and end-to-end completed jobs/sec;
* the **deterministic gate**: the study served by
  ``GET /v1/studies/<fingerprint>`` must be bit-identical (same
  provenance fingerprint, equal records) to a direct
  ``CharacterizationStudy.run`` of the same request in this process.

The first job computes the campaign and publishes it to the
content-addressed store; every identical request admitted after that
is answered from the store at admission (``200``, already
``completed``, nothing to poll), and those admitted before it queue
(``202``) and find the study when a worker runs them -- so the run
measures the *service* (HTTP front end, queue, persistence, store
reads), not N redundant campaigns. That is the intended production
shape: the store is the memoization layer.

``--smoke`` shrinks the job count for CI (``make bench-smoke``) while
keeping the concurrency structure and the deterministic gate intact.

Run:  PYTHONPATH=src python benchmarks/bench_service_load.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import tempfile
import time

try:
    import repro  # noqa: F401
except ImportError:  # launched from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.api.server import BackgroundServer
from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.harness.cache import attach_provenance
from repro.obs.metrics import REGISTRY

#: The campaign every job requests (tiny scale: single-digit seconds).
JOB_PAYLOAD = {
    "modules": ["C5"],
    "tests": ["rowhammer"],
    "scale": "tiny",
    "seed": 0,
}

#: Concurrent in-flight connections (2 fds per connection with both
#: ends in-process; 256 stays far under default fd limits).
CONCURRENCY = 256

DEFAULT_JOBS = 1000
SMOKE_JOBS = 64


async def _request(host, port, method, path, payload=None, latencies=None):
    """One HTTP/1.1 request over a fresh connection; returns
    (status, decoded JSON body)."""
    started = time.monotonic()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"X-Repro-Tenant: bench\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read(-1)  # server closes after one response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    if latencies is not None:
        latencies.append(time.monotonic() - started)
    head, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    document = json.loads(payload_bytes) if payload_bytes else {}
    return status, document


async def _job_round_trip(host, port, semaphore, latencies, states):
    """Submit one job, poll it to a terminal state unless the store
    answered it at admission, fetch its study."""
    async with semaphore:
        status, document = await _request(
            host, port, "POST", "/v1/jobs", JOB_PAYLOAD, latencies
        )
        job = document.get("job", {})
        admitted = (status, job.get("state"), job.get("cache"))
        assert admitted in (
            (202, "queued", None), (200, "completed", "hit"),
        ), f"submit returned {status}: {document}"
        while job["state"] not in ("completed", "failed", "cancelled"):
            await asyncio.sleep(0.02)
            status, document = await _request(
                host, port, "GET", f"/v1/jobs/{job['id']}",
                latencies=latencies,
            )
            assert status == 200, f"poll returned {status}"
            job = document["job"]
        states.append(job["state"])
        status, _ = await _request(
            host, port, "GET", f"/v1/studies/{job['fingerprint']}",
            latencies=latencies,
        )
        assert status == 200, f"study fetch returned {status}"
        return job


async def _drive(host, port, jobs):
    semaphore = asyncio.Semaphore(CONCURRENCY)
    latencies, states = [], []
    started = time.monotonic()
    results = await asyncio.gather(*[
        _job_round_trip(host, port, semaphore, latencies, states)
        for _ in range(jobs)
    ])
    wall = time.monotonic() - started
    return results, latencies, states, wall


def _quantile_ms(latencies, q) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return round(ordered[index] * 1000, 3)


def deterministic_gate(server, job) -> dict:
    """Assert the API-served study is bit-identical to a direct run.

    Same request => same provenance fingerprint => byte-equal records;
    only the provenance block's cost fields (wall clock, counters) may
    differ between the two paths.
    """
    served = server.api.store.load_dict(job["fingerprint"])
    assert served is not None, "store lost the published study"
    direct = CharacterizationStudy(
        scale=StudyScale.tiny(), seed=JOB_PAYLOAD["seed"]
    ).run(
        modules=JOB_PAYLOAD["modules"], tests=tuple(JOB_PAYLOAD["tests"])
    )
    attach_provenance(
        direct, JOB_PAYLOAD["tests"], JOB_PAYLOAD["modules"],
        JOB_PAYLOAD["seed"], wall_seconds=0.0,
    )
    direct_doc = study_to_dict(direct)
    assert (
        direct_doc["provenance"]["fingerprint"]
        == served["provenance"]["fingerprint"]
        == job["fingerprint"]
    ), "API fingerprint diverged from the direct request hash"
    served_body = {k: v for k, v in served.items() if k != "provenance"}
    direct_body = {k: v for k, v in direct_doc.items() if k != "provenance"}
    assert served_body == direct_body, (
        "API-served study is not bit-identical to the direct run"
    )
    return {
        "fingerprint": job["fingerprint"],
        "records": sum(
            len(module["rowhammer"])
            for module in served["modules"].values()
        ),
    }


def run_load(jobs: int) -> dict:
    tmp = tempfile.mkdtemp(prefix="repro-api-load-")
    with BackgroundServer(
        os.path.join(tmp, "store"), os.path.join(tmp, "state"),
        workers=2, tenant_quota=jobs + CONCURRENCY,
    ) as server:
        results, latencies, states, wall = asyncio.run(
            _drive("127.0.0.1", server.port, jobs)
        )
        failed = [state for state in states if state != "completed"]
        assert not failed, f"{len(failed)} job(s) not completed: {failed[:5]}"
        cache_hits = sum(
            1 for job in results if job.get("cache") == "hit"
        )
        gate = deterministic_gate(server, results[0])
    counters = REGISTRY.counter_values()
    return {
        "jobs": jobs,
        "requests": len(latencies),
        "concurrency": CONCURRENCY,
        "wall_seconds": round(wall, 3),
        "p50_ms": _quantile_ms(latencies, 0.50),
        "p99_ms": _quantile_ms(latencies, 0.99),
        "mean_ms": round(statistics.fmean(latencies) * 1000, 3),
        "requests_per_sec": round(len(latencies) / wall, 1),
        "jobs_per_sec": round(jobs / wall, 1),
        "store_cache_hits": cache_hits,
        "api_requests_counter": int(
            counters.get("repro_api_requests_total", 0)
        ),
        "deterministic": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(
        os.path.dirname(__file__), "BENCH_service.json"
    )
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=f"jobs to submit (default {DEFAULT_JOBS}; "
             f"--smoke uses {SMOKE_JOBS})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI shape: fewer jobs, same concurrency structure and "
             "deterministic gate",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs or (SMOKE_JOBS if args.smoke else DEFAULT_JOBS)

    print(f"service load: {jobs} concurrent tiny-campaign jobs against "
          f"an in-process API server (max {CONCURRENCY} connections "
          f"in flight)...")
    payload = run_load(jobs)

    document = {}
    if os.path.isfile(args.out):
        try:
            with open(args.out) as handle:
                document = json.load(handle)
        except ValueError:
            document = {}
    document["load"] = payload
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    for key in ("jobs", "requests", "wall_seconds", "p50_ms", "p99_ms",
                "requests_per_sec", "jobs_per_sec", "store_cache_hits"):
        print(f"{key:>18}: {payload[key]}")
    print(f"wrote {args.out}")
    print("service load: every job completed; API-served study "
          "bit-identical to the direct run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
