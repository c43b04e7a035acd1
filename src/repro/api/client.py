"""Blocking Python client for the characterization API.

A thin, dependency-free (stdlib ``http.client``) wrapper used by the
round-trip tests, the load benchmark's correctness gate, and anyone
scripting against a running ``python -m repro.api``. Each thread that
uses a client keeps one persistent HTTP/1.1 connection, opened on its
first request; :meth:`ApiClient.close` (or leaving a ``with`` block)
closes them. A request that finds its connection closed by the server
(an idle timeout) before any answer is sent once more, on a fresh
connection: the server closes only between requests, so it never read
the first copy. The SSE stream (:meth:`ApiClient.events`) has its own
connection.

::

    with ApiClient(port=8642) as client:
        job = client.submit_job({"modules": ["C5"],
                                 "tests": ["rowhammer"], "scale": "tiny"})
        job = client.wait_job(job)  # a store hit is already completed
        study = client.get_study(job["fingerprint"])

Non-2xx responses raise :class:`ApiError` carrying the HTTP status and
the server's JSON error body.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs import clock

#: Job states a job never leaves.
_TERMINAL = ("completed", "failed", "cancelled")

#: How a request fails on a connection the server has closed.
_STALE = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class ApiError(ReproError):
    """A non-2xx API response."""

    def __init__(self, status: int, body: Any):
        self.status = status
        self.body = body
        detail = body.get("error") if isinstance(body, dict) else body
        super().__init__(f"HTTP {status}: {detail}")


class ApiClient:
    """Blocking client for one server address; safe to share across
    threads (each gets its own connection)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 tenant: str = "default", timeout: float = 60.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread, its connection), for close().
        self._connections: List[Tuple[threading.Thread,
                                      http.client.HTTPConnection]] = []

    def __enter__(self) -> "ApiClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections = list(self._connections)
        for _, connection in connections:
            connection.close()

    # -- transport --------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it connects on first use,
        and again after the server or :meth:`close` closed it). Making
        one closes those of threads that have finished."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._lock:
                kept = [(threading.current_thread(), connection)]
                for thread, other in self._connections:
                    if thread.is_alive():
                        kept.append((thread, other))
                    else:  # its thread has finished
                        other.close()
                self._connections = kept
        return connection

    def request(
        self, method: str, path: str,
        payload: Optional[Dict] = None,
    ) -> Any:
        """One request/response cycle; raises :class:`ApiError` on
        non-2xx, returns the decoded JSON (or raw text) body."""
        body = json.dumps(payload) if payload is not None else None
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Tenant": self.tenant,
        }
        connection = self._connection()
        while True:
            reused = connection.sock is not None
            response = None
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read().decode("utf-8")
                break
            except BaseException as error:
                connection.close()
                # The server closes only between requests: a reused
                # connection that fails before any answer never carried
                # this request, so it goes once more on a fresh one.
                if not (
                    reused and response is None
                    and isinstance(error, _STALE)
                ):
                    raise
        content_type = response.getheader("Content-Type", "")
        decoded: Any = raw
        if "json" in content_type:
            decoded = json.loads(raw) if raw else {}
        if not 200 <= response.status < 300:
            raise ApiError(response.status, decoded)
        return decoded

    # -- jobs -------------------------------------------------------------------

    def submit_job(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs``; returns the admitted job document --
        ``queued``, or ``completed`` when the store answered it."""
        return self.request("POST", "/v1/jobs", payload)["job"]

    def get_job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}")["job"]

    def list_jobs(self, tenant: Optional[str] = None) -> List[Dict]:
        path = "/v1/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self.request("GET", path)["jobs"]

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    def wait_job(
        self, job: Union[str, Dict[str, Any]], timeout: float = 300.0,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; raises ``TimeoutError``.

        ``job`` is a job id or a job document, such as the one
        :meth:`submit_job` returns; a terminal document comes back as
        it is, without a request.
        """
        if isinstance(job, str):
            job_id = job
        elif job["state"] in _TERMINAL:
            return job
        else:
            job_id = job["id"]
        deadline = clock.monotonic() + timeout
        while True:
            job = self.get_job(job_id)
            if job["state"] in _TERMINAL:
                return job
            if clock.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)

    # -- studies / observability ------------------------------------------------

    def get_study(self, fingerprint: str) -> Dict[str, Any]:
        """The raw study document published under ``fingerprint``."""
        return self.request("GET", f"/v1/studies/{fingerprint}")

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/healthz")

    def ops(self) -> Dict[str, Any]:
        """The ``GET /v1/ops`` operational rollup (queue depth,
        per-tenant quota usage, worker liveness, flight recorder)."""
        return self.request("GET", "/v1/ops")

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/trace``: the stitched cross-process
        Chrome-trace document for one job's trace id."""
        return self.request("GET", f"/v1/jobs/{job_id}/trace")

    def metrics_text(self) -> str:
        """The server's ``/metrics`` Prometheus exposition."""
        return self.request("GET", "/metrics")

    def events(self, job_id: str, timeout: float = 300.0) -> Iterator[Dict]:
        """Stream the job's SSE telemetry; yields decoded records and
        returns once the server sends its terminal ``end`` frame."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            connection.request(
                "GET", f"/v1/jobs/{job_id}/events",
                headers={"X-Repro-Tenant": self.tenant},
            )
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8")
                try:
                    raw = json.loads(raw)
                except ValueError:
                    pass
                raise ApiError(response.status, raw)
            ending = False
            for line in response:
                line = line.strip()
                if line == b"event: end":
                    ending = True
                    continue
                if line.startswith(b"data: "):
                    record = json.loads(line[len(b"data: "):])
                    if ending:
                        return
                    yield record
        finally:
            connection.close()
