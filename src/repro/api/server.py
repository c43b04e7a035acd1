"""Characterization-as-a-service HTTP front end (stdlib asyncio).

One asyncio server speaks a deliberately small HTTP/1.1 subset (JSON
bodies, persistent connections), fronting the thread-world behind it:
the :class:`~repro.api.queue.JobQueue`, a pool of worker threads
running campaigns through :class:`~repro.service.orchestrator.
CampaignService`, the one campaign :class:`~repro.service.pool.
WorkerPool` every pooled job shares (forked before any thread starts),
and the content-addressed :class:`~repro.harness.store.StudyStore`
studies are published to.

Routes (``docs/API.md`` is the full reference)::

    POST /v1/jobs                submit a campaign          -> 202
                                 (a store hit, completed)   -> 200
    GET  /v1/jobs                list jobs (?tenant=)       -> 200
    GET  /v1/jobs/<id>           poll one job               -> 200/404
    POST /v1/jobs/<id>/cancel    cancel (unit boundary)     -> 200/404/409
    GET  /v1/jobs/<id>/events    live telemetry (SSE)       -> 200/404
    GET  /v1/jobs/<id>/trace     stitched Chrome trace      -> 200/404
    GET  /v1/studies/<fp>        fetch a study by           -> 200/404
                                 provenance fingerprint
    GET  /v1/ops                 operational rollup         -> 200
                                 (?format=html for a page)
    GET  /v1/healthz             liveness + config          -> 200
    GET  /metrics                Prometheus text            -> 200

Error mapping: :class:`~repro.errors.ConfigurationError` -> 400,
unknown ids -> 404, :class:`~repro.errors.QuotaExceededError` -> 429,
anything else -> 500. Tenancy is the ``X-Repro-Tenant`` header
(default ``"default"``).

Transport: a connection carries requests one after another, answered
in order, and stays open between them (HTTP/1.1's default). The server
closes it after a request that asks it to (``Connection: close``, or
HTTP/1.0 without ``keep-alive``), after an SSE stream, a malformed or
oversized request or a 500 -- each answer says ``Connection: close``
-- and when no request head arrives within :data:`IDLE_TIMEOUT_S`.
It closes only between requests, never with one half read.

The SSE stream bridges the process-global observability bus
(:mod:`repro.obs.events`): every telemetry record a job's
:class:`~repro.api.jobs.JobTelemetry` emits carries ``job=<id>``; a
single bus subscriber routes those into per-job buffers the async
handlers drain. The stream replays the job's full history first, so a
late subscriber misses nothing, and ends with one ``event: end`` frame
once the job is terminal.

Restart recovery: jobs persist under ``<state_dir>/jobs`` on every
transition; a restarted server re-queues interrupted jobs, and the
orchestrator's per-fingerprint checkpoints turn the re-run into a
resume.

Tracing: :meth:`ApiServer.submit` mints one
:class:`~repro.obs.context.TraceContext` per admitted job and records
an ``api.admission`` span under it (when the process tracer is
enabled); the context rides the job record through the worker thread
and the orchestrator's pool, so ``GET /v1/jobs/<id>/trace`` can return
one stitched Chrome trace spanning HTTP admission to pool-worker probe
batches. A store hit answered at admission has only its admission span,
which carries ``cache=hit``. Flight-recorder dumps land under ``<state_dir>/flightrec/
<job id>/`` and surface on ``GET /v1/ops``.
"""

from __future__ import annotations

import asyncio
import html
import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.api.jobs import (
    CANCELLED,
    FAILED,
    Job,
    JobSpec,
    JobStateDir,
    answer_hit,
    run_job,
)
from repro.api.queue import DEFAULT_TENANT_QUOTA, JobQueue
from repro.errors import ConfigurationError, QuotaExceededError
from repro.harness.store import StudyStore
from repro.obs import clock
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs.flightrec import recent_dumps
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.service.pool import WorkerPool

#: Default bind address/port of ``python -m repro.api``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Largest accepted request body (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Per-job telemetry history kept for SSE replay.
EVENT_BUFFER_SIZE = 10_000

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Seconds a connection may wait for its next request head (and a
#: request for its body) before the server closes it.
IDLE_TIMEOUT_S = 30.0


class _BadRequest(Exception):
    """A request the server answers with ``status`` and then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _parse_head(head: Optional[bytes]):
    """(method, path, query, headers, ``Connection`` header of the
    answer) of one request head; the header is ``"close"`` when the
    connection ends after the answer, ``"keep-alive"`` for a persistent
    HTTP/1.0 connection (which must say so), else None."""
    if head is None:
        raise _BadRequest(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise _BadRequest(400, "malformed request line") from None
    if not version.startswith("HTTP/"):
        raise _BadRequest(400, "malformed request line")
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    path, _, raw_query = target.partition("?")
    query = {}
    for pair in raw_query.split("&"):
        if "=" in pair:
            name, _, value = pair.partition("=")
            query[name] = value
    tokens = {
        token.strip().lower()
        for token in headers.get("connection", "").split(",")
    }
    if "close" in tokens:
        connection = "close"
    elif version == "HTTP/1.0":
        connection = "keep-alive" if "keep-alive" in tokens else "close"
    else:
        connection = None
    return method.upper(), path, query, headers, connection


async def _read_body(reader, headers: Dict[str, str]) -> bytes:
    """The request body its ``Content-Length`` announces."""
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"body over {MAX_BODY_BYTES} bytes")
    if not length:
        return b""
    try:
        return await asyncio.wait_for(
            reader.readexactly(length), timeout=IDLE_TIMEOUT_S
        )
    except (asyncio.IncompleteReadError, asyncio.TimeoutError):
        raise _BadRequest(400, "request body incomplete") from None


class ApiServer:
    """The service: queue + workers + store + asyncio front end.

    Parameters
    ----------
    store_dir:
        Directory of the content-addressed study store (shared with the
        runner's disk cache when pointed at the same path).
    state_dir:
        Server-private state: job records (``jobs/``) and campaign
        checkpoints (``checkpoints/``).
    workers:
        Worker *threads* executing jobs. A job with ``workers > 1``
        fans its units out over the server's one process pool
        (``os.cpu_count()`` workers, forked by :meth:`start_workers`),
        with at most ``workers`` of them in flight.
    tenant_quota:
        Max non-terminal jobs per tenant (429 beyond it).
    allowed_modules / allowed_experiments:
        Optional allowlists restricting what jobs may request.
    """

    def __init__(
        self,
        store_dir: str,
        state_dir: str,
        workers: int = 2,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        allowed_modules: Optional[Sequence[str]] = None,
        allowed_experiments: Optional[Sequence[str]] = None,
    ):
        self.store = StudyStore(store_dir)
        self.state = JobStateDir(state_dir)
        self.checkpoint_base = f"{state_dir.rstrip('/')}/checkpoints"
        self.flight_base = f"{state_dir.rstrip('/')}/flightrec"
        self.queue = JobQueue(tenant_quota=tenant_quota)
        self.allowed_modules = (
            tuple(allowed_modules) if allowed_modules else None
        )
        self.allowed_experiments = (
            tuple(allowed_experiments) if allowed_experiments else None
        )
        self.workers = max(1, workers)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._events_lock = threading.Lock()
        self._job_events: Dict[str, deque] = {}
        self._bus_sink = None
        self.pool: Optional[WorkerPool] = None
        self._recovered = self._recover()

    # -- lifecycle --------------------------------------------------------------

    def _recover(self) -> int:
        """Re-adopt persisted jobs; returns how many were re-queued."""
        requeued = 0
        for job in self.state.load_all():
            terminal_before = job.terminal
            self.queue.adopt(job)
            if not terminal_before:
                self.state.save(job)  # running -> queued rewrite
                requeued += 1
        return requeued

    def start_workers(self) -> None:
        """Fork the campaign worker pool, then spawn the worker threads
        and attach the SSE bus bridge. Call it before this process
        starts any other thread: the pool forks first."""
        if self.pool is None:
            self.pool = WorkerPool()
        self._bus_sink = obs_events.subscribe(self._route_event)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"api-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop_workers(self) -> None:
        """Stop accepting work, join the worker threads, then shut the
        campaign pool down and join its processes."""
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads.clear()
        if self._bus_sink is not None:
            obs_events.unsubscribe(self._bus_sink)
            self._bus_sink = None
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            job.started = clock.wall()
            self.state.save(job)
            try:
                run_job(
                    job, self.store, self.checkpoint_base,
                    flight_base=self.flight_base, pool=self.pool,
                )
            except Exception as error:  # noqa: BLE001 - job must terminate
                job.state = FAILED
                job.error = f"{type(error).__name__}: {error}"
                job.finished = clock.wall()
            self.state.save(job)
            self.queue.refresh()

    # -- SSE plumbing -----------------------------------------------------------

    def _route_event(self, record: Dict[str, Any]) -> None:
        """Bus subscriber: file job-stamped records into per-job buffers."""
        job_id = record.get("job")
        if not job_id:
            return
        with self._events_lock:
            buffer = self._job_events.get(job_id)
            if buffer is None:
                buffer = self._job_events[job_id] = deque(
                    maxlen=EVENT_BUFFER_SIZE
                )
            buffer.append(record)

    def job_events(self, job_id: str, start: int = 0) -> List[Dict]:
        """The job's buffered telemetry records from index ``start``."""
        with self._events_lock:
            buffer = self._job_events.get(job_id)
            if buffer is None:
                return []
            return list(buffer)[start:]

    # -- request dispatch (sync; called from the async handler) -----------------

    def submit(self, payload: Dict, tenant: str) -> Tuple[int, Dict]:
        """Admit one job: ``202`` with the queued job, or -- when the
        store already holds its study -- ``200`` with the job completed
        on the spot (``cache == "hit"``), so the client has nothing to
        poll. Either way the record is persisted once here."""
        # One trace per admitted job, minted here at the edge. The
        # admission span (recorded only while the tracer is enabled)
        # becomes the remote parent every downstream hop -- worker
        # thread, orchestrator, pool workers -- re-parents under.
        context = obs_context.new_context()
        with obs_context.activate(context):
            with TRACER.span("api.admission", tenant=tenant) as admission:
                spec = JobSpec.from_payload(
                    payload, self.allowed_modules, self.allowed_experiments
                )
                job = Job.create(spec, tenant)
                admission.set(job=job.id)
                job.trace = obs_context.TraceContext(
                    trace_id=context.trace_id,
                    span_id=admission.span_id,
                ).to_dict()
                self.queue.check_quota(tenant)
                hit = self.store.contains(job.fingerprint)
                if hit:
                    admission.set(cache="hit")
                    answer_hit(job)
                # The job as admitted: a worker may take a queued job
                # the moment the queue holds it.
                document = job.as_dict()
                self.queue.submit(job)
                self.state.save(job)
        return (200 if hit else 202), {"job": document}

    def handle(
        self, method: str, path: str, query: Dict[str, str],
        payload: Optional[Dict], tenant: str,
    ) -> Tuple[int, Union[Dict, bytes]]:
        """Route one non-SSE request; returns (status, JSON body), the
        body as a document or, for a stored study, its encoded bytes."""
        parts = [part for part in path.split("/") if part]
        try:
            if path == "/v1/jobs":
                if method == "POST":
                    return self.submit(payload or {}, tenant)
                if method == "GET":
                    return 200, {"jobs": [
                        job.as_dict()
                        for job in self.queue.jobs(query.get("tenant"))
                    ]}
                return 405, {"error": "method not allowed"}
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                if method != "GET":
                    return 405, {"error": "method not allowed"}
                job = self.queue.get(parts[2])
                if job is None:
                    return 404, {"error": f"unknown job {parts[2]!r}"}
                return 200, {"job": job.as_dict()}
            if (
                len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cancel"
            ):
                if method != "POST":
                    return 405, {"error": "method not allowed"}
                return self._cancel(parts[2])
            if (
                len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "trace"
            ):
                if method != "GET":
                    return 405, {"error": "method not allowed"}
                return self._job_trace(parts[2])
            if path == "/v1/ops":
                if method != "GET":
                    return 405, {"error": "method not allowed"}
                return 200, self.ops()
            if len(parts) == 3 and parts[:2] == ["v1", "studies"]:
                if method != "GET":
                    return 405, {"error": "method not allowed"}
                body = self.store.read_bytes(parts[2])
                if body is None:
                    return 404, {
                        "error": f"no study published for {parts[2]!r}"
                    }
                # The entry is json.dumps output already: sent as stored.
                return 200, body
            if path == "/v1/healthz":
                return 200, {
                    "status": "ok",
                    "version": __version__,
                    "workers": self.workers,
                    "queue_depth": self.queue.depth(),
                    "recovered_jobs": self._recovered,
                    "studies": len(self.store.fingerprints()),
                }
            return 404, {"error": f"no route for {method} {path}"}
        except ConfigurationError as error:
            return 400, {"error": str(error)}
        except QuotaExceededError as error:
            return 429, {"error": str(error)}

    def _cancel(self, job_id: str) -> Tuple[int, Dict]:
        job = self.queue.cancel(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.terminal and job.state != CANCELLED:
            return 409, {
                "error": f"job {job_id} already {job.state}",
                "job": job.as_dict(),
            }
        self.state.save(job)
        return 200, {"job": job.as_dict()}

    def _job_trace(self, job_id: str) -> Tuple[int, Dict]:
        """One stitched Chrome trace filtered to the job's trace id."""
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        trace_id = (job.trace or {}).get("trace_id")
        if not trace_id:
            return 404, {
                "error": f"job {job_id} carries no trace context "
                "(submitted before tracing was wired?)"
            }
        return 200, {
            "job": job_id,
            "trace_id": trace_id,
            "trace": obs_context.stitched_trace(trace_id=trace_id),
        }

    def ops(self) -> Dict[str, Any]:
        """The ``GET /v1/ops`` rollup: queue depth, per-tenant quota
        usage, worker liveness, cache hit counters, tracing state and
        recent flight-recorder dumps -- one glanceable document."""
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        counters = REGISTRY.counter_values()
        cache = {
            name: value
            for name, value in sorted(counters.items())
            if "cache" in name
        }
        return {
            "version": __version__,
            "queue": {
                "depth": self.queue.depth(),
                "jobs_by_state": by_state,
            },
            "tenants": self.queue.tenants(),
            "workers": {
                "configured": self.workers,
                "alive": sum(1 for t in self._threads if t.is_alive()),
            },
            "cache": cache,
            "tracing": {
                "enabled": TRACER.enabled,
                "fragments": len(obs_context.fragments()),
            },
            "flight_recorder": {
                "dir": self.flight_base,
                "recent": recent_dumps(self.flight_base),
            },
            "recovered_jobs": self._recovered,
            "studies": len(self.store.fingerprints()),
        }

    def _ops_html(self) -> str:
        """Minimal human rendering of :meth:`ops` (``?format=html``)."""
        doc = self.ops()
        tenants = "".join(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{row['active']}/{row['quota']}</td>"
            f"<td>{row['queued']}</td><td>{row['running']}</td>"
            f"<td>{row['jobs']}</td></tr>"
            for name, row in sorted(doc["tenants"].items())
        ) or '<tr><td colspan="5">no jobs yet</td></tr>'
        dumps = "".join(
            f"<li><code>{html.escape(str(dump['reason']))}</code> "
            f"pid {dump['pid']} ({dump['entries']} entries)</li>"
            for dump in doc["flight_recorder"]["recent"]
        ) or "<li>none</li>"
        tracing = "on" if doc["tracing"]["enabled"] else "off"
        return (
            "<!doctype html><title>repro ops</title>"
            "<h1>repro.api ops</h1>"
            f"<p>queue depth {doc['queue']['depth']} &middot; workers "
            f"{doc['workers']['alive']}/{doc['workers']['configured']} "
            f"alive &middot; tracing {tracing} &middot; "
            f"{doc['studies']} studies published</p>"
            "<h2>Tenants</h2>"
            '<table border="1"><tr><th>tenant</th><th>active/quota</th>'
            "<th>queued</th><th>running</th><th>total</th></tr>"
            f"{tenants}</table>"
            f"<h2>Flight-recorder dumps</h2><ul>{dumps}</ul>"
            "<h2>Raw</h2>"
            f"<pre>{html.escape(json.dumps(doc, indent=2))}</pre>"
        )

    # -- asyncio front end ------------------------------------------------------

    async def serve(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
        ready: Optional[threading.Event] = None,
        sockets_out: Optional[list] = None,
    ) -> None:
        """Run the HTTP front end until cancelled.

        Cancelling it stops accepting connections; the connections still
        open are tasks of the same loop, which its runner cancels
        (``asyncio.run`` and :class:`BackgroundServer` both do).
        """
        server = await asyncio.start_server(
            self._client, host, port, backlog=1024
        )
        if sockets_out is not None:
            sockets_out.extend(server.sockets)
        if ready is not None:
            ready.set()
        try:
            # Not serve_forever(): cancelled, it waits (Python >= 3.12)
            # for every open connection to close, idle ones included.
            await asyncio.get_running_loop().create_future()
        finally:
            server.close()

    async def _client(self, reader, writer) -> None:
        """Serve one connection: its requests in order, until one of
        them ends it or none arrives within :data:`IDLE_TIMEOUT_S`."""
        REGISTRY.counter(
            "repro_api_connections_total", "HTTP connections accepted"
        ).inc()
        try:
            while await self._exchange(reader, writer):
                pass
        except (ConnectionError, asyncio.CancelledError):
            # The client left mid-answer, or the server is shutting
            # down: a handler that ends cancelled is logged as an
            # error before Python 3.12, so it ends here.
            pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError, asyncio.CancelledError):
                pass

    async def _exchange(self, reader, writer) -> bool:
        """Read one request and answer it; returns whether the
        connection stays open for the next one.

        EOF or :data:`IDLE_TIMEOUT_S` before a whole request head ends
        the connection unanswered, and is no request. A request asking
        to close (``Connection: close``, HTTP/1.0 without
        ``keep-alive``), an SSE stream, a malformed or oversized
        request and a 500 are answered, then end it.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=IDLE_TIMEOUT_S
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            return False
        except asyncio.LimitOverrunError:
            head = None
        started = clock.monotonic()
        status = 500
        try:
            status, connection = await self._answer(reader, writer, head)
            await writer.drain()
        finally:
            REGISTRY.counter(
                "repro_api_requests_total", "HTTP requests served"
            ).inc()
            REGISTRY.counter(
                f"repro_api_responses_{status // 100}xx_total",
                "HTTP responses by status class",
            ).inc()
            REGISTRY.histogram(
                "repro_api_request_seconds",
                "request wall clock, request head read to response "
                "written",
            ).observe(clock.monotonic() - started)
        return connection != "close"

    async def _answer(
        self, reader, writer, head: Optional[bytes]
    ) -> Tuple[int, Optional[str]]:
        """Answer one request whose head is ``head`` (None: too large);
        returns (status, the answer's ``Connection`` header)."""
        try:
            method, path, query, headers, connection = _parse_head(head)
            body = await _read_body(reader, headers)
        except _BadRequest as error:
            self._respond(writer, error.status, {"error": str(error)},
                          "close")
            return error.status, "close"
        try:
            if path.endswith("/events") and method == "GET":
                return await self._serve_sse(writer, path), "close"
            if path == "/metrics" and method == "GET":
                self._respond_text(
                    writer, 200, REGISTRY.prometheus_text(), connection
                )
                return 200, connection
            if path == "/v1/ops" and method == "GET" and (
                query.get("format") == "html"
                or "text/html" in headers.get("accept", "")
            ):
                self._write_body(
                    writer, 200, self._ops_html().encode("utf-8"),
                    "text/html; charset=utf-8", connection,
                )
                return 200, connection
            payload = None
            if body:
                try:
                    payload = json.loads(body)
                except ValueError:
                    self._respond(
                        writer, 400, {"error": "request body is not JSON"},
                        connection,
                    )
                    return 400, connection
            status, document = self.handle(
                method, path, query, payload,
                headers.get("x-repro-tenant", "default"),
            )
            self._respond(writer, status, document, connection)
            return status, connection
        except Exception as error:  # noqa: BLE001 - never kill the loop
            self._respond(
                writer, 500, {"error": f"{type(error).__name__}: {error}"},
                "close",
            )
            return 500, "close"

    def _respond(
        self, writer, status: int, document: Union[Dict, bytes],
        connection: Optional[str],
    ) -> None:
        if not isinstance(document, bytes):
            document = json.dumps(document).encode("utf-8")
        self._write_body(
            writer, status, document, "application/json", connection
        )

    def _respond_text(
        self, writer, status: int, text: str, connection: Optional[str],
    ) -> None:
        self._write_body(
            writer, status, text.encode("utf-8"),
            "text/plain; charset=utf-8", connection,
        )

    def _write_body(
        self, writer, status: int, body: bytes, content_type: str,
        connection: Optional[str],
    ) -> None:
        """One response; ``connection`` is its ``Connection`` header
        (``"close"`` when the connection ends after it), or None for
        HTTP/1.1's default, a persistent connection."""
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if connection:
            head += f"Connection: {connection}\r\n"
        writer.write(f"{head}\r\n".encode("latin-1"))
        writer.write(body)

    async def _serve_sse(self, writer, path: str) -> int:
        """Stream one job's telemetry as Server-Sent Events.

        Replays the buffered history, then follows live until the job
        is terminal and fully drained; a final ``event: end`` frame
        carries the job's terminal state.
        """
        parts = [part for part in path.split("/") if part]
        job_id = parts[2] if len(parts) == 4 else ""
        job = self.queue.get(job_id)
        if job is None:
            self._respond(writer, 404, {"error": f"unknown job {job_id!r}"},
                          "close")
            return 404
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        lag = REGISTRY.histogram(
            "repro_api_sse_lag_seconds",
            "delay between a telemetry record's emission and its SSE "
            "delivery",
            labels=("tenant",),
        ).labels(tenant=job.tenant)
        cursor = 0
        while True:
            records = self.job_events(job_id, cursor)
            for record in records:
                data = json.dumps(record, sort_keys=True)
                writer.write(f"data: {data}\n\n".encode("utf-8"))
                emitted = record.get("ts")
                if isinstance(emitted, (int, float)):
                    lag.observe(max(0.0, clock.wall() - emitted))
            cursor += len(records)
            await writer.drain()
            if job.terminal and not self.job_events(job_id, cursor):
                break
            await asyncio.sleep(0.05)
        writer.write(
            f"event: end\ndata: {json.dumps({'state': job.state})}\n\n"
            .encode("utf-8")
        )
        await writer.drain()
        return 200

class BackgroundServer:
    """Run an :class:`ApiServer` on a background thread (tests, the
    load benchmark, notebooks).

    ::

        with BackgroundServer(store_dir, state_dir) as server:
            client = ApiClient(port=server.port)
            ...
    """

    def __init__(self, store_dir: str, state_dir: str, port: int = 0,
                 **server_kwargs):
        self.api = ApiServer(store_dir, state_dir, **server_kwargs)
        self._requested_port = port
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._serving: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "BackgroundServer":
        # Workers before the event-loop thread: start_workers forks the
        # campaign pool, which must happen while this is one thread.
        self.api.start_workers()
        ready = threading.Event()
        sockets: list = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._serving = loop.create_task(self.api.serve(
                port=self._requested_port, ready=ready,
                sockets_out=sockets,
            ))
            self._loop = loop
            try:
                loop.run_until_complete(self._serving)
            except asyncio.CancelledError:
                pass
            finally:
                # The connections still open (idle ones, half-sent
                # requests): cancel them and let each close before the
                # loop does, as asyncio.run shuts down.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="api-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            self.__exit__(None, None, None)
            raise RuntimeError("API server failed to start")
        self.port = sockets[0].getsockname()[1]
        return self

    def __exit__(self, *exc) -> None:
        self.api.stop_workers()
        loop, self._loop = self._loop, None
        if loop is not None:
            # Only the serve task: the loop thread ends the connections.
            try:
                loop.call_soon_threadsafe(self._serving.cancel)
            except RuntimeError:
                pass  # the loop already closed (serve itself failed)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
