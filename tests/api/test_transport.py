"""API transport: persistent HTTP/1.1 connections on both ends.

The server answers a connection's requests in order and keeps it open
until a request asks to close it, a request cannot be parsed or fails,
an SSE stream ends, or it idles past ``IDLE_TIMEOUT_S``. ``ApiClient``
keeps one connection per thread and resends a request once when the
server had closed its reused connection before answering.
"""

import logging
import socket
import threading
import time

import pytest

import repro.api.server as api_server
from repro.api import ApiClient, ApiError, BackgroundServer
from repro.obs.metrics import REGISTRY

from .conftest import PAYLOAD


def _counter(name):
    return REGISTRY.counter_values().get(name, 0)


def _connections():
    return _counter("repro_api_connections_total")


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(
        str(tmp_path / "store"), str(tmp_path / "state"), workers=1
    ) as background:
        yield background


@pytest.fixture
def short_idle(monkeypatch):
    """A small idle timeout; set before the server's first read."""
    monkeypatch.setattr(api_server, "IDLE_TIMEOUT_S", 0.2)


def _raw(port, data):
    """Send ``data`` on a fresh socket; returns (bytes received until
    the server closed, seconds that took)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        started = time.monotonic()
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received, time.monotonic() - started
            received += chunk


def _heads(raw):
    """Status line plus headers of each response in ``raw``."""
    heads = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:])
        )
        raw = raw[int(headers["content-length"]):]
        heads.append((int(lines[0].split(" ")[1]), headers))
    return heads


class TestServer:
    def test_client_session_uses_one_connection(self, server):
        before = _connections()
        requests = _counter("repro_api_requests_total")
        timed = REGISTRY.histogram("repro_api_request_seconds").count
        with ApiClient(port=server.port) as client:
            for _ in range(5):
                assert client.health()["status"] == "ok"
            client.list_jobs()
        assert _connections() == before + 1
        # The server counts a request just after its answer is sent,
        # observing the histogram last.
        histogram = REGISTRY.histogram("repro_api_request_seconds")
        deadline = time.monotonic() + 10.0
        while histogram.count < timed + 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        # One observation per request, not per connection.
        assert histogram.count == timed + 6
        assert _counter("repro_api_requests_total") == requests + 6

    def test_connection_close_request_is_answered_then_closed(
        self, server
    ):
        raw, _ = _raw(
            server.port,
            b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            b"GET /v1/healthz HTTP/1.1\r\n\r\n",
        )
        # The pipelined second request is never answered.
        assert [
            (status, headers.get("connection"))
            for status, headers in _heads(raw)
        ] == [(200, "close")]

    def test_http10_request_is_answered_then_closed(self, server):
        raw, _ = _raw(server.port, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        assert [
            (status, headers.get("connection"))
            for status, headers in _heads(raw)
        ] == [(200, "close")]

    def test_http10_keep_alive_stays_open(self, server):
        raw, _ = _raw(
            server.port,
            b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /v1/healthz HTTP/1.0\r\n\r\n",
        )
        assert [
            (status, headers.get("connection"))
            for status, headers in _heads(raw)
        ] == [(200, "keep-alive"), (200, "close")]

    def test_4xx_answers_keep_the_connection_open(
        self, published_store, tmp_path
    ):
        with BackgroundServer(
            published_store, str(tmp_path / "state"), workers=1
        ) as background:
            before = _connections()
            with ApiClient(port=background.port) as client:
                hit = client.submit_job(dict(PAYLOAD))
                assert hit["cache"] == "hit"
                for call, args, status in (
                    (client.get_job, ("job-nope",), 404),
                    (client.cancel_job, (hit["id"],), 409),
                    (client.submit_job, ({"modules": ["ZZ9"]},), 400),
                    (client.request, ("PUT", "/v1/ops"), 405),
                ):
                    with pytest.raises(ApiError) as excinfo:
                        call(*args)
                    assert excinfo.value.status == status
                assert client.health()["status"] == "ok"
            assert _connections() == before + 1

    @pytest.mark.parametrize("head, error", [
        (b"NONSENSE\r\n\r\n", b"malformed request line"),
        (b"GET /v1/healthz\r\n\r\n", b"malformed request line"),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         b"malformed Content-Length"),
    ])
    def test_malformed_request_is_400_then_closed(self, server, head, error):
        errors = _counter("repro_api_responses_4xx_total")
        raw, _ = _raw(
            server.port, head + b"GET /v1/healthz HTTP/1.1\r\n\r\n"
        )
        assert [
            (status, headers.get("connection"))
            for status, headers in _heads(raw)
        ] == [(400, "close")]
        assert error in raw
        assert _counter("repro_api_responses_4xx_total") == errors + 1

    def test_oversized_body_is_413_then_closed(self, server):
        raw, _ = _raw(
            server.port,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (api_server.MAX_BODY_BYTES + 1),
        )
        assert [
            (status, headers.get("connection"))
            for status, headers in _heads(raw)
        ] == [(413, "close")]

    def test_idle_connection_is_closed_uncounted(self, short_idle, server):
        requests = _counter("repro_api_requests_total")
        errors = _counter("repro_api_responses_4xx_total")
        raw, waited = _raw(server.port, b"")
        assert raw == b""
        assert 0.1 < waited < 5.0
        # A half-sent request head idles out the same way.
        raw, _ = _raw(server.port, b"GET /v1/hea")
        assert raw == b""
        assert _counter("repro_api_requests_total") == requests
        assert _counter("repro_api_responses_4xx_total") == errors


class TestClient:
    def test_reconnects_after_idle_timeout(self, short_idle, server):
        before = _connections()
        with ApiClient(port=server.port) as client:
            client.health()
            time.sleep(0.5)  # the server closes the idle connection
            assert client.health()["status"] == "ok"
        assert _connections() == before + 2

    def test_post_resent_after_stale_connection_is_admitted_once(
        self, short_idle, server
    ):
        before = _connections()
        with ApiClient(port=server.port, tenant="resend") as client:
            client.health()
            time.sleep(0.5)
            job = client.submit_job(dict(PAYLOAD))
            jobs = client.list_jobs(tenant="resend")
            client.wait_job(job["id"])
        assert [listed["id"] for listed in jobs] == [job["id"]]
        # The submit met the closed connection and went again on a
        # fresh one; the server never read the stale copy.
        assert _connections() == before + 2
        assert len(server.api.queue.jobs("resend")) == 1

    def test_failure_on_a_fresh_connection_raises(self):
        """A server that drops the connection unanswered: no resend."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def drop():
            while True:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    return  # the listener closed
                accepted.append(connection)
                connection.recv(65536)
                connection.close()

        thread = threading.Thread(target=drop, daemon=True)
        thread.start()
        try:
            client = ApiClient(port=listener.getsockname()[1], timeout=10)
            with pytest.raises(ConnectionError):
                client.health()
            assert len(accepted) == 1
        finally:
            listener.close()

    def test_threads_sharing_a_client_get_their_own_connections(
        self, server
    ):
        before = _connections()
        client = ApiClient(port=server.port)
        barrier = threading.Barrier(2)
        failures = []

        def work():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    assert client.health()["status"] == "ok"
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert _connections() == before + 2
        # The next thread to connect closes the finished threads' ones.
        finished = [connection for _, connection in client._connections]
        client.health()
        assert [connection.sock for connection in finished] == [None, None]
        client.close()

    def test_close_then_reuse_reconnects(self, server):
        before = _connections()
        client = ApiClient(port=server.port)
        client.health()
        client.close()
        assert client.health()["status"] == "ok"
        client.close()
        assert _connections() == before + 2


def test_background_server_exits_with_open_connections(tmp_path, caplog):
    """Exit is bounded and clean with an idle keep-alive connection and
    a half-sent request open: no error raised or logged."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    background = BackgroundServer(
        str(tmp_path / "store"), str(tmp_path / "state"), workers=1
    )
    background.__enter__()
    client = ApiClient(port=background.port)
    client.health()
    half = socket.create_connection(("127.0.0.1", background.port))
    half.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Len")
    thread = background._thread
    started = time.monotonic()
    try:
        background.__exit__(None, None, None)
        assert time.monotonic() - started < 5.0
        assert not thread.is_alive()
    finally:
        half.close()
        client.close()
    assert [record.getMessage() for record in caplog.records] == []
