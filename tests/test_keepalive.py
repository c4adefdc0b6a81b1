"""Kept-alive HTTP/1.1 connections against a live gateway.

The gateway keeps a client's connection open across requests, so these
tests speak raw ``http.client`` (and, where framing matters, a raw socket)
to check what the wire does:

* many requests ride one connection without a delayed-ACK stall per
  response (Nagle is off);
* a request refused before its body was read closes its connection, so
  the unread body is never parsed as the next request;
* an event stream answers ``Connection: close`` and its socket ends at the
  terminal event;
* an idle kept connection is closed after the handler's idle timeout, and
  :class:`GatewayClient` re-sends onto a fresh one without spending a
  retry attempt;
* :meth:`Gateway.stop` returns promptly and ends kept connections.
"""

import http.client
import json
import socket
import time

import pytest

from repro.client import GatewayClient
from repro.gateway import Gateway
from repro.gateway.routes import GatewayRequestHandler
from repro.gateway.sse import JobEvent
from repro.serve import InferenceServer, JobSpec, RetryPolicy
from repro.serve.job import Job
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

TOKEN = "keepalive-t0ken"
SPEC_BODY = json.dumps(JobSpec(workload="votes", engine="mh").to_dict())


def make_gateway() -> Gateway:
    server = InferenceServer(
        n_workers=1, registry=MetricsRegistry(), tracer=Tracer()
    )
    return Gateway(server, port=0, tokens=[TOKEN]).start()


@pytest.fixture
def gateway():
    gateway = make_gateway()
    try:
        yield gateway
    finally:
        gateway.stop()
        gateway.server.close()


def connect(gateway) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)


def test_sequential_requests_share_one_connection_without_stalls(gateway):
    conn = connect(gateway)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert json.loads(response.read())["status"] == "ok"
        sock = conn.sock
        started = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        elapsed = time.perf_counter() - started
        assert conn.sock is sock  # every answer came on the first socket
        # A delayed-ACK stall is ~40 ms per response: 20 would take 0.8 s.
        assert elapsed < 0.8, f"20 kept-alive GETs took {elapsed:.3f}s"
    finally:
        conn.close()


def test_post_refused_before_its_body_closes_the_connection(gateway):
    """401 is decided from the headers alone. The unread body must not be
    parsed as the next request: the pipelined GET gets no answer (not a
    400 for the body, not a 200), because the server closes first."""
    request = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(SPEC_BODY)}\r\n\r\n{SPEC_BODY}"
        f"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", gateway.port), 10) as sock:
        sock.sendall(request)
        reply = b""
        while True:  # read to the server's close
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 401 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert b"\r\nConnection: close\r\n" in reply


def test_post_whose_body_was_read_keeps_the_connection(gateway):
    """A refusal after the body was read (here 400, an unknown field)
    leaves the connection clean: the next request rides it."""
    conn = connect(gateway)
    try:
        conn.request(
            "POST", "/v1/jobs", body=json.dumps({"workload": "votes", "x": 1}),
            headers={"Authorization": f"Bearer {TOKEN}",
                     "Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["code"] == "unknown_field"
        assert response.getheader("Connection") is None
        sock = conn.sock
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        assert conn.sock is sock
    finally:
        conn.close()


def test_event_stream_closes_its_connection_at_the_terminal_event(gateway):
    job = Job(JobSpec(workload="votes", engine="mh"))
    gateway.server.jobs[job.job_id] = job
    gateway.events.publish(
        job.job_id,
        JobEvent(event="state",
                 data={"job_id": job.job_id, "state": "done"}, terminal=True),
    )
    conn = connect(gateway)
    try:
        conn.request(
            "GET", f"/v1/jobs/{job.job_id}/events",
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Connection") == "close"
        assert response.getheader("Content-Type") == "text/event-stream"
        body = response.read()  # returns only once the server closes
        assert body.endswith(b"\n\n")
        assert b'"state": "done"' in body
        assert response.isclosed()
    finally:
        conn.close()


def test_idle_connection_closes_and_the_client_resends_for_free(
    gateway, monkeypatch
):
    monkeypatch.setattr(GatewayRequestHandler, "timeout", 0.3)
    client = GatewayClient(
        gateway.url,
        retry_policy=RetryPolicy(max_attempts=1, base_backoff=0.0),
    )
    try:
        assert client.healthz()["status"] == "ok"
        first = client._kept_connection().sock
        time.sleep(0.9)  # past the idle timeout: the server hangs up
        # One attempt only: the stale connection's re-send must not
        # spend it.
        assert client.healthz()["status"] == "ok"
        assert client._kept_connection().sock is not first
    finally:
        client.close()


def test_stop_returns_promptly_and_ends_kept_connections():
    gateway = make_gateway()
    conn = connect(gateway)
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read()
        started = time.monotonic()
        assert gateway.stop(timeout=5.0) == []
        assert time.monotonic() - started < 2.0
        # The handler stops reading the kept connection and hangs up.
        conn.sock.settimeout(5.0)
        assert conn.sock.recv(1) == b""
    finally:
        conn.close()
        gateway.server.close()
