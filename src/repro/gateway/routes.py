"""HTTP routing and JSON views for the gateway.

The handler is deliberately thin: parse → authenticate → rate-limit →
dispatch to a view function → serialize. Views are pure functions over
:class:`~repro.serve.job.Job` so they are unit-testable without a socket.

Routes (all JSON unless noted; see ``docs/gateway.md``):

============================  =================================================
``POST /v1/jobs``             submit a :class:`JobSpec`; 202 with the job view,
                              400 on an invalid spec, 429 on ``AdmissionError``
``GET /v1/jobs``              every job the gateway has seen (newest last)
``GET /v1/jobs/{id}``         one job: state, attempts, elision, R-hat so far
``GET /v1/jobs/{id}/result``  posterior summary (+ draws with
                              ``?include_draws=1``); 409 until terminal
``GET /v1/jobs/{id}/events``  Server-Sent Events stream (``text/event-stream``)
``GET /metrics``              Prometheus text exposition of the live registry
``GET /healthz``              liveness (no auth, no rate limit); a fleet
                              replica adds the ``topology`` the ring routes by
============================  =================================================

The protocol is HTTP/1.1 with kept-alive connections: a client pays one TCP
connect for many calls. The event stream is the exception: it answers
``Connection: close`` and ends with its connection, so it needs no chunked
framing. A request refused before its body was read closes its connection
too, and a kept connection idle for :data:`KEEPALIVE_IDLE_S` is closed.

Every request is counted in :data:`~repro.telemetry.instrument.
GATEWAY_REQUESTS` (labels: method, route template, status), timed into
:data:`~repro.telemetry.instrument.GATEWAY_REQUEST_SECONDS`, and traced as
a ``gateway.request`` span. Route labels use the *template* (``/v1/jobs/
{id}``), never the raw path, so metric cardinality stays bounded.
"""

from __future__ import annotations

import base64
import json
import queue as queue_module
import time
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.amortize.policy import DEFAULT_MODE, MODES
from repro.gateway.sse import KEEPALIVE, JobEvent, json_safe
from repro.fleet.member import WrongReplicaError
from repro.resilience import LoadSheddedError, chaos
from repro.serve.job import Job, JobSpec, JobState
from repro.serve.queue import AdmissionError
from repro.telemetry.instrument import (
    GATEWAY_REQUEST_SECONDS,
    GATEWAY_REQUESTS,
    GATEWAY_SSE_EVENTS,
    GATEWAY_UNAUTHORIZED,
    REQUEST_SECONDS_BUCKETS,
    RESILIENCE_CHAOS_INJECTED,
    RESILIENCE_SSE_DROPPED,
)

#: Submission bodies above this are rejected outright (a JobSpec is a few
#: hundred bytes; anything larger is abuse or a client bug).
MAX_BODY_BYTES = 64 * 1024

#: A kept-alive connection idle this long is closed, so an abandoned one
#: does not hold its handler thread for the life of the process.
KEEPALIVE_IDLE_S = 15.0


class GatewayDrainingError(AdmissionError):
    """Submission refused because the gateway is draining for shutdown."""


class ApiError(Exception):
    """A structured HTTP error a view raises and the handler serializes.

    The response body is ``{"error": message}`` plus, when set, a machine-
    readable ``"code"`` (a stable slug clients can branch on, e.g.
    ``unknown_field`` / ``invalid_mode``) and a ``"detail"`` object with
    the specifics (the offending fields, the accepted values).
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        code: Optional[str] = None,
        detail: Optional[Dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.code = code
        self.detail = detail

    def body(self) -> Dict:
        payload: Dict = {"error": self.message}
        if self.code is not None:
            payload["code"] = self.code
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload


# -- JSON views ----------------------------------------------------------------


def elision_view(elision) -> Optional[Dict]:
    if elision is None:
        return None
    return {
        "elided": elision.elided,
        "budget_kept": int(elision.budget_kept),
        "converged_kept": (
            int(elision.converged_kept)
            if elision.converged_kept is not None else None
        ),
        "rhat_threshold": float(elision.rhat_threshold),
        "checkpoints": [int(k) for k in elision.checkpoints],
        "rhat_trace": [float(r) for r in elision.rhat_trace],
        "iterations_saved_fraction": float(elision.iterations_saved_fraction),
    }


def provenance_view(provenance) -> Optional[Dict]:
    """The provenance block: which tier produced the draws and why."""
    if provenance is None:
        return None
    return provenance.to_dict()


def job_view(job: Job, rhat_trace=None) -> Dict:
    """The status document for one job.

    ``rhat_trace`` is the broker's live (kept, rhat) list — during a run it
    is ahead of ``job.elision`` (which only exists after the attempt ends).
    """
    trace = rhat_trace or []
    return {
        "job_id": job.job_id,
        "key": job.key,
        "state": job.state.value,
        "terminal": job.state.terminal,
        "workload": job.spec.workload,
        "engine": job.spec.engine,
        "mode": job.spec.mode,
        "priority": job.spec.priority,
        "attempts": job.attempts,
        "deduped": job.deduped,
        "failure_kind": job.failure_kind,
        "error": job.error,
        "elision": elision_view(job.elision),
        "provenance": provenance_view(job.provenance),
        "rhat": (
            {"kept": trace[-1][0], "value": trace[-1][1]} if trace else None
        ),
        "rhat_trace": [
            {"kept": kept, "value": value} for kept, value in trace
        ],
        "spec": job.spec.to_dict(),
    }


def result_view(job: Job, include_draws: bool = False) -> Dict:
    """The result document: posterior summary, optionally the draws.

    Raises :class:`ApiError` 409 while the job is still in flight and for
    FAILED jobs (the status view carries the error detail).
    """
    if not job.state.terminal:
        raise ApiError(
            409, f"job {job.job_id} is {job.state.value}; result not ready"
        )
    if job.state is JobState.EXPIRED:
        # The gateway-timeout of the job world: the deadline passed before
        # any draws worth keeping existed. (A deadline hit *past* warmup
        # completes DONE with partial draws and degraded provenance, and is
        # served normally below.)
        raise ApiError(
            504,
            f"job {job.job_id} missed its deadline before producing draws",
            code="deadline_expired",
        )
    if job.result is None:
        raise ApiError(
            409, f"job {job.job_id} failed; no result (see the job status)"
        )
    result = job.result
    view = {
        "job_id": job.job_id,
        "key": job.key,
        "state": job.state.value,
        "model": result.model_name,
        "param_names": list(result.param_names),
        "n_chains": result.n_chains,
        "n_kept": result.n_kept,
        "n_warmup": int(job.spec.resolved_warmup),
        "total_work": result.total_work,
        "divergences": result.divergences,
        # Memoized on the result (filled before it was stored), so neither
        # a repeated GET nor a deduplicated job recomputes ESS/R-hat.
        "summary": [dict(vars(row)) for row in result.summary()],
        "elision": elision_view(job.elision),
        "provenance": provenance_view(job.provenance),
    }
    if include_draws:
        # The kept draws as the C-order bytes of a little-endian float64
        # (n_chains, n_kept, dim) array, base64-coded: every bit pattern
        # (inf, nan, -0.0, subnormals) survives, which JSON numbers cannot
        # promise — ``json_safe`` turns non-finite floats into null.
        draws = np.ascontiguousarray(result.stacked(), dtype="<f8")
        view["draws"] = {
            "shape": list(draws.shape),
            "dtype": "<f8",
            "data": base64.b64encode(draws).decode("ascii"),
        }
    return view


def parse_job_spec(payload) -> JobSpec:
    """A validated :class:`JobSpec` from a request body, or 400.

    Unknown top-level fields and unknown serving modes get their own error
    codes (``unknown_field`` / ``invalid_mode``) with the offending values
    and the accepted ones in ``detail`` — a misspelled field must never be
    silently dropped (it would change which result key the job dedups
    against), and a client probing for tiers the server predates deserves
    a machine-readable answer.
    """
    if not isinstance(payload, dict):
        raise ApiError(
            400, "request body must be a JSON object of JobSpec fields",
            code="invalid_body",
        )
    known = sorted(JobSpec.__dataclass_fields__)
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ApiError(
            400,
            f"unknown job spec field(s): {', '.join(unknown)}",
            code="unknown_field",
            detail={"fields": unknown, "known_fields": known},
        )
    mode = payload.get("mode", DEFAULT_MODE)
    if mode not in MODES:
        raise ApiError(
            400,
            f"unknown serving mode {mode!r}",
            code="invalid_mode",
            detail={"mode": mode, "modes": list(MODES)},
        )
    try:
        return JobSpec.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid job spec: {exc}", code="invalid_spec")


def _truthy(values) -> bool:
    return bool(values) and values[-1].lower() in ("1", "true", "yes", "on")


# -- the request handler -------------------------------------------------------


class GatewayRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request; state lives on ``self.server.gateway``."""

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"
    #: The socket timeout, and so the idle limit of a kept connection.
    timeout = KEEPALIVE_IDLE_S
    #: Headers and body go out as two writes; with Nagle on, the body waits
    #: for the client's delayed ACK of the headers (~40 ms per response).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def gateway(self):
        return self.server.gateway

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are observable through telemetry, not stderr noise

    def _end_headers(self) -> None:
        # A request refused before its body was read leaves that body on
        # the socket, where it would parse as the next request.
        if not self._body_read and (
            "Content-Length" in self.headers
            or "Transfer-Encoding" in self.headers
        ):
            self.send_header("Connection", "close")
        self.end_headers()

    def _send_json(
        self,
        status: int,
        payload: Dict,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(json_safe(payload), sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.5))))
        self._end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        self._status = status

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._end_headers()
        self.wfile.write(body)
        self._status = status

    # -- request entry points --------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def _handle(self, method: str) -> None:
        gateway = self.gateway
        registry = gateway.registry
        split = urlsplit(self.path)
        route, handler, needs_auth = self._route(method, split.path)
        self._status = 500
        self._body_read = False
        started = time.monotonic()
        with gateway.tracer.span(
            "gateway.request", method=method, route=route
        ) as attrs:
            try:
                if handler is None:
                    raise ApiError(404, f"no route {method} {split.path}")
                self._maybe_inject_chaos(route)
                token = None
                if needs_auth and gateway.auth is not None:
                    token = gateway.auth.authenticate(
                        self.headers.get("Authorization")
                    )
                    if token is None:
                        registry.counter(GATEWAY_UNAUTHORIZED).inc()
                        raise ApiError(401, "missing or invalid bearer token")
                if needs_auth and gateway.ratelimit is not None:
                    wait = gateway.ratelimit.check(token)
                    if wait is not None:
                        raise ApiError(
                            429, "rate limit exceeded", retry_after=wait
                        )
                handler(split)
            except ApiError as exc:
                self._send_json(
                    exc.status, exc.body(), retry_after=exc.retry_after
                )
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                self._status = 499  # client went away or stalled mid-request
                self.close_connection = True
            except Exception as exc:  # a view bug must not kill the thread
                try:
                    self._send_json(500, {"error": f"internal error: {exc}"})
                except (BrokenPipeError, ConnectionResetError):
                    pass
            finally:
                attrs["status"] = str(self._status)
                registry.counter(
                    GATEWAY_REQUESTS,
                    {
                        "method": method,
                        "route": route,
                        "status": str(self._status),
                    },
                ).inc()
                registry.histogram(
                    GATEWAY_REQUEST_SECONDS,
                    {"route": route},
                    buckets=REQUEST_SECONDS_BUCKETS,
                ).observe(time.monotonic() - started)

    def _route(self, method: str, path: str) -> Tuple[str, Optional[object], bool]:
        """(route template, bound handler or None, auth required)."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "/healthz", self._get_healthz, False
        if path == "/metrics" and method == "GET":
            return "/metrics", self._get_metrics, False
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2:
                if method == "POST":
                    return "/v1/jobs", self._post_job, True
                if method == "GET":
                    return "/v1/jobs", self._get_jobs, True
            elif len(parts) == 3 and method == "GET":
                return "/v1/jobs/{id}", self._get_job, True
            elif len(parts) == 4 and method == "GET":
                if parts[3] == "result":
                    return "/v1/jobs/{id}/result", self._get_result, True
                if parts[3] == "events":
                    return "/v1/jobs/{id}/events", self._get_events, True
        return path, None, True

    # -- chaos injection -------------------------------------------------------

    def _count_chaos(self, kind: str) -> None:
        self.gateway.registry.counter(
            RESILIENCE_CHAOS_INJECTED,
            {"kind": kind},
        ).inc()

    def _maybe_inject_chaos(self, route: str) -> None:
        """Apply at most one scripted HTTP fault to this request.

        No-op unless a chaos plan is installed (``REPRO_CHAOS``). ``delay``
        stalls then proceeds; ``http_5xx`` becomes an injected 500;
        ``conn_drop`` closes the socket without a response (the client sees
        a reset, which its transient retry must absorb).
        """
        injector = chaos.active()
        if injector is None:
            return
        fault = injector.http_fault(route)
        if fault is None:
            return
        self._count_chaos(fault.kind)
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "http_5xx":
            raise ApiError(
                500, "injected chaos: server error", code="chaos_http_5xx"
            )
        elif fault.kind == "conn_drop":
            self.connection.close()
            raise BrokenPipeError("injected chaos: connection dropped")

    # -- route handlers --------------------------------------------------------

    def _read_body(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ApiError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"body larger than {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"body is not valid JSON: {exc}")

    def _job_or_404(self, job_id: str) -> Job:
        job = self.gateway.job(job_id)
        if job is None:
            raise ApiError(404, f"no job {job_id!r}")
        return job

    def _post_job(self, split) -> None:
        spec = parse_job_spec(self._read_body())
        try:
            job = self.gateway.submit(spec)
        except GatewayDrainingError as exc:
            raise ApiError(503, str(exc), retry_after=5.0, code="draining")
        except WrongReplicaError as exc:
            # 421 Misdirected Request: the spec's shard is drained by
            # another replica. The detail names it; a fleet-aware client
            # resubmits there, a plain client surfaces the error.
            raise ApiError(
                421,
                str(exc),
                code="wrong_replica",
                detail={
                    "shard": exc.shard,
                    "owner": exc.owner,
                    "owner_url": exc.owner_url,
                },
            )
        except LoadSheddedError as exc:
            # Cost-aware shedding: the admission controller predicts this
            # job cannot be served in time (or the queue is overloaded).
            # 503 + Retry-After, unlike the 429 below, signals server
            # pressure rather than client misbehavior.
            raise ApiError(
                503,
                str(exc),
                retry_after=exc.retry_after,
                code="load_shed",
                detail={"reason": exc.reason},
            )
        except AdmissionError as exc:
            raise ApiError(429, str(exc), retry_after=1.0)
        except KeyError as exc:  # unknown workload
            raise ApiError(400, str(exc.args[0]) if exc.args else str(exc))
        view = job_view(job, self.gateway.events.rhat_trace(job.job_id))
        self._send_json(202, view)

    def _get_jobs(self, split) -> None:
        jobs = self.gateway.jobs()
        self._send_json(
            200,
            {
                "jobs": [
                    job_view(job, self.gateway.events.rhat_trace(job.job_id))
                    for job in jobs
                ]
            },
        )

    def _get_job(self, split) -> None:
        job_id = split.path.split("/")[3]
        job = self._job_or_404(job_id)
        self._send_json(200, job_view(job, self.gateway.events.rhat_trace(job_id)))

    def _get_result(self, split) -> None:
        job_id = split.path.split("/")[3]
        job = self._job_or_404(job_id)
        include_draws = _truthy(
            parse_qs(split.query).get("include_draws", [])
        )
        self._send_json(200, result_view(job, include_draws=include_draws))

    def _get_metrics(self, split) -> None:
        from repro.telemetry.exposition import render_prometheus

        text = render_prometheus(self.gateway.registry.snapshot())
        self._send_text(200, text, "text/plain; version=0.0.4")

    def _get_healthz(self, split) -> None:
        self._send_json(200, self.gateway.health())

    def _get_events(self, split) -> None:
        job_id = split.path.split("/")[3]
        self._job_or_404(job_id)
        gateway = self.gateway
        sub = gateway.events.subscribe(
            job_id, limit=gateway.sse_subscriber_limit
        )
        sse_counter = gateway.registry.counter(GATEWAY_SSE_EVENTS)
        injector = chaos.active()
        truncate = injector.sse_fault() if injector is not None else None
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # The stream ends with its connection (``send_header`` sets
        # ``close_connection``), so it needs no chunked framing.
        self.send_header("Connection", "close")
        self.end_headers()
        self._status = 200
        sent = 0
        try:
            while True:
                try:
                    event = sub.get(timeout=gateway.sse_keepalive)
                except queue_module.Empty:
                    self.wfile.write(KEEPALIVE)
                    self.wfile.flush()
                    continue
                if event is None:
                    break
                dropped = sub.take_dropped()
                if dropped:
                    # This connection fell behind its bounded mailbox and
                    # lost the oldest events; tell it how many, so a client
                    # knows to re-fetch state instead of trusting the gap.
                    gateway.registry.counter(
                        RESILIENCE_SSE_DROPPED,
                    ).inc(dropped)
                    self.wfile.write(
                        JobEvent(
                            event="dropped",
                            data={"job_id": job_id, "dropped": dropped},
                        ).render()
                    )
                self.wfile.write(event.render())
                self.wfile.flush()
                sse_counter.inc()
                sent += 1
                if truncate is not None and sent >= truncate.after_events:
                    # Injected half-open stream: stop mid-flight with no
                    # terminal event, as a dying proxy would.
                    self._count_chaos(truncate.kind)
                    self.connection.close()
                    break
        finally:
            gateway.events.unsubscribe(job_id, sub)
