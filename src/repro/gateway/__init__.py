"""repro.gateway — the HTTP front door of the inference service.

Turns :class:`~repro.serve.server.InferenceServer` into a multi-tenant
network service without leaving the stdlib:

* :mod:`repro.gateway.app` — :class:`Gateway`: ThreadingHTTPServer plus a
  queue-drain thread per pool worker in one process;
* :mod:`repro.gateway.routes` — routing, JSON views, the request handler;
* :mod:`repro.gateway.sse` — per-job progress events and the
  Server-Sent-Events broker behind ``GET /v1/jobs/{id}/events``;
* :mod:`repro.gateway.auth` — bearer-token authentication;
* :mod:`repro.gateway.ratelimit` — the per-token token-bucket limiter.

The typed client lives in :mod:`repro.client`. Endpoints, auth, event
schema, and rate-limit semantics are documented in ``docs/gateway.md``.

Quick start::

    from repro.serve import InferenceServer
    from repro.gateway import Gateway

    with InferenceServer(n_workers=4) as server:
        with Gateway(server, port=8080) as gateway:
            print(f"serving on {gateway.url}")
            ...  # POST /v1/jobs, stream /v1/jobs/{id}/events, GET /metrics
"""

from repro.gateway.app import Gateway
from repro.gateway.auth import BearerAuth, token_label
from repro.gateway.ratelimit import RateLimiter, TokenBucket
from repro.gateway.routes import (
    ApiError,
    GatewayRequestHandler,
    job_view,
    parse_job_spec,
    provenance_view,
    result_view,
)
from repro.gateway.sse import EventBroker, JobEvent, parse_sse

__all__ = [
    "ApiError",
    "BearerAuth",
    "EventBroker",
    "Gateway",
    "GatewayRequestHandler",
    "JobEvent",
    "RateLimiter",
    "TokenBucket",
    "job_view",
    "parse_job_spec",
    "parse_sse",
    "provenance_view",
    "result_view",
    "token_label",
]
