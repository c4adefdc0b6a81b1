"""Unit tests for the gateway building blocks — no sockets needed.

Auth, rate limiting (with an injectable clock), the SSE event broker and
wire format, the JSON views, and the client's transient-retry loop against
a stub HTTP server. The full network round trip lives in test_gateway.py.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from repro.client import (
    GatewayClient,
    GatewayError,
    GatewayUnavailable,
    RateLimitedError,
    UnauthorizedError,
)
from repro.gateway import (
    ApiError,
    BearerAuth,
    EventBroker,
    JobEvent,
    RateLimiter,
    TokenBucket,
    job_view,
    parse_job_spec,
    parse_sse,
    result_view,
    token_label,
)
from repro.gateway.sse import json_safe
from repro.inference.results import ChainResult, SamplingResult
from repro.serve import InferenceServer, Job, JobSpec, JobState, RetryPolicy
from repro.telemetry.instrument import GATEWAY_RATELIMITED
from repro.telemetry.metrics import MetricsRegistry

SPEC = JobSpec(workload="votes", engine="mh", n_iterations=40, n_chains=2)


class TestTokenLabel:
    def test_hashed_and_stable(self):
        assert token_label("s3cret") == token_label("s3cret")
        assert len(token_label("s3cret")) == 8
        assert "s3cret" not in token_label("s3cret")
        assert token_label("s3cret") != token_label("other")

    def test_anonymous(self):
        assert token_label(None) == "anonymous"


class TestBearerAuth:
    def test_matches_any_configured_token(self):
        auth = BearerAuth(["alpha", "beta"])
        assert auth.authenticate("Bearer alpha") == "alpha"
        assert auth.authenticate("bearer beta") == "beta"  # scheme is ci
        assert len(auth) == 2

    def test_rejects_wrong_or_malformed_credentials(self):
        auth = BearerAuth(["alpha"])
        assert auth.authenticate(None) is None
        assert auth.authenticate("") is None
        assert auth.authenticate("Bearer wrong") is None
        assert auth.authenticate("Basic alpha") is None
        assert auth.authenticate("alpha") is None  # no scheme

    def test_empty_token_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BearerAuth(["", "   "])


class TestRateLimiter:
    def test_burst_then_paced(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: clock[0])
        assert limiter.check("t") is None
        assert limiter.check("t") is None
        wait = limiter.check("t")
        assert wait is not None and wait == pytest.approx(1.0)
        clock[0] = 1.0  # one token accrued
        assert limiter.check("t") is None
        assert limiter.check("t") is not None

    def test_tokens_have_independent_buckets(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        assert limiter.check("a") is None
        assert limiter.check("a") is not None
        assert limiter.check("b") is None  # b's bucket untouched
        assert limiter.check(None) is None  # anonymous is its own tenant

    def test_bucket_never_exceeds_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=2.0, now=0.0)
        assert bucket.acquire(1000.0) == 0.0  # long idle: still capped at 2
        assert bucket.acquire(1000.0) == 0.0
        assert bucket.acquire(1000.0) > 0.0

    def test_rejections_counted_per_token_label(self):
        registry = MetricsRegistry()
        clock = [0.0]
        limiter = RateLimiter(
            rate=1.0, burst=1, registry=registry, clock=lambda: clock[0]
        )
        limiter.check("s3cret")
        limiter.check("s3cret")
        label = token_label("s3cret")
        assert registry.counter_value(
            GATEWAY_RATELIMITED, {"token": label}
        ) == 1.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            RateLimiter(rate=0.0)
        with pytest.raises(ValueError, match="burst"):
            RateLimiter(rate=1.0, burst=0)


class TestEventBroker:
    def test_late_subscriber_replays_history(self):
        broker = EventBroker()
        broker.publish("j", JobEvent("state", {"state": "queued"}))
        broker.publish("j", JobEvent("rhat", {"kept": 20, "rhat": 1.5}))
        sub = broker.subscribe("j")
        assert sub.get_nowait().data["state"] == "queued"
        assert sub.get_nowait().data["rhat"] == 1.5

    def test_terminal_event_closes_the_stream(self):
        broker = EventBroker()
        sub = broker.subscribe("j")
        broker.publish("j", JobEvent("state", {"state": "done"}, terminal=True))
        assert sub.get_nowait().terminal
        assert sub.get_nowait() is None  # sentinel: stream over
        # Publishing after close is a no-op; late subscribers still get
        # the full history plus the sentinel.
        assert broker.publish("j", JobEvent("state", {"state": "zombie"})) == 0
        late = broker.subscribe("j")
        assert late.get_nowait().data["state"] == "done"
        assert late.get_nowait() is None

    def test_rhat_trace_collects_checkpoints(self):
        broker = EventBroker()
        broker.publish("j", JobEvent("state", {"state": "running"}))
        broker.publish("j", JobEvent("rhat", {"kept": 20, "rhat": 2.0}))
        broker.publish("j", JobEvent("rhat", {"kept": 40, "rhat": 1.05}))
        assert broker.rhat_trace("j") == [(20, 2.0), (40, 1.05)]
        assert broker.rhat_trace("unknown") == []

    def test_history_limit_drops_overflow(self):
        broker = EventBroker(history_limit=2)
        for kept in (10, 20, 30):
            broker.publish("j", JobEvent("rhat", {"kept": kept, "rhat": 9.0}))
        assert [e.data["kept"] for e in broker.history("j")] == [10, 20]

    def test_unsubscribe_stops_delivery(self):
        broker = EventBroker()
        sub = broker.subscribe("j")
        broker.unsubscribe("j", sub)
        broker.publish("j", JobEvent("state", {"state": "running"}))
        assert sub.empty()


class TestWireFormat:
    def test_render_parse_roundtrip(self):
        event = JobEvent("rhat", {"job_id": "ab", "kept": 40, "rhat": 1.52})
        lines = event.render().decode("utf-8").splitlines(keepends=True)
        assert parse_sse(lines) == ("rhat", event.data)

    def test_keepalive_comments_are_skipped(self):
        lines = [": keep-alive\n", "\n", "event: state\n",
                 'data: {"state": "done"}\n', "\n"]
        assert parse_sse(lines) == ("state", {"state": "done"})

    def test_json_safe_replaces_nonfinite(self):
        data = {"rhat": float("inf"), "trace": [1.0, float("nan")],
                "nested": {"v": float("-inf")}, "n": 3, "s": "x"}
        safe = json_safe(data)
        assert safe == {"rhat": None, "trace": [1.0, None],
                        "nested": {"v": None}, "n": 3, "s": "x"}
        json.dumps(safe)  # strict-JSON serializable

    def test_rendered_infinity_is_null_on_the_wire(self):
        event = JobEvent("rhat", {"kept": 20, "rhat": float("inf")})
        assert b"Infinity" not in event.render()
        assert parse_sse(
            event.render().decode("utf-8").splitlines(keepends=True)
        ) == ("rhat", {"kept": 20, "rhat": None})


def _finished_job(draws, spec=SPEC) -> Job:
    """A DONE job holding ``draws`` (n_chains, n_kept, dim), no warmup."""
    chains = [
        ChainResult(
            samples=chain, logps=np.zeros(len(chain)),
            work_per_iteration=np.ones(len(chain)), n_warmup=0,
            accept_rate=1.0,
        )
        for chain in draws
    ]
    job = Job(spec)
    job.result = SamplingResult("synthetic", chains)
    job.transition(JobState.RUNNING)
    job.transition(JobState.DONE)
    return job


def _over_the_wire(view):
    """What a client parses: the handler's exact serialization, read back."""
    return json.loads(json.dumps(json_safe(view), sort_keys=True))


class TestResultDocument:
    def test_one_chain_result_has_finite_ess_and_nan_rhat(self):
        rng = np.random.default_rng(0)
        view = result_view(_finished_job(rng.normal(size=(1, 60, 3))))
        assert view["n_chains"] == 1 and len(view["summary"]) == 3
        for row in view["summary"]:
            assert np.isfinite(row["ess"]) and row["ess"] > 0
            assert np.isnan(row["rhat"])
        assert [r["rhat"] for r in _over_the_wire(view)["summary"]] == [None] * 3

    def test_non_finite_draws_round_trip_bit_for_bit(self):
        draws = np.random.default_rng(1).normal(size=(2, 8, 3))
        draws[0, :5, 1] = [np.inf, -np.inf, np.nan, -0.0, 5e-324]
        with np.errstate(all="ignore"):  # the summary of an inf column
            view = result_view(_finished_job(draws), include_draws=True)
        back = GatewayClient.draws(_over_the_wire(view))
        assert back.shape == draws.shape and back.dtype == np.float64
        assert np.array_equal(back, draws, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(draws))
        assert back[0, 4, 1] == 5e-324  # the subnormal was not flushed
        back[0, 0, 0] = 1.0  # and the caller owns the array

    def test_draws_only_on_request_and_as_bytes(self):
        rng = np.random.default_rng(2)
        job = _finished_job(rng.normal(size=(4, 100, 40)))
        assert "draws" not in result_view(job)
        view = result_view(job, include_draws=True)
        assert view["draws"]["shape"] == [4, 100, 40]
        assert view["draws"]["dtype"] == "<f8"
        body = json.dumps(json_safe(view), sort_keys=True).encode("utf-8")
        assert len(body) <= 11 * 4 * 100 * 40 + 8 * 1024
        with pytest.raises(KeyError, match="include_draws"):
            GatewayClient.draws(result_view(job))

    def test_summary_is_computed_once_per_result(self, monkeypatch):
        from repro.inference import results

        calls = []

        def counting(draws, names=None):
            calls.append(draws.shape)
            return summarize(draws, names)

        summarize = results.summarize
        monkeypatch.setattr(results, "summarize", counting)
        with InferenceServer(n_workers=1) as server:
            job = server.submit(SPEC)
            server.run_until_drained()
            assert job.state is JobState.DONE and len(calls) == 1
            repeat = server.submit(SPEC)
            assert repeat.deduped and repeat.job_id != job.job_id
            first = result_view(job)
            assert result_view(job, include_draws=True)["summary"] == first["summary"]
            assert result_view(repeat)["summary"] == first["summary"]
        assert len(calls) == 1


class TestViews:
    def test_job_view_carries_live_rhat(self):
        job = Job(SPEC)
        view = job_view(job, [(20, 2.0), (40, 1.08)])
        assert view["state"] == "queued"
        assert not view["terminal"]
        assert view["rhat"] == {"kept": 40, "value": 1.08}
        assert len(view["rhat_trace"]) == 2
        assert view["spec"] == SPEC.to_dict()

    def test_result_view_409_until_terminal(self):
        job = Job(SPEC)
        with pytest.raises(ApiError) as info:
            result_view(job)
        assert info.value.status == 409
        job.transition(JobState.RUNNING)
        job.transition(JobState.FAILED)
        with pytest.raises(ApiError, match="failed"):
            result_view(job)  # terminal but no result

    def test_job_and_result_views_carry_provenance(self):
        from repro.amortize import Provenance

        job = Job(SPEC)
        assert job_view(job)["provenance"] is None
        assert job_view(job)["mode"] == "exact"
        job.provenance = Provenance(
            mode="checked", tier="exact", k_hat=1.2, k_hat_threshold=0.7,
            guide_id="abc123", escalated=True,
        )
        view = job_view(job)["provenance"]
        assert view["tier"] == "exact" and view["escalated"]
        assert view["k_hat"] == 1.2 and view["guide_id"] == "abc123"

    def test_parse_job_spec_rejects_bad_bodies(self):
        assert parse_job_spec(SPEC.to_dict()) == SPEC
        with pytest.raises(ApiError) as info:
            parse_job_spec(["not", "a", "dict"])
        assert info.value.status == 400
        assert info.value.code == "invalid_body"
        with pytest.raises(ApiError, match="invalid job spec"):
            parse_job_spec({"workload": "votes", "n_iterations": 1})

    def test_parse_job_spec_unknown_field_is_structured(self):
        with pytest.raises(ApiError) as info:
            parse_job_spec({"workload": "votes", "no_such_field": 1,
                            "nor_this": 2})
        err = info.value
        assert err.status == 400
        assert err.code == "unknown_field"
        assert err.detail["fields"] == ["no_such_field", "nor_this"]
        assert "workload" in err.detail["known_fields"]
        body = err.body()
        assert body["code"] == "unknown_field"
        assert body["detail"]["fields"] == ["no_such_field", "nor_this"]

    def test_parse_job_spec_unknown_mode_is_structured(self):
        with pytest.raises(ApiError) as info:
            parse_job_spec({"workload": "votes", "mode": "turbo"})
        err = info.value
        assert err.status == 400
        assert err.code == "invalid_mode"
        assert err.detail == {
            "mode": "turbo", "modes": ["fast", "checked", "exact"]
        }

    def test_api_error_body_omits_unset_extras(self):
        assert ApiError(404, "gone").body() == {"error": "gone"}


class _FlakyHandler(BaseHTTPRequestHandler):
    """Fails with 500 until `failures` is exhausted, then returns JSON."""

    failures = 0
    requests_seen = 0

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self):
        cls = type(self)
        cls.requests_seen += 1
        if cls.failures > 0:
            cls.failures -= 1
            body = json.dumps({"error": "transient hiccup"}).encode()
            self.send_response(500)
        elif self.path == "/v1/denied":
            body = json.dumps({"error": "missing token"}).encode()
            self.send_response(401)
        elif self.path == "/v1/shed":
            body = json.dumps({"error": "slow down"}).encode()
            self.send_response(429)
            self.send_header("Retry-After", "7")
        elif self.path == "/v1/badreq":
            body = json.dumps({
                "error": "unknown serving mode 'turbo'",
                "code": "invalid_mode",
                "detail": {"mode": "turbo",
                           "modes": ["fast", "checked", "exact"]},
            }).encode()
            self.send_response(400)
        else:
            body = json.dumps({"ok": True}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def flaky_server():
    httpd = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    _FlakyHandler.failures = 0
    _FlakyHandler.requests_seen = 0
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


FAST_RETRIES = RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0)


class TestClientRetries:
    def test_5xx_retried_until_success(self, flaky_server):
        _FlakyHandler.failures = 2
        client = GatewayClient(flaky_server, retry_policy=FAST_RETRIES)
        assert client._json("GET", "/v1/ok") == {"ok": True}
        assert _FlakyHandler.requests_seen == 3

    def test_5xx_exhausts_into_gateway_unavailable(self, flaky_server):
        _FlakyHandler.failures = 99
        client = GatewayClient(flaky_server, retry_policy=FAST_RETRIES)
        with pytest.raises(GatewayUnavailable):
            client._json("GET", "/v1/ok")
        assert _FlakyHandler.requests_seen == 3  # max_attempts, no more

    def test_4xx_is_poison_no_retry(self, flaky_server):
        client = GatewayClient(flaky_server, retry_policy=FAST_RETRIES)
        with pytest.raises(UnauthorizedError):
            client._json("GET", "/v1/denied")
        assert _FlakyHandler.requests_seen == 1
        with pytest.raises(RateLimitedError) as info:
            client._json("GET", "/v1/shed")
        assert info.value.retry_after == 7.0
        assert info.value.status == 429

    def test_400_maps_to_typed_invalid_request(self, flaky_server):
        from repro.client import InvalidRequestError

        client = GatewayClient(flaky_server, retry_policy=FAST_RETRIES)
        with pytest.raises(InvalidRequestError) as info:
            client._json("GET", "/v1/badreq")
        err = info.value
        assert err.status == 400
        assert err.code == "invalid_mode"
        assert err.detail["modes"] == ["fast", "checked", "exact"]
        assert _FlakyHandler.requests_seen == 1  # poison: no retry

    def test_connection_refused_raises_unavailable(self):
        client = GatewayClient(
            "http://127.0.0.1:9", retry_policy=FAST_RETRIES, timeout=0.5
        )
        with pytest.raises(GatewayUnavailable, match="unreachable"):
            client.healthz()

    def test_submit_argument_shapes(self, flaky_server):
        client = GatewayClient(flaky_server, retry_policy=FAST_RETRIES)
        with pytest.raises(TypeError, match="JobSpec or a name"):
            client.submit(SPEC, n_iterations=99)
        with pytest.raises(TypeError):
            client.submit(3.14)

    def test_error_hierarchy(self):
        from repro.client import InvalidRequestError

        assert issubclass(UnauthorizedError, GatewayError)
        assert issubclass(RateLimitedError, GatewayError)
        assert issubclass(GatewayUnavailable, GatewayError)
        assert issubclass(InvalidRequestError, GatewayError)


class TestBackoffJitter:
    """The client's retry sleeps are jittered downward (satellite of the
    fleet PR): N clients that saw the same failure must not retry in
    lockstep, and no jittered sleep may exceed the unjittered schedule."""

    POLICY = RetryPolicy(max_attempts=4, base_backoff=0.1, max_backoff=5.0)

    def _recorded_sleeps(self, monkeypatch, client):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        with pytest.raises(GatewayUnavailable):
            client.healthz()
        return sleeps

    def test_zero_jitter_reproduces_the_exact_schedule(self, monkeypatch):
        client = GatewayClient(
            "http://127.0.0.1:9", retry_policy=self.POLICY,
            timeout=0.5, backoff_jitter=0.0,
        )
        sleeps = self._recorded_sleeps(monkeypatch, client)
        expected = [
            self.POLICY.backoff("transient", n)
            for n in range(1, self.POLICY.max_attempts)
        ]
        assert sleeps == expected

    def test_jittered_sleeps_stay_within_bounds(self, monkeypatch):
        import random

        client = GatewayClient(
            "http://127.0.0.1:9", retry_policy=self.POLICY, timeout=0.5,
            backoff_jitter=0.5, rng=random.Random(7),
        )
        sleeps = self._recorded_sleeps(monkeypatch, client)
        assert len(sleeps) == self.POLICY.max_attempts - 1
        for attempt, slept in enumerate(sleeps, start=1):
            full = self.POLICY.backoff("transient", attempt)
            assert 0.5 * full <= slept <= full
            # Vanishingly unlikely to land exactly on either bound.
            assert slept != full

    def test_seeded_clients_desynchronize(self, monkeypatch):
        import random

        schedules = []
        for seed in range(5):
            client = GatewayClient(
                "http://127.0.0.1:9", retry_policy=self.POLICY, timeout=0.5,
                backoff_jitter=0.5, rng=random.Random(seed),
            )
            schedules.append(
                tuple(self._recorded_sleeps(monkeypatch, client))
            )
        # Every client slept a different schedule: the herd is broken.
        assert len(set(schedules)) == len(schedules)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            GatewayClient("http://127.0.0.1:9", backoff_jitter=1.5)
        with pytest.raises(ValueError, match="backoff_jitter"):
            GatewayClient("http://127.0.0.1:9", backoff_jitter=-0.1)
