"""End-to-end gateway tests: HTTP client ↔ live in-process gateway.

The fast tier (tier-1 CI) boots one gateway on an ephemeral port, pushes a
small MH job through the full network path — submit over HTTP, stream the
per-checkpoint R-hat SSE events, download the result — and pins the
determinism contract: the posterior summary fetched through the gateway is
*identical* to a direct :class:`InferenceServer` run of the same spec
(JSON float reprs round-trip exactly).

The slow tier (nightly) exercises the live-streaming path while a job is
running, SSE keep-alives, and the retry/fault surface through the gateway.
"""

import json
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.client import GatewayClient, GatewayError, RateLimitedError, UnauthorizedError
from repro.gateway import Gateway
from repro.serve import FileJobQueue, InferenceServer, JobSpec, RetryPolicy
from repro.telemetry.instrument import (
    GATEWAY_RATELIMITED,
    GATEWAY_REQUESTS,
    GATEWAY_SSE_EVENTS,
    GATEWAY_UNAUTHORIZED,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

TOKEN = "test-t0ken"

#: Small enough for tier-1, convergence-checked every 10 kept draws so the
#: run emits several ``rhat`` SSE events whether or not it ever converges.
SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=120,
    n_warmup=60,
    n_chains=2,
    seed=1,
    scale=0.5,
    elide=True,
    check_interval=10,
    min_kept=10,
)


@pytest.fixture(scope="module")
def live_gateway(tmp_path_factory):
    """One authenticated gateway + client, with SPEC already run to done."""
    queue_dir = tmp_path_factory.mktemp("gateway-queue")
    registry = MetricsRegistry()
    server = InferenceServer(
        n_workers=2,
        registry=registry, tracer=Tracer(),
    )
    file_queue = FileJobQueue(queue_dir / "queue.jsonl")
    with server, Gateway(
        server, port=0, tokens=[TOKEN], file_queue=file_queue
    ) as gateway:
        client = GatewayClient(gateway.url, token=TOKEN)
        job_id = client.submit(SPEC)["job_id"]
        final = client.wait(job_id, timeout=120)
        yield {
            "gateway": gateway,
            "client": client,
            "registry": registry,
            "job_id": job_id,
            "final": final,
            "file_queue": file_queue,
        }


@pytest.fixture(scope="module")
def direct_run():
    """The same SPEC through a plain InferenceServer — the reference answer."""
    with InferenceServer(
        n_workers=2,
        registry=MetricsRegistry(), tracer=Tracer(),
    ) as server:
        job = server.submit(SPEC)
        server.run_until_drained()
        yield job


class TestGatewayE2E:
    def test_submit_runs_to_terminal(self, live_gateway):
        final = live_gateway["final"]
        assert final["terminal"]
        assert final["state"] in ("done", "converged")
        assert final["attempts"] == 1
        assert final["workload"] == "votes"
        # The live R-hat trace was captured checkpoint by checkpoint.
        kept = [point["kept"] for point in final["rhat_trace"]]
        assert kept == sorted(kept) and kept[0] >= 10

    def test_stream_replays_full_event_history(self, live_gateway):
        events = list(live_gateway["client"].stream(live_gateway["job_id"]))
        kinds = [event for event, _ in events]
        assert kinds[0] == "state" and events[0][1]["state"] == "queued"
        assert "running" in [d.get("state") for k, d in events if k == "state"]
        rhats = [d for k, d in events if k == "rhat"]
        assert len(rhats) >= 1  # the acceptance bar: ≥1 R-hat SSE event
        assert all(d["job_id"] == live_gateway["job_id"] for d in rhats)
        # Stream ends on the terminal state event — the generator completed.
        assert kinds[-1] == "state"
        assert events[-1][1]["state"] == live_gateway["final"]["state"]

    def test_result_identical_to_direct_run(self, live_gateway, direct_run):
        result = live_gateway["client"].result(
            live_gateway["job_id"], include_draws=True
        )
        direct = direct_run.result
        np.testing.assert_array_equal(
            GatewayClient.draws(result), direct.stacked()
        )
        from repro.diagnostics.summary import summarize

        reference = summarize(direct.stacked(), list(direct.param_names) or None)
        assert len(result["summary"]) == len(reference)
        for row, ref in zip(result["summary"], reference):
            # Exact equality: JSON float repr round-trips bit-for-bit.
            assert row["name"] == ref.name
            assert row["mean"] == ref.mean
            assert row["sd"] == ref.sd
            assert row["rhat"] == ref.rhat
            assert row["ess"] == ref.ess
        assert result["n_kept"] == direct.n_kept
        assert result["n_chains"] == direct.n_chains

    def test_resubmission_is_deduped(self, live_gateway):
        view = live_gateway["client"].submit(SPEC)
        assert view["deduped"]
        assert view["terminal"]
        # Even a deduped job gets a closed event stream.
        events = list(live_gateway["client"].stream(view["job_id"]))
        assert events[-1][1]["state"] == "done"

    def test_unauthorized_is_401_and_counted(self, live_gateway):
        registry = live_gateway["registry"]
        before = registry.sum_counter(GATEWAY_UNAUTHORIZED)
        anonymous = GatewayClient(live_gateway["gateway"].url)
        with pytest.raises(UnauthorizedError):
            anonymous.jobs()
        wrong = GatewayClient(live_gateway["gateway"].url, token="wrong")
        with pytest.raises(UnauthorizedError):
            wrong.job(live_gateway["job_id"])
        assert registry.sum_counter(GATEWAY_UNAUTHORIZED) == before + 2
        assert registry.counter_value(
            GATEWAY_REQUESTS,
            {"method": "GET", "route": "/v1/jobs", "status": "401"},
        ) >= 1

    def test_healthz_and_metrics_skip_auth(self, live_gateway):
        anonymous = GatewayClient(live_gateway["gateway"].url)
        health = anonymous.healthz()
        assert health["status"] == "ok"
        assert health["draining"]
        assert "repro_gateway_requests_total" in anonymous.metrics()

    def test_metrics_is_valid_prometheus_text(self, live_gateway):
        text = live_gateway["client"].metrics()
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
            r"(\{[a-zA-Z0-9_]+=\"[^\"]*\""         # first label
            r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"    # more labels
            r" [0-9.eE+-]+(\n|$)"                  # value
        )
        names = set()
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                names.add(line.split()[2])
                continue
            assert sample.match(line), f"bad exposition line: {line!r}"
        assert "repro_gateway_requests_total" in names
        assert "repro_gateway_request_seconds" in names
        assert "repro_serve_jobs_total" in names  # one shared registry
        assert live_gateway["registry"].sum_counter(GATEWAY_SSE_EVENTS) > 0

    def test_unknown_job_is_404(self, live_gateway):
        with pytest.raises(GatewayError) as info:
            live_gateway["client"].job("no-such-job")
        assert info.value.status == 404
        with pytest.raises(GatewayError) as info:
            live_gateway["client"]._json("GET", "/v1/nope")
        assert info.value.status == 404

    def test_invalid_spec_is_400(self, live_gateway):
        with pytest.raises(GatewayError) as info:
            live_gateway["client"].submit({"workload": "votes", "bogus": 1})
        assert info.value.status == 400
        with pytest.raises(GatewayError) as info:
            live_gateway["client"].submit({"workload": "not-a-workload"})
        assert info.value.status == 400

    def test_http_submissions_land_in_the_durable_queue(self, live_gateway):
        # Every HTTP submission was logged and marked finished, so a
        # restart recovers nothing.
        recovery = live_gateway["file_queue"].load(compact=False)
        assert recovery.entries == []
        text = live_gateway["file_queue"].path.read_text()
        assert '"op": "submit"' in text
        assert '"op": "finished"' in text

    def test_cli_submit_remote_waits_and_prints_summary(
        self, live_gateway, capsys
    ):
        from repro.cli import main

        code = main([
            "submit", "votes", "--engine", "mh", "--iterations", "120",
            "--warmup", "60", "--chains", "2", "--seed", "1",
            "--scale", "0.5", "--check-interval", "10", "--min-kept", "10",
            "--remote", live_gateway["gateway"].url, "--token", TOKEN,
            "--wait",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted votes" in out
        assert "done" in out
        assert "mean" in out  # the summary table header

    def test_one_chain_job_is_fetched_and_printed(self, live_gateway, capsys):
        """A single chain finishes DONE and its result is served: R-hat
        ``null`` on the wire, ``nan`` in the CLI table — not a 500 the
        client retries as transient."""
        from repro.cli import main

        code = main([
            "submit", "votes", "--engine", "mh", "--iterations", "40",
            "--chains", "1", "--seed", "8", "--scale", "0.5",
            "--remote", live_gateway["gateway"].url, "--token", TOKEN,
            "--wait",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "done" in out
        assert out.splitlines()[-1].split()[-1] == "nan"
        (job,) = [
            view for view in live_gateway["client"].jobs()
            if view["spec"]["n_chains"] == 1
        ]
        result = live_gateway["client"].result(job["job_id"], include_draws=True)
        assert {row["rhat"] for row in result["summary"]} == {None}
        assert GatewayClient.draws(result).shape[0] == 1


class TestGatewayRateLimit:
    def test_burst_exhaustion_is_429_with_retry_after(self):
        registry = MetricsRegistry()
        server = InferenceServer(
            n_workers=2,
            registry=registry, tracer=Tracer(),
        )
        with server, Gateway(
            server, port=0, rate_limit=0.5, burst=1
        ) as gateway:
            client = GatewayClient(gateway.url)
            assert client.jobs() == []
            with pytest.raises(RateLimitedError) as info:
                client.jobs()
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1
            # healthz and /metrics stay reachable for probes and scrapers.
            assert client.healthz()["status"] == "ok"
            assert "repro_gateway" in client.metrics()
        assert registry.sum_counter(GATEWAY_RATELIMITED) >= 1
        assert registry.counter_value(
            GATEWAY_REQUESTS,
            {"method": "GET", "route": "/v1/jobs", "status": "429"},
        ) >= 1


FAILING_SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=40,
    n_chains=2,
    seed=9,
    elide=False,
    engine_options={"not_a_sampler_option": 1},
)


@pytest.mark.slow
class TestGatewaySlow:
    def test_live_stream_sees_events_while_running(self):
        """Subscribe *before* the run finishes: events arrive live, with
        keep-alive comments filling the quiet stretches."""
        server = InferenceServer(
            n_workers=2,
            registry=MetricsRegistry(), tracer=Tracer(),
        )
        spec = JobSpec(
            workload="12cities", engine="nuts", n_iterations=180,
            n_warmup=60, n_chains=3, seed=3, scale=0.25,
            check_interval=10, min_kept=10,
        )
        with server, Gateway(server, port=0, sse_keepalive=0.05) as gateway:
            client = GatewayClient(gateway.url)
            job_id = client.submit(spec)["job_id"]
            raw = urllib.request.urlopen(
                f"{gateway.url}/v1/jobs/{job_id}/events", timeout=180
            )
            saw_keepalive = False
            events = []
            event = None
            with raw:
                for line in raw:
                    text = line.decode("utf-8").rstrip("\r\n")
                    if text.startswith(":"):
                        saw_keepalive = True
                    elif text.startswith("event:"):
                        event = text.split(":", 1)[1].strip()
                    elif text.startswith("data:"):
                        events.append(
                            (event, json.loads(text.split(":", 1)[1]))
                        )
            assert saw_keepalive
            states = [d["state"] for k, d in events if k == "state"]
            assert states[0] == "queued"
            assert states[-1] in ("done", "converged")
            assert sum(1 for k, _ in events if k == "rhat") >= 1

    def test_failed_job_streams_its_retries(self):
        server = InferenceServer(
            n_workers=2,
            registry=MetricsRegistry(), tracer=Tracer(),
            retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.0),
        )
        with server, Gateway(server, port=0) as gateway:
            client = GatewayClient(gateway.url)
            job_id = client.submit(FAILING_SPEC)["job_id"]
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "failed"
            assert final["attempts"] == 2
            assert final["failure_kind"] == "poison"
            events = list(client.stream(job_id))
            states = [d["state"] for k, d in events if k == "state"]
            assert "retrying" in states
            assert states[-1] == "failed"
            terminal = events[-1][1]
            assert "error" in terminal
            # The result endpoint refuses politely.
            with pytest.raises(GatewayError) as info:
                client.result(job_id)
            assert info.value.status == 409

    def test_many_concurrent_clients_one_job(self):
        """A thundering herd of streamers and pollers on one job: every
        stream sees the same terminal state, nothing deadlocks."""
        server = InferenceServer(
            n_workers=2,
            registry=MetricsRegistry(), tracer=Tracer(),
        )
        with server, Gateway(server, port=0) as gateway:
            client = GatewayClient(gateway.url)
            job_id = client.submit(SPEC)["job_id"]
            finals = []
            lock = threading.Lock()

            def stream_one():
                events = list(GatewayClient(gateway.url).stream(job_id))
                with lock:
                    finals.append(events[-1][1]["state"])

            threads = [
                threading.Thread(target=stream_one) for _ in range(6)
            ]
            for t in threads:
                t.start()
            client.wait(job_id, timeout=120)
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert finals == ["done"] * 6
