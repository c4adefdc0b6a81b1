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

import base64
import dataclasses
import json
import re
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.client import (
    FleetClient,
    GatewayClient,
    GatewayError,
    GatewayUnavailable,
    InvalidRequestError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.fleet import FleetBox, FleetMember, FleetTopology
from repro.gateway import Gateway
from repro.gateway.sse import json_safe
from repro.serve import (
    FileJobQueue,
    InferenceServer,
    JobSpec,
    JobState,
    RetryPolicy,
)
from repro.telemetry.instrument import (
    GATEWAY_RATELIMITED,
    GATEWAY_REQUESTS,
    GATEWAY_SSE_EVENTS,
    GATEWAY_UNAUTHORIZED,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer
from tests.test_job_queue import FakePool
from tests.test_serve_jobs import MALFORMED_STOP_RULE_FIELDS

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

    @pytest.mark.parametrize("field", MALFORMED_STOP_RULE_FIELDS)
    def test_malformed_stop_rule_field_is_invalid_spec(self, live_gateway, field):
        # Each of these once got 202 and then failed every attempt inside
        # the monitor ("false" is truthy: it switched elision on).
        with pytest.raises(InvalidRequestError) as info:
            live_gateway["client"].submit(dict(SPEC.to_dict(), **field))
        assert info.value.status == 400
        assert info.value.code == "invalid_spec"

    def test_a_stop_threshold_in_the_body_is_an_unknown_field(self, live_gateway):
        # The stop rule is the system's: a request cannot name its own.
        with pytest.raises(InvalidRequestError) as info:
            live_gateway["client"].submit(
                dict(SPEC.to_dict(), rhat_threshold=1.05)
            )
        assert info.value.status == 400
        assert info.value.code == "unknown_field"

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
            "--scale", "0.5",
            "--remote", live_gateway["gateway"].url, "--token", TOKEN,
            "--wait",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted votes" in out
        assert "done" in out
        assert "mean" in out  # the summary table header
        # The answer says whether it met the stop rule, with what it judged.
        assert out.splitlines()[-1].startswith("stop rule not met: max R-hat")

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


def test_stop_ends_a_drain_thread_waiting_out_a_backoff(tmp_path):
    """A drain thread waiting inside ``run_next`` for a retry's backoff
    ends at :meth:`Gateway.stop`: no thread is reported stuck, the stop
    takes well under its timeout, a fleet replica hands its shards back,
    and the retry stays parked for the next server."""
    server = InferenceServer(
        pool=FakePool(), retry_policy=RetryPolicy(base_backoff=30.0),
        registry=MetricsRegistry(), tracer=Tracer(),
    )
    server.pool.outcome = "transient"
    member = FleetMember(
        tmp_path, FleetTopology.single_box(n_shards=2), "local"
    )
    gateway = Gateway(server, port=0, fleet=member)
    with server:
        gateway.start()
        assert member.owned_shards == [0, 1]
        job = server.submit(SPEC)
        deadline = time.monotonic() + 10.0
        while job.state is not JobState.RETRYING:
            assert time.monotonic() < deadline, job.state
            time.sleep(0.01)
        time.sleep(0.1)  # the drain thread is waiting out the 30 s backoff
        started = time.monotonic()
        assert gateway.stop(timeout=2.0) == []
        assert time.monotonic() - started < 1.0
        assert member.owned_shards == []
        assert job.state is JobState.RETRYING and job.attempts == 1


RESULT_ROUTE = "/v1/jobs/{id}/result"


def result_requests(*gateways) -> float:
    """Requests the result route answered, any status, over ``gateways``."""
    return sum(
        counter["value"]
        for gateway in gateways
        for counter in gateway.registry.snapshot()["counters"]
        if counter["name"] == GATEWAY_REQUESTS
        and ("route", RESULT_ROUTE) in map(tuple, counter["labels"])
    )


def fake_gateway(**kwargs) -> Gateway:
    """A gateway over a server whose chains run in-process (no pool)."""
    server = InferenceServer(
        pool=FakePool(), registry=MetricsRegistry(), tracer=Tracer(),
    )
    server.__enter__()
    return Gateway(server, port=0, **kwargs)


def stop_all(gateways) -> None:
    for gateway in gateways:
        gateway.stop()
        gateway.server.__exit__(None, None, None)


@pytest.fixture(scope="module")
def fake_pair(tmp_path_factory):
    """One gateway and a two-replica fleet (one shard each), every one of
    them over in-process chains."""
    single = fake_gateway().start()
    queue_root = tmp_path_factory.mktemp("answer-fleet")

    def topology(urls=(None, None)):
        return FleetTopology(n_shards=2, boxes=(
            FleetBox("r0", "skylake", urls[0], (0,)),
            FleetBox("r1", "skylake", urls[1], (1,)),
        ))

    replicas = [
        fake_gateway(fleet=FleetMember(queue_root, topology(), replica_id))
        for replica_id in ("r0", "r1")
    ]
    wired = topology(urls=tuple(gateway.url for gateway in replicas))
    for gateway in replicas:
        gateway.fleet.topology = wired
        gateway.start()
    try:
        yield single, replicas
    finally:
        stop_all([single] + replicas)


class TestTheAnswerRidesTheStream:
    """A job with an answer ends its event stream with a ``result`` event;
    the client keeps it for the next ``result()`` on that job, which then
    costs no request, and returns what a fresh GET would have."""

    @staticmethod
    def assert_served_without_a_request(client, job_id, gateways):
        # A kept connection's handler counts a request before it reads the
        # next one, so a ``healthz()`` on the same connections settles the
        # counts before they are read.
        home = next(g for g in gateways if job_id in g.server.jobs)
        fresh = GatewayClient(home.url)
        with_draws = fresh.result(job_id, include_draws=True)
        without = fresh.result(job_id)
        fresh.healthz()
        fresh.close()
        assert "draws" in with_draws and "draws" not in without
        for include_draws, expected in ((True, with_draws), (False, without)):
            list(client.stream(job_id))
            before = result_requests(*gateways)
            held = client.result(job_id, include_draws=include_draws)
            client.healthz()
            assert result_requests(*gateways) == before
            assert held == expected
        list(client.stream(job_id))
        held = client.result(job_id, include_draws=True)
        assert base64.b64decode(held["draws"]["data"]) == base64.b64decode(
            with_draws["draws"]["data"]
        )
        # Held for one call: the next one asks the result route.
        before = result_requests(*gateways)
        assert client.result(job_id, include_draws=True) == with_draws
        client.healthz()
        assert result_requests(*gateways) == before + 1

    def test_one_gateway(self, fake_pair):
        single, _ = fake_pair
        client = GatewayClient(single.url)
        job_id = client.submit(SPEC)["job_id"]
        assert client.wait(job_id, timeout=60)["state"] in ("done", "converged")
        self.assert_served_without_a_request(client, job_id, [single])
        client.close()

    def test_two_replica_fleet(self, fake_pair):
        _, replicas = fake_pair
        client = FleetClient([gateway.url for gateway in replicas])
        job_ids = [
            client.submit(dataclasses.replace(SPEC, seed=seed))["job_id"]
            for seed in (11, 12, 13, 14)
        ]
        # Both replicas hold some of the jobs.
        homes = {
            gateway.url for gateway in replicas for job_id in job_ids
            if job_id in gateway.server.jobs
        }
        assert len(homes) == 2
        for job_id in job_ids:
            client.wait(job_id, timeout=60)
            self.assert_served_without_a_request(client, job_id, replicas)
        client.close()

    def test_a_stream_left_early_leaves_the_client_working(self, fake_pair):
        single, _ = fake_pair
        client = GatewayClient(single.url)
        job_id = client.submit(dataclasses.replace(SPEC, seed=21))["job_id"]
        client.wait(job_id, timeout=60)
        events = client.stream(job_id)
        assert next(events)[1]["state"] == "queued"
        events.close()  # before the terminal event
        assert client.job(job_id)["terminal"]
        assert client.result(job_id)["job_id"] == job_id
        # A call made while a stream is open rides its own connection, and
        # the stream reads on to its end.
        events = client.stream(job_id)
        next(events)
        assert client.job(job_id)["terminal"]
        rest = list(events)
        assert rest[-1][0] == "state" and rest[-1][1]["state"] in (
            "done", "converged"
        )
        client.healthz()
        before = result_requests(single)
        assert client.result(job_id)["job_id"] == job_id
        client.healthz()
        assert result_requests(single) == before
        client.close()

    def test_failed_and_expired_jobs_still_ask_the_result_route(self):
        gateway = fake_gateway()
        server = gateway.server
        try:
            server.pool.outcome = "poison"
            failed = gateway.submit(dataclasses.replace(SPEC, seed=31))
            expired = gateway.submit(
                dataclasses.replace(SPEC, seed=32, deadline_s=0.01)
            )
            time.sleep(0.05)  # the deadline lapses before a drain thread
            gateway.start()
            client = GatewayClient(
                gateway.url, retry_policy=RetryPolicy(max_attempts=1)
            )
            for job, error, status in (
                (failed, GatewayError, 409),
                (expired, GatewayUnavailable, 504),
            ):
                client.wait(job.job_id, timeout=60)
                events = list(client.stream(job.job_id))
                assert [event for event, _ in events][-1:] == ["state"]
                assert events[-1][1]["state"] == job.state.value
                client.healthz()
                before = result_requests(gateway)
                with pytest.raises(error) as info:
                    client.result(job.job_id, include_draws=True)
                assert type(info.value) is error
                assert info.value.status == status
                client.healthz()
                assert result_requests(gateway) == before + 1
            client.close()
        finally:
            stop_all([gateway])

    def test_a_late_subscriber_replays_the_stored_events(self, fake_pair):
        single, _ = fake_pair
        client = GatewayClient(single.url)
        job_id = client.submit(dataclasses.replace(SPEC, seed=41))["job_id"]
        client.wait(job_id, timeout=60)
        first = list(client.stream(job_id))
        history = single.events.history(job_id)
        assert "result" not in [event.event for event in history]
        stored = [
            (event.event, json.loads(json.dumps(json_safe(event.data))))
            for event in history
        ]
        assert first == stored
        assert list(GatewayClient(single.url).stream(job_id)) == stored
        # On the wire the answer follows the terminal event, once, for
        # this subscriber alone.
        raw = urllib.request.urlopen(f"{single.url}/v1/jobs/{job_id}/events")
        with raw:
            names = [
                line.decode().split(":", 1)[1].strip()
                for line in raw if line.startswith(b"event:")
            ]
        assert names == [event for event, _ in stored] + ["result"]
        assert single.events.history(job_id) == history
        client.close()


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
