"""Chaos suite: scripted network/disk failures against a live gateway.

Every test boots a real gateway on an ephemeral port, installs a
``REPRO_CHAOS`` plan (see :mod:`repro.resilience.chaos`), drives it with the
stdlib HTTP client, and asserts the invariants that matter under fire:

* no job is lost — every accepted submission reaches a terminal state;
* no job double-runs — client retries fold onto the same deterministic key;
* no result is corrupted — what comes back equals a chaos-free run.

The fast cases here ride tier-1; the heavier fault matrix is marked
``slow`` and runs nightly (see ``.github/workflows/ci.yml``).
"""

import contextlib
import time

import numpy as np
import pytest

from repro.client import GatewayClient, GatewayError, GatewayUnavailable
from repro.gateway import Gateway
from repro.resilience import AdmissionController, ChaosFault, chaos
from repro.serve import (
    FileJobQueue,
    InferenceServer,
    JobSpec,
    RetryPolicy,
)
from repro.telemetry.instrument import (
    RESILIENCE_CHAOS_INJECTED,
    RESILIENCE_DURABILITY_ERRORS,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


def small_spec(**overrides):
    overrides.setdefault("workload", "votes")
    overrides.setdefault("engine", "mh")
    overrides.setdefault("n_iterations", 120)
    overrides.setdefault("n_warmup", 60)
    overrides.setdefault("n_chains", 2)
    overrides.setdefault("seed", 1)
    overrides.setdefault("scale", 0.5)
    overrides.setdefault("elide", False)
    return JobSpec(**overrides)


@contextlib.contextmanager
def live_gateway(
    tmp_path, *, admission=None, file_queue=None,
    client_kwargs=None, gateway_kwargs=None,
):
    """A started gateway + client; halts any in-flight job on the way out."""
    registry = MetricsRegistry()
    server = InferenceServer(
        n_workers=2,
        registry=registry, tracer=Tracer(), admission=admission,
    )
    with server, Gateway(
        server, port=0, file_queue=file_queue, **(gateway_kwargs or {})
    ) as gateway:
        client = GatewayClient(gateway.url, **(client_kwargs or {}))
        try:
            yield {
                "gateway": gateway,
                "server": server,
                "client": client,
                "registry": registry,
            }
        finally:
            # Park whatever is still running so Gateway.stop() cannot hang
            # on a long in-flight job.
            gateway.begin_drain()
    server.pool.clear_halt()


class TestHttpChaos:
    def test_submit_survives_5xx_and_dropped_connections(self, tmp_path):
        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [
                ChaosFault(kind="http_5xx", target="/v1/jobs"),
                ChaosFault(kind="conn_drop", target="/v1/jobs"),
            ],
        )
        with live_gateway(tmp_path) as env, chaos.installed(plan):
            # Default policy: 3 attempts — exactly the two faults plus one
            # clean submit. The retries are invisible to the caller.
            view = env["client"].submit(small_spec())
            final = env["client"].wait(view["job_id"], timeout=120)
            assert final["state"] in ("done", "converged")
            assert final["attempts"] == 1  # ran once: retries did not re-run
            assert len(env["client"].jobs()) == 1  # ...or duplicate the job
            assert env["registry"].sum_counter(RESILIENCE_CHAOS_INJECTED) == 2

    def test_a_dropped_kept_connection_ends_at_once(self, tmp_path):
        """The pool forks its workers at the first job, after the client's
        kept connection was accepted, so a worker holds a copy of its
        descriptor. The drop must still reach the client as a hang-up,
        not as a stall to the client's socket timeout."""
        client_kwargs = {
            "timeout": 10.0,
            "retry_policy": RetryPolicy(max_attempts=2, base_backoff=0.0),
        }
        with live_gateway(tmp_path, client_kwargs=client_kwargs) as env:
            view = env["client"].submit(small_spec())
            env["client"].wait(view["job_id"], timeout=120)
            plan = chaos.write_plan(
                str(tmp_path / "plan.json"),
                [ChaosFault(kind="conn_drop", target="/v1/jobs/{id}")],
            )
            with chaos.installed(plan):
                started = time.monotonic()
                assert env["client"].job(view["job_id"])["terminal"]
                assert time.monotonic() - started < 5.0
            assert env["registry"].counter_value(
                RESILIENCE_CHAOS_INJECTED, {"kind": "conn_drop"}
            ) == 1

    def test_delayed_request_still_answers(self, tmp_path):
        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="delay", target="/v1/jobs", seconds=0.3)],
        )
        with live_gateway(tmp_path) as env, chaos.installed(plan):
            view = env["client"].submit(small_spec())
            final = env["client"].wait(view["job_id"], timeout=120)
            assert final["state"] in ("done", "converged")
            assert env["registry"].counter_value(
                RESILIENCE_CHAOS_INJECTED, {"kind": "delay"}
            ) == 1

    def test_result_under_chaos_matches_chaos_free_run(self, tmp_path):
        spec = small_spec(seed=7)
        with live_gateway(tmp_path) as env:
            baseline = env["client"].submit(spec)
            env["client"].wait(baseline["job_id"], timeout=120)
            reference = env["client"].result(
                baseline["job_id"], include_draws=True
            )
        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [
                ChaosFault(kind="http_5xx", target="/v1/jobs"),
                ChaosFault(kind="delay", target="/v1/jobs/{id}", seconds=0.2),
            ],
        )
        with live_gateway(tmp_path) as env, chaos.installed(plan):
            view = env["client"].submit(spec)
            env["client"].wait(view["job_id"], timeout=120)
            result = env["client"].result(view["job_id"], include_draws=True)
        assert np.array_equal(
            GatewayClient.draws(result), GatewayClient.draws(reference)
        )
        assert result["summary"] == reference["summary"]


class TestDiskChaos:
    def test_torn_durable_log_never_loses_the_job(self, tmp_path):
        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="enospc", target="filequeue")],
        )
        file_queue = FileJobQueue(tmp_path / "queue.jsonl")
        with live_gateway(tmp_path, file_queue=file_queue) as env, \
                chaos.installed(plan):
            view = env["client"].submit(small_spec())
            final = env["client"].wait(view["job_id"], timeout=120)
            # The disk refused the append; the job still ran to done —
            # durability degraded, correctness did not.
            assert final["state"] in ("done", "converged")
            assert env["registry"].counter_value(
                RESILIENCE_DURABILITY_ERRORS, {"target": "filequeue"}
            ) >= 1
        # The log stayed parseable (the failed append wrote nothing).
        assert len(file_queue.load(compact=False).pending) == 0

    def test_drain_survives_a_failed_journal_append(self, tmp_path, capsys):
        """``repro serve --drain`` takes the same degrade as the gateway:
        the refused ``running`` mark is warned and counted, the job runs."""
        from repro import telemetry
        from repro.cli import main

        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="enospc", target="filequeue")],
        )
        queue_dir = tmp_path / "q"
        FileJobQueue(queue_dir / "queue.jsonl").submit(small_spec())
        errors = telemetry.get_registry().counter(
            RESILIENCE_DURABILITY_ERRORS, {"target": "filequeue"}
        )
        before = errors.value
        with chaos.installed(plan), pytest.warns(
            RuntimeWarning, match="durable queue append failed"
        ):
            code = main([
                "serve", "--drain", "--queue-dir", str(queue_dir),
                "--workers", "2",
            ])
        assert code == 0
        assert " done " in capsys.readouterr().out
        assert errors.value == before + 1
        assert (queue_dir / "queue.jsonl").read_text() == ""

    @pytest.mark.slow
    def test_checkpoint_enospc_inside_workers_does_not_fail_the_job(
        self, tmp_path
    ):
        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="enospc", target="checkpoint", max_fires=2)],
        )
        registry = MetricsRegistry()
        # installed() must wrap pool startup: the enospc fires inside the
        # worker processes, which read REPRO_CHAOS from their inherited
        # environment.
        with chaos.installed(plan):
            server = InferenceServer(
                n_workers=2,
                registry=registry, tracer=Tracer(),
                checkpoint_dir=str(tmp_path / "ckpt"),
            )
            with server:
                job = server.submit(small_spec(
                    n_iterations=400, checkpoint_interval=50
                ))
                server.run_until_drained()
        assert job.state.value in ("done", "converged")
        assert job.result is not None


class TestSseChaos:
    def test_truncated_stream_recovers_on_reconnect(self, tmp_path):
        with live_gateway(tmp_path) as env:
            view = env["client"].submit(small_spec())
            env["client"].wait(view["job_id"], timeout=120)
            plan = chaos.write_plan(
                str(tmp_path / "plan.json"),
                [ChaosFault(kind="sse_truncate", after_events=2)],
            )
            with chaos.installed(plan):
                truncated = list(env["client"].stream(view["job_id"]))
            # The stream died half-open: some events, no terminal state.
            assert len(truncated) == 2
            assert not any(
                event == "state" and data["state"] in ("done", "converged")
                for event, data in truncated
            )
            assert env["registry"].counter_value(
                RESILIENCE_CHAOS_INJECTED, {"kind": "sse_truncate"}
            ) == 1
            # The fault is spent: a reconnect replays the full history.
            replay = list(env["client"].stream(view["job_id"]))
            assert len(replay) > len(truncated)
            assert replay[-1][0] == "state"
            assert replay[-1][1]["state"] in ("done", "converged")


class TestSlowSubscriber:
    def test_saturated_subscriber_gets_dropped_notice_not_a_stall(
        self, tmp_path
    ):
        # A 2-event mailbox against a job with a long event history: the
        # history replay saturates it instantly — exactly what a consumer
        # that stopped reading mid-run looks like to the publisher. The
        # stream must still end (terminal event survives drop-oldest) and
        # must announce how many events were lost.
        gateway_kwargs = {"sse_subscriber_limit": 2}
        with live_gateway(tmp_path, gateway_kwargs=gateway_kwargs) as env:
            view = env["client"].submit(small_spec(
                check_interval=10, min_kept=10
            ))
            env["client"].wait(view["job_id"], timeout=120)
            events = list(env["client"].stream(view["job_id"]))
            kinds = [event for event, _ in events]
            assert kinds[0] == "dropped"
            dropped = events[0][1]["dropped"]
            assert dropped >= 1
            assert events[-1][0] == "state"
            assert events[-1][1]["state"] in ("done", "converged")
            from repro.telemetry.instrument import RESILIENCE_SSE_DROPPED

            assert env["registry"].sum_counter(
                RESILIENCE_SSE_DROPPED
            ) == dropped
            # Other subscribers are unaffected: the broker kept the full
            # history; only the tiny mailbox lost events.
            assert len(env["gateway"].events.history(view["job_id"])) > 2


class TestDeadlineAndSheddingE2E:
    def test_expired_job_surfaces_as_504(self, tmp_path):
        client_kwargs = {"retry_policy": RetryPolicy(max_attempts=1)}
        with live_gateway(tmp_path, client_kwargs=client_kwargs) as env:
            # Two long jobs, one lane group each, occupy both workers and
            # both drain threads; the deadlined job expires in the queue
            # behind them.
            hog = env["client"].submit(small_spec(seed=2, n_iterations=4_000))
            env["client"].submit(small_spec(seed=4, n_iterations=4_000))
            doomed = env["client"].submit(
                small_spec(seed=3, deadline_s=0.05)
            )
            final = env["client"].wait(doomed["job_id"], timeout=120)
            assert final["state"] == "expired"
            with pytest.raises(GatewayUnavailable) as err:
                env["client"].result(doomed["job_id"])
            assert err.value.status == 504
            assert hog["job_id"] != doomed["job_id"]

    def test_infeasible_deadline_is_shed_with_retry_after(self, tmp_path):
        admission = AdmissionController()
        client_kwargs = {"retry_policy": RetryPolicy(max_attempts=1)}
        with live_gateway(
            tmp_path, admission=admission, client_kwargs=client_kwargs
        ) as env:
            # Teach the controller this family costs minutes; then ask for
            # an answer in two seconds.
            admission.observe(small_spec(), 120.0)
            with pytest.raises(GatewayUnavailable) as err:
                env["client"].submit(small_spec(seed=4, deadline_s=2.0))
            assert err.value.status == 503
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1.0
            assert env["client"].healthz()["queued"] == 0

    @pytest.mark.slow
    def test_shed_then_retry_succeeds_once_load_clears(self, tmp_path):
        admission = AdmissionController(max_expected_wait=10.0)
        client_kwargs = {"retry_policy": RetryPolicy(max_attempts=1)}
        with live_gateway(
            tmp_path, admission=admission, client_kwargs=client_kwargs
        ) as env:
            admission.observe(small_spec(), 120.0)
            env["client"].submit(small_spec(seed=5, n_iterations=2_000))
            with pytest.raises(GatewayUnavailable):
                env["client"].submit(small_spec(seed=6))
            # The overload estimate decays as reality disagrees with it:
            # once the hog finishes (quickly — the 120s estimate was a
            # lie we told the controller), the same submit is admitted.
            import time

            deadline = time.monotonic() + 60
            while True:
                try:
                    view = env["client"].submit(small_spec(seed=6))
                    break
                except GatewayUnavailable:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.5)
            final = env["client"].wait(view["job_id"], timeout=120)
            assert final["state"] in ("done", "converged")
