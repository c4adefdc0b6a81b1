"""Resilience-layer tests: deadlines, shedding, brownout, breakers, drain.

Everything here is tier-1 fast: pure state machines run on fake clocks, and
the end-to-end paths use tiny ``mh`` jobs. Deadline- and halt-mid-run cases
avoid wall-clock races by giving jobs budgets far larger than the deadline
window, so the cooperative stop always wins. The network/disk chaos matrix
lives in ``test_resilience_chaos.py``.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.amortize.policy import Provenance
from repro.gateway import Gateway
from repro.gateway.sse import EventBroker, JobEvent, Subscriber
from repro.resilience import (
    AdmissionController,
    BreakerBoard,
    ChaosFault,
    CircuitBreaker,
    CircuitOpenError,
    LoadSheddedError,
)
from repro.serve import (
    FileJobQueue,
    InferenceServer,
    JobSpec,
    JobState,
    ResultStore,
)
from repro.telemetry.instrument import (
    RESILIENCE_BREAKER_STATE,
    RESILIENCE_BREAKER_TRIPS,
    RESILIENCE_BROWNOUT_DOWNGRADES,
    RESILIENCE_DEADLINE_EXPIRED,
    RESILIENCE_DEGRADED,
    RESILIENCE_DURABILITY_ERRORS,
    RESILIENCE_QUEUE_TORN_LINES,
    RESILIENCE_SHED,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_server(**kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    return InferenceServer(**kwargs)


def spec_for(**overrides):
    overrides.setdefault("workload", "votes")
    overrides.setdefault("engine", "mh")
    overrides.setdefault("n_iterations", 60)
    overrides.setdefault("n_warmup", 30)
    overrides.setdefault("n_chains", 2)
    overrides.setdefault("elide", False)
    return JobSpec(**overrides)


# ---------------------------------------------------------------------------
# Job spec / provenance surface
# ---------------------------------------------------------------------------


class TestDeadlineSpec:
    def test_unset_deadline_keeps_pre_deadline_keys(self):
        # The digest payload must not mention deadline_s when unset, so
        # every key (and every stored result) from before the field existed
        # still matches. White-box on purpose: this is the compatibility
        # contract.
        import hashlib
        import json

        spec = spec_for()
        payload = spec.to_dict()
        payload["n_warmup"] = spec.resolved_warmup
        payload.pop("priority")
        payload.pop("checkpoint_interval")
        payload.pop("deadline_s", None)
        legacy = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert spec.key() == legacy

    def test_deadline_is_part_of_the_key_when_set(self):
        assert spec_for().key() != spec_for(deadline_s=5.0).key()
        assert spec_for(deadline_s=5.0).key() == spec_for(deadline_s=5.0).key()

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            spec_for(deadline_s=0.0)
        with pytest.raises(ValueError):
            spec_for(deadline_s=-1.0)

    def test_expired_state_is_terminal(self):
        assert JobState.EXPIRED.terminal

    def test_degraded_provenance_round_trips(self):
        # Through the JSON the gateway's result view and tier event carry.
        prov = Provenance(mode="exact", tier="exact", degraded="deadline")
        assert json.loads(json.dumps(prov.to_dict()))["degraded"] == "deadline"
        plain = Provenance(mode="exact", tier="exact").to_dict()
        assert json.loads(json.dumps(plain))["degraded"] is None


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_through_half_open(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            "dep", failure_threshold=3, reset_timeout=10.0,
            registry=registry, clock=clock,
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert registry.sum_counter(RESILIENCE_BREAKER_TRIPS) == 1

        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # held off until the probe resolves
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "dep", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("dep", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_one_failure_opens_a_threshold_one_breaker(self):
        breaker = CircuitBreaker("dep", failure_threshold=1)
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert CircuitOpenError("dep").breaker == "dep"

    def test_state_gauge_tracks_transitions(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            "dep", failure_threshold=1, reset_timeout=1.0,
            registry=registry, clock=clock,
        )

        def gauge_value():
            return registry.gauge_value(
                RESILIENCE_BREAKER_STATE, {"breaker": "dep"}
            )

        breaker.record_failure()
        assert gauge_value() == 1.0
        clock.advance(1.0)
        assert breaker.state == "half_open"
        assert gauge_value() == 0.5
        breaker.record_success()
        breaker.record_failure()  # publish closed first? no: 1-threshold trips
        assert gauge_value() == 1.0

    def test_board_lazily_creates_and_snapshots(self):
        board = BreakerBoard(registry=MetricsRegistry(), failure_threshold=1)
        board.get("guide_store").record_failure()
        snapshot = board.snapshot()
        assert snapshot == {"guide_store": "open"}
        assert board.get("guide_store") is board.get("guide_store")


# ---------------------------------------------------------------------------
# Admission control and brownout
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_ewma_learns_service_times(self):
        ctrl = AdmissionController(ewma_alpha=0.5)
        spec = spec_for()
        assert ctrl.estimate(spec) == 0.0  # fails open: unknown family
        ctrl.observe(spec, 10.0)
        assert ctrl.estimate(spec) == 10.0
        ctrl.observe(spec, 20.0)
        assert ctrl.estimate(spec) == pytest.approx(15.0)

    def test_expected_wait_sums_queue_and_inflight_remainder(self):
        clock = FakeClock()
        ctrl = AdmissionController(clock=clock)
        running = spec_for(seed=1)
        queued = spec_for(seed=2)
        ctrl.observe(running, 8.0)
        ctrl.observe(queued, 8.0)
        ctrl.job_started(running)
        clock.advance(3.0)
        assert ctrl.expected_wait([queued]) == pytest.approx(5.0 + 8.0)
        clock.advance(100.0)  # the in-flight job never contributes < 0
        assert ctrl.expected_wait([queued]) == pytest.approx(8.0)

    def test_expected_wait_counts_every_job_in_flight_over_capacity(self):
        """Two jobs in flight on a two-job server: their remaining work
        plus the queue's, halved; finishing one leaves the other counted."""
        clock = FakeClock()
        ctrl = AdmissionController(clock=clock)
        first, second, queued = (spec_for(seed=seed) for seed in (1, 2, 3))
        for spec in (first, second, queued):
            ctrl.observe(spec, 8.0)
        ticket = ctrl.job_started(first)
        clock.advance(2.0)
        ctrl.job_started(second)
        # (8 - 2) + 8 in flight, 8 queued.
        assert ctrl.expected_wait([queued], 2) == pytest.approx(22.0 / 2)
        ctrl.job_finished(ticket, 2.0, success=False)
        assert ctrl.expected_wait([queued], 2) == pytest.approx(16.0 / 2)

    def test_sheds_deadline_infeasible_with_retry_after(self):
        registry = MetricsRegistry()
        ctrl = AdmissionController(registry=registry)
        spec = spec_for(deadline_s=5.0)
        ctrl.observe(spec, 60.0)
        with pytest.raises(LoadSheddedError) as err:
            ctrl.check(spec, expected_wait=10.0)
        assert err.value.reason == "deadline_infeasible"
        assert err.value.retry_after >= 1.0
        assert registry.sum_counter(RESILIENCE_SHED) == 1

    def test_sheds_overload_past_max_expected_wait(self):
        ctrl = AdmissionController(max_expected_wait=10.0)
        with pytest.raises(LoadSheddedError) as err:
            ctrl.check(spec_for(), expected_wait=25.0)
        assert err.value.reason == "overload"
        assert err.value.retry_after == pytest.approx(15.0)
        ctrl.check(spec_for(), expected_wait=5.0)  # under the bound: admits

    def test_fails_open_for_unknown_families(self):
        ctrl = AdmissionController()
        ctrl.check(spec_for(deadline_s=1.0), expected_wait=0.0)

    def test_brownout_needs_sustained_overload_and_recovers(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            brownout_wait=10.0, brownout_hold_s=5.0, clock=clock
        )
        ctrl.note_wait(20.0)
        assert not ctrl.brownout_active()  # not sustained yet
        clock.advance(3.0)
        ctrl.note_wait(20.0)
        assert not ctrl.brownout_active()
        clock.advance(3.0)
        ctrl.note_wait(20.0)
        assert ctrl.brownout_active()  # 6s over threshold

        # A transient dip resets the recovery clock symmetrically.
        ctrl.note_wait(1.0)
        clock.advance(3.0)
        ctrl.note_wait(1.0)
        assert ctrl.brownout_active()
        clock.advance(3.0)
        ctrl.note_wait(1.0)
        assert not ctrl.brownout_active()


class TestServerShedding:
    def test_expensive_family_is_shed_for_tight_deadlines(self):
        registry = MetricsRegistry()
        admission = AdmissionController(registry=registry)
        with make_server(registry=registry, admission=admission) as server:
            admission.observe(spec_for(), 120.0)
            with pytest.raises(LoadSheddedError) as err:
                server.submit(spec_for(seed=3, deadline_s=2.0))
            assert err.value.reason == "deadline_infeasible"
            # Without a deadline the same family is admitted (fails open —
            # there is no bound configured).
            job = server.submit(spec_for(seed=4))
            assert job.state is JobState.QUEUED

    def test_overload_shedding_counts_queued_work(self):
        admission = AdmissionController(max_expected_wait=50.0)
        with make_server(admission=admission) as server:
            admission.observe(spec_for(), 120.0)
            server.submit(spec_for(seed=5))  # first one rides the empty queue
            with pytest.raises(LoadSheddedError) as err:
                server.submit(spec_for(seed=6))
            assert err.value.reason == "overload"

    def test_duplicate_of_queued_work_is_never_shed(self):
        admission = AdmissionController(max_expected_wait=1.0)
        with make_server(admission=admission) as server:
            admission.observe(spec_for(), 120.0)
            first = server.submit(spec_for(seed=7))
            dup = server.submit(spec_for(seed=7))  # folds onto the queued job
            assert dup.job_id == first.job_id


# ---------------------------------------------------------------------------
# Deadlines through the server
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_before_start_is_dropped_without_running(self):
        registry = MetricsRegistry()
        with make_server(registry=registry) as server:
            job = server.submit(spec_for(deadline_s=0.01))
            time.sleep(0.05)
            ran = server.run_next()
            assert ran is job
            assert job.state is JobState.EXPIRED
            assert job.attempts == 0  # never reached the pool
            assert "deadline" in job.error
        assert registry.sum_counter(RESILIENCE_DEADLINE_EXPIRED) == 1

    def test_mid_run_deadline_serves_partial_draws_degraded(self):
        registry = MetricsRegistry()
        store = ResultStore()
        with make_server(registry=registry, store=store) as server:
            # Warmup 0 so the handful of iterations before the cooperative
            # stop are all servable; the budget is far beyond what 0.25s of
            # MH can produce, so the deadline always wins the race.
            spec = spec_for(
                n_iterations=200_000, n_warmup=0, deadline_s=0.25, seed=11
            )
            job = server.submit(spec)
            server.run_next()
            assert job.state is JobState.DONE
            assert job.provenance is not None
            assert job.provenance.degraded == "deadline"
            assert job.result is not None
            assert 1 <= job.result.n_kept < spec.budget_kept
            # Partial posteriors are timing-dependent: never memoized.
            assert store.get(spec.key()) is None
        assert registry.sum_counter(RESILIENCE_DEGRADED) == 1

    def test_undamaged_run_with_deadline_slack_is_bit_identical(self):
        # A generous deadline must not perturb the draws: the resilience
        # seams idle and the posterior matches a no-deadline run exactly.
        with make_server() as with_deadline, make_server() as plain:
            jobs = (
                with_deadline.submit(spec_for(seed=21, deadline_s=3600.0)),
                plain.submit(spec_for(seed=21)),
            )
            with_deadline.run_until_drained()
            plain.run_until_drained()
            a, b = (job.result.stacked() for job in jobs)
            assert a.shape == b.shape
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Graceful halt (drain) through the pool
# ---------------------------------------------------------------------------


class TestGracefulHalt:
    def test_halt_parks_job_as_retrying_without_consuming_attempts(
        self, tmp_path
    ):
        with make_server(checkpoint_dir=str(tmp_path)) as server:
            job = server.submit(spec_for(
                n_iterations=200_000, n_warmup=0,
                checkpoint_interval=50, seed=31,
            ))
            server.pool.request_halt()  # sticky: fires on the next run_job
            server.run_next()
            assert job.state is JobState.RETRYING
            assert job.was_halted
            assert job.attempts == 0  # the halted attempt is not counted
            assert any(
                "halted" in note for note in job.attempt_errors
            )
            # The chains checkpointed on the way out: resume substrate.
            checkpoints = list(tmp_path.glob(f"{job.job_id}/chain-*.npz"))
            assert len(checkpoints) == job.spec.n_chains
            server.pool.clear_halt()

    def test_halt_then_resume_completes_the_job(self, tmp_path):
        with make_server(checkpoint_dir=str(tmp_path)) as server:
            job = server.submit(spec_for(
                seed=32, n_iterations=400, checkpoint_interval=100
            ))
            server.pool.request_halt()
            server.run_next()
            assert job.state is JobState.RETRYING
            server.pool.clear_halt()
            server.run_until_drained()
            assert job.state is JobState.DONE
            assert job.attempts == 1
            assert job.result.n_kept == job.spec.budget_kept

    def test_halted_run_resumes_bit_identical(self, tmp_path):
        with make_server(checkpoint_dir=str(tmp_path)) as halted, \
                make_server() as plain:
            spec = spec_for(
                seed=33, n_iterations=400, checkpoint_interval=100
            )
            hjob = halted.submit(spec)
            halted.pool.request_halt()
            halted.run_next()
            halted.pool.clear_halt()
            halted.run_until_drained()
            pjob = plain.submit(spec)
            plain.run_until_drained()
            assert np.array_equal(
                hjob.result.stacked(), pjob.result.stacked()
            )


# ---------------------------------------------------------------------------
# Store breaker degradation
# ---------------------------------------------------------------------------


class TestStoreBreaker:
    def test_store_failures_trip_the_breaker_and_degrade_to_misses(self):
        registry = MetricsRegistry()
        board = BreakerBoard(registry=registry, failure_threshold=2)
        with make_server(registry=registry, breakers=board) as server:
            calls = {"get": 0, "put": 0}

            def failing_get(key):
                calls["get"] += 1
                raise OSError(28, "no space left on device")

            def failing_put(key, record):
                calls["put"] += 1
                raise OSError(28, "no space left on device")

            server.store.get = failing_get
            server.store.put = failing_put
            with pytest.warns(RuntimeWarning):
                assert server._store_get("k1") is None
                assert server._store_get("k2") is None
            assert board.get("result_store").state == "open"
            # Open circuit: the store is no longer touched at all.
            server._store_put("k3", object())
            assert calls["put"] == 0
            assert server._store_get("k4") is None
            assert calls["get"] == 2
        assert registry.sum_counter(RESILIENCE_DURABILITY_ERRORS) >= 3

    def test_job_completes_when_the_store_write_fails(self):
        registry = MetricsRegistry()
        with make_server(registry=registry) as server:

            def failing_put(key, record):
                raise OSError(28, "no space left on device")

            server.store.put = failing_put
            job = server.submit(spec_for(seed=41))
            with pytest.warns(RuntimeWarning):
                server.run_until_drained()
            assert job.state is JobState.DONE
            assert job.result is not None
        assert registry.sum_counter(RESILIENCE_DURABILITY_ERRORS) >= 1


# ---------------------------------------------------------------------------
# Durable queue: torn-line tolerance
# ---------------------------------------------------------------------------


class TestTornQueueLines:
    def _torn_counter(self):
        from repro import telemetry

        return telemetry.get_registry().sum_counter(
            RESILIENCE_QUEUE_TORN_LINES
        )

    def test_torn_final_json_line_is_skipped_with_warning(self, tmp_path):
        queue = FileJobQueue(tmp_path / "queue.jsonl")
        queue.submit(spec_for(seed=51))
        queue.submit(spec_for(seed=52))
        before = self._torn_counter()
        with queue.path.open("a") as handle:
            handle.write('{"op": "submit", "id": "torn-en')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="unparseable"):
            recovery = queue.load(compact=False)
        assert len(recovery.pending) == 2
        assert self._torn_counter() == before + 1

    def test_torn_line_with_invalid_utf8_is_quarantined(self, tmp_path):
        # A write torn inside a multi-byte UTF-8 sequence used to raise
        # UnicodeDecodeError from read_text() and take the whole queue down.
        queue = FileJobQueue(tmp_path / "queue.jsonl")
        queue.submit(spec_for(seed=53))
        before = self._torn_counter()
        with queue.path.open("ab") as handle:
            handle.write(b'{"op": "submit", "spec": "caf\xc3')  # torn é
        with pytest.warns(RuntimeWarning, match="undecodable"):
            recovery = queue.load(compact=False)
        assert len(recovery.pending) == 1
        assert recovery.pending[0].spec.seed == 53
        assert self._torn_counter() == before + 1

    def test_clean_queue_loads_without_counting(self, tmp_path):
        queue = FileJobQueue(tmp_path / "queue.jsonl")
        queue.submit(spec_for(seed=54))
        before = self._torn_counter()
        assert len(queue.load(compact=False).pending) == 1
        assert self._torn_counter() == before


# ---------------------------------------------------------------------------
# Bounded SSE subscribers
# ---------------------------------------------------------------------------


def _event(i):
    return JobEvent(event="rhat", data={"i": i})


class TestBoundedSubscriber:
    def test_drop_oldest_keeps_the_freshest_events(self):
        sub = Subscriber(limit=4)
        for i in range(10):
            sub.put(_event(i))
        assert sub.take_dropped() == 6
        got = [sub.get(timeout=0).data["i"] for _ in range(4)]
        assert got == [6, 7, 8, 9]
        assert sub.take_dropped() == 0

    def test_close_sentinel_survives_drop_oldest(self):
        sub = Subscriber(limit=1)
        sub.put(None)
        sub.put(_event(0))  # late event racing a closed stream
        assert sub.get(timeout=0) is None
        assert sub.take_dropped() == 0

    def test_broker_publishes_through_the_bound(self):
        broker = EventBroker()
        sub = broker.subscribe("job-1", limit=2)
        for i in range(5):
            broker.publish("job-1", _event(i))
        assert sub.take_dropped() == 3
        assert sub.get(timeout=0).data["i"] == 3
        assert sub.get(timeout=0).data["i"] == 4

    def test_terminal_event_still_reaches_a_saturated_subscriber(self):
        broker = EventBroker()
        sub = broker.subscribe("job-2", limit=2)
        for i in range(5):
            broker.publish("job-2", _event(i))
        broker.publish(
            "job-2", JobEvent(event="state", data={}, terminal=True)
        )
        seen = []
        while True:
            item = sub.get(timeout=0)
            if item is None:
                break
            seen.append(item)
        assert seen  # some events survived
        assert seen[-1].terminal


# ---------------------------------------------------------------------------
# Gateway drain and stop() reporting
# ---------------------------------------------------------------------------


class TestGatewayDrain:
    def test_drain_refuses_new_jobs_and_stop_reports_clean(self):
        registry = MetricsRegistry()
        server = make_server(registry=registry)
        with server, Gateway(server, port=0) as gateway:
            gateway.begin_drain()
            assert gateway.draining
            from repro.gateway.routes import GatewayDrainingError

            with pytest.raises(GatewayDrainingError):
                gateway.submit(spec_for(seed=61))
            health = gateway.health()
            assert health["status"] == "draining"
            assert health["accepting"] is False
            assert gateway.stop() == []
        server.pool.clear_halt()

    def test_drain_returns_503_with_retry_after_over_http(self):
        from repro.client import GatewayClient, GatewayUnavailable
        from repro.serve import RetryPolicy

        server = make_server()
        with server, Gateway(server, port=0) as gateway:
            client = GatewayClient(
                gateway.url,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            gateway.begin_drain()
            with pytest.raises(GatewayUnavailable) as err:
                client.submit(spec_for(seed=62))
            assert err.value.status == 503
            assert err.value.retry_after == pytest.approx(5.0)
        server.pool.clear_halt()

    def test_stop_reports_stuck_threads_by_name(self):
        server = make_server()
        gateway = Gateway(server, port=0)
        with server:
            gateway.start()
            sleeper = threading.Thread(
                target=time.sleep, args=(1.0,),
                name="stuck-drain", daemon=True,
            )
            sleeper.start()
            gateway._drain_threads = [sleeper]
            with pytest.warns(RuntimeWarning, match="stuck-drain"):
                stuck = gateway.stop(timeout=0.05)
            assert stuck == ["stuck-drain"]
            sleeper.join()


# ---------------------------------------------------------------------------
# Brownout downgrade through the checked tier
# ---------------------------------------------------------------------------


class TestBrownoutDowngrade:
    def test_checked_escalation_downgrades_to_fast_under_brownout(self):
        from repro.inference.advi import ADVI, AdviResult
        from repro.amortize import GuideRecord
        from repro.amortize.guides import model_version, shape_signature
        from repro.suite import load_workload

        clock = FakeClock()
        registry = MetricsRegistry()
        admission = AdmissionController(
            brownout_wait=1.0, brownout_hold_s=1.0,
            registry=registry, clock=clock,
        )
        # Drive the controller into brownout through its public seam.
        admission.note_wait(10.0)
        clock.advance(2.0)
        admission.note_wait(10.0)
        assert admission.brownout_active()

        store = ResultStore()
        with make_server(
            registry=registry, admission=admission, store=store
        ) as server:
            model = load_workload("12cities")
            # An awful guide: PSIS fails closed, the gate demands
            # escalation — which brownout suppresses.
            advi = AdviResult(
                mu=np.full(model.dim, 50.0),
                log_sigma=np.zeros(model.dim),
            )
            server.guide_store.put(GuideRecord(
                guide_id=server.guide_store.key_for(model),
                family=model.name,
                data_shape=shape_signature(model),
                model_version=model_version(model),
                advi=advi,
            ))
            spec = JobSpec(
                workload="12cities", engine="mh", mode="checked",
                n_iterations=40, n_chains=2, elide=False,
            )
            job = server.submit(spec)
            server.run_next()
            assert job.state is JobState.DONE
            prov = job.provenance
            assert prov.degraded == "brownout"
            assert prov.tier == "fast" and not prov.escalated
            assert prov.k_hat is not None  # the gate still measured it
            # Degraded answers are never memoized.
            assert store.get(spec.key()) is None
        assert registry.sum_counter(RESILIENCE_BROWNOUT_DOWNGRADES) == 1
        assert registry.sum_counter(RESILIENCE_DEGRADED) == 1


# ---------------------------------------------------------------------------
# Chaos plan plumbing (unit; the live matrix is in test_resilience_chaos)
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_plan_round_trips_and_claims_once(self, tmp_path):
        from repro.resilience import chaos

        plan = chaos.write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="enospc", target="store")],
        )
        with chaos.installed(plan):
            injector = chaos.active()
            assert injector is not None
            with pytest.raises(OSError) as err:
                injector.fail_write("store")
            assert err.value.errno == 28
            injector.fail_write("store")  # spent: second call is a no-op
            injector.fail_write("checkpoint")  # other targets untouched
        assert chaos.active() is None

    def test_unknown_kind_and_bad_target_are_rejected(self):
        with pytest.raises(ValueError):
            ChaosFault(kind="meteor")
        with pytest.raises(ValueError):
            ChaosFault(kind="enospc", target="ramdisk")

    def test_check_write_is_a_noop_without_a_plan(self):
        from repro.resilience import chaos

        chaos.check_write("store")
