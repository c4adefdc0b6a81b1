"""Fault tolerance end-to-end: supervised workers, retry policy, recovery.

These tests script failures with :mod:`repro.resilience.chaos` and assert
the headline guarantees of the fault-tolerant service:

* a SIGKILL'd worker is detected within about one poll interval (not the
  job timeout), respawned, and its chain re-run or resumed — with final
  draws **bit-identical** to a run that never failed;
* a poison job (deterministic failure, e.g. a non-finite log-density at the
  initial position) is quarantined to FAILED after ``max_attempts`` with
  every attempt's traceback, without blocking other queued work;
* an armed plan does not change how a job's chains are grouped, and a
  chain fault ends the job the same way for both groupings — one chain per
  group (``mh``) and one batched group (>= 2 homogeneous ``hmc``/``nuts``
  chains), both in worker processes.

Longer scenarios (hang detection, restart-budget exhaustion, elision under
injected kills) are marked ``slow`` and run in the scheduled CI job; the
batched-group ``kill`` lives in ``test_batch_faults.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import batch
from repro.inference import run_chains
from repro.inference.engines import build_engine
from repro.resilience import chaos
from repro.resilience.chaos import (
    ENV_VAR,
    ChaosFault,
    ChaosInjector,
    InjectedFaultError,
    installed,
    read_plan,
    write_plan,
)
from repro.serve import (
    ChainExecutionError,
    ChainWorkerPool,
    InferenceServer,
    Job,
    JobDeadlineExceeded,
    JobSpec,
    JobState,
    RetryPolicy,
    chain_tasks,
    classify_failure,
)
from repro.serve.workers import run_chain_group
from repro.suite import load_workload
from repro.telemetry import ChainMetricsMerger, MetricsRegistry
from repro.telemetry.instrument import BATCH_LANE_EVALS, BATCH_ROUNDS


class TestFaultPlans:
    def test_plan_roundtrip(self, tmp_path):
        plan = tmp_path / "faults.json"
        faults = [
            ChaosFault(kind="kill", iteration=20, chain_index=1),
            ChaosFault(kind="nan_logp", iteration=-1, job_id="abc"),
            ChaosFault(kind="hang", iteration=5, seconds=9.0, max_fires=2),
            ChaosFault(kind="enospc", target="checkpoint"),
            ChaosFault(kind="sse_truncate", after_events=3),
        ]
        write_plan(str(plan), faults)
        assert read_plan(str(plan)) == faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosFault(kind="meteor", iteration=0)

    def test_installed_sets_and_restores_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with installed(str(tmp_path / "plan.json")) as path:
            assert os.environ[ENV_VAR] == path
        assert ENV_VAR not in os.environ

    def test_injector_fires_once_across_claims(self, tmp_path):
        plan = str(tmp_path / "plan.json")
        write_plan(plan, [ChaosFault(kind="raise", iteration=3)])
        injector = ChaosInjector(read_plan(plan), plan)
        with pytest.raises(InjectedFaultError):
            injector.for_chain("job", 0).on_iteration(3)
        # The sentinel is spent: a deterministic replay sails through.
        injector.for_chain("job", 0).on_iteration(3)

    def test_untargeted_chain_carries_no_hook(self):
        injector = ChaosInjector([
            ChaosFault(kind="raise", iteration=3, job_id="a", chain_index=1),
            ChaosFault(kind="enospc", target="store"),
        ])
        assert injector.for_chain("a", 0) is None
        assert injector.for_chain("b", 1) is None
        assert injector.for_chain("a", 1) is not None

    def test_missing_plan_disables_injection(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "nonexistent.json"))
        assert chaos.active() is None

    def test_plan_written_after_install_still_arms(self, tmp_path):
        """The suites install the path first and write the plan once they
        know the job id; a miss on the not-yet-written file must not stick,
        and a rewritten plan must replace the parsed one."""
        plan = str(tmp_path / "plan.json")
        with installed(plan):
            assert chaos.active() is None
            write_plan(plan, [ChaosFault(kind="raise", iteration=3)])
            first = chaos.active()
            assert [f.kind for f in first.faults] == ["raise"]
            assert chaos.active() is first  # parsed once per version
            write_plan(plan, [ChaosFault(kind="hang", iteration=10)])
            assert [f.kind for f in chaos.active().faults] == ["hang"]
        assert chaos.active() is None


class TestRetryingState:
    def test_running_to_retrying_roundtrip(self):
        job = Job(JobSpec(workload="votes", engine="mh", n_iterations=20))
        job.transition(JobState.RUNNING)
        job.transition(JobState.RETRYING)
        assert not job.state.terminal
        job.transition(JobState.RUNNING)
        job.transition(JobState.RETRYING)
        job.transition(JobState.FAILED)
        assert job.state.terminal

    def test_retrying_cannot_complete_directly(self):
        job = Job(JobSpec(workload="votes", engine="mh", n_iterations=20))
        job.transition(JobState.RUNNING)
        job.transition(JobState.RETRYING)
        with pytest.raises(ValueError, match="illegal job transition"):
            job.transition(JobState.DONE)

    def test_classify_failure(self):
        poison = ChainExecutionError("j", {0: "tb"}, {0: "poison"})
        mixed = ChainExecutionError("j", {0: "a", 1: "b"},
                                    {0: "transient", 1: "poison"})
        transient = ChainExecutionError("j", {0: "tb"}, {0: "transient"})
        assert classify_failure(poison) == "poison"
        assert classify_failure(mixed) == "poison"
        assert classify_failure(transient) == "transient"
        assert classify_failure(TimeoutError("x")) == "transient"
        assert classify_failure(RuntimeError("x")) == "poison"

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_backoff=0.5, max_backoff=1.5)
        assert policy.backoff("transient", 1) == 0.5
        assert policy.backoff("transient", 2) == 1.0
        assert policy.backoff("transient", 3) == 1.5  # capped
        assert policy.backoff("poison", 1) == 0.0


KILL_SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=60,
    n_warmup=30,
    n_chains=2,
    seed=4,
    scale=0.25,
    elide=False,
    checkpoint_interval=10,
)


def _sequential(spec: JobSpec):
    return run_chains(
        load_workload(spec.workload, scale=spec.scale, seed=spec.dataset_seed),
        build_engine(spec.engine, spec.engine_options),
        n_iterations=spec.n_iterations,
        n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains,
        seed=spec.seed,
        initial_jitter=spec.initial_jitter,
    )


def _assert_bit_identical(result, reference):
    for got, want in zip(result.chains, reference.chains):
        np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(got.logps, want.logps)
        np.testing.assert_array_equal(
            got.work_per_iteration, want.work_per_iteration
        )


def test_sigkilled_worker_is_detected_resumed_and_bit_identical(tmp_path):
    """The acceptance scenario: kill a worker mid-chain; the supervisor
    notices within ~poll_interval, respawns it, resumes the chain from its
    checkpoint, and the job's draws equal an unfailed run's exactly."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="kill", iteration=40, chain_index=1)])
    pool = ChainWorkerPool(
        n_workers=2, poll_interval=0.2, job_timeout=120.0,
    )
    with installed(plan):
        with InferenceServer(
            pool=pool,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ) as server:
            job = server.submit(KILL_SPEC)
            started = time.monotonic()
            finished = server.run_until_drained()
            elapsed = time.monotonic() - started
    assert finished == [job]
    assert job.state is JobState.DONE
    # The pool healed the loss itself: no server-level retry was needed,
    # and detection keyed off the poll interval, not job_timeout.
    assert job.attempts == 1
    assert pool.restarted_workers >= 1
    assert elapsed < 60.0
    _assert_bit_identical(job.result, _sequential(KILL_SPEC))


#: How a job's chains are grouped is decided by what the pool observes
#: about the job, never by whether a plan is armed: >= 2 homogeneous
#: chains, of any engine, run as one batched group in one worker, and with
#: REPRO_BATCH=0 (the "pool" leg) each chain gets a worker group of its own.
PLACEMENTS = {
    "pool": dict(workload="votes", engine="mh", scale=0.25, elide=False),
    "batched": dict(
        workload="12cities", engine="hmc", engine_options={"n_leapfrog": 4},
        scale=0.25, elide=False,
    ),
}


@pytest.fixture(params=sorted(PLACEMENTS))
def placed(request):
    """``(spec_fields, registry, check)``: ``check()`` asserts the jobs run
    so far were grouped as the placement says — the batch counters cross
    the process boundary in the chains' metrics — so no leg passes
    vacuously."""
    registry = MetricsRegistry()
    batched = request.param == "batched"

    def check():
        rounds = registry.sum_counter(BATCH_ROUNDS)
        assert rounds > 0 if batched else rounds == 0

    with batch.override(batched):
        yield PLACEMENTS[request.param], registry, check


def test_poison_job_quarantined_without_blocking_queue(tmp_path, placed):
    fields, registry, check_placement = placed
    plan = str(tmp_path / "plan.json")
    with installed(plan):
        with InferenceServer(
            n_workers=2, registry=registry,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.0),
        ) as server:
            poison = server.submit(JobSpec(
                n_iterations=30, n_chains=2, seed=9, priority=5, **fields
            ))
            healthy = server.submit(JobSpec(
                n_iterations=30, n_chains=2, seed=11, **fields
            ))
            # Poison exactly the high-priority job's initial density.
            write_plan(plan, [
                ChaosFault(kind="nan_logp", iteration=-1, job_id=poison.job_id),
            ])
            finished = server.run_until_drained()

    assert [job.job_id for job in finished] == [poison.job_id, healthy.job_id]
    assert poison.state is JobState.FAILED
    assert poison.attempts == 3
    assert poison.failure_kind == "poison"
    assert len(poison.attempt_errors) == 3
    assert "non-finite" in poison.error
    assert "failed after 3 attempt(s)" in poison.error
    # The quarantine never blocked the rest of the queue.
    assert healthy.state is JobState.DONE
    assert poison.spec.key() not in server.store
    check_placement()


def test_injected_raise_is_classified_poison(tmp_path, placed):
    fields, registry, check_placement = placed
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="raise", iteration=10, chain_index=0)])
    spec = JobSpec(n_iterations=30, n_chains=2, seed=2, **fields)
    with installed(plan):
        with ChainWorkerPool(
            n_workers=2, poll_interval=0.2, registry=registry
        ) as pool:
            with pytest.raises(ChainExecutionError) as err:
                pool.run_job(chain_tasks(spec, "raise-job"))
            assert err.value.poison
            assert err.value.kinds == {0: "poison"}
            assert classify_failure(err.value) == "poison"
            assert "injected fault" in err.value.tracebacks[0]
            # The pool survives for the next job (the fault is spent).
            chains = pool.run_job(chain_tasks(spec, "after-raise"))
    assert len(chains) == 2
    check_placement()


def _run_both_transports(spec, job_id, **run_kwargs):
    """The same spec under the armed plan as groups of one and as one
    batched group, both in workers; each outcome is the chains or the
    exception."""
    outcomes = []
    for batched in (False, True):
        with batch.override(batched):
            tasks = chain_tasks(spec, f"{job_id}-{int(batched)}")
            assert ChainWorkerPool._batchable(tasks) is batched
            with ChainWorkerPool(n_workers=2, poll_interval=0.2) as pool:
                try:
                    outcomes.append(pool.run_job(tasks, **run_kwargs))
                except Exception as exc:  # compared below, never swallowed
                    outcomes.append(exc)
    return outcomes


HMC_SPEC = JobSpec(n_iterations=24, n_warmup=8, n_chains=3, seed=7,
                   **PLACEMENTS["batched"])


@pytest.mark.parametrize("fault", [
    # One firing per transport: one-shot kinds are spent once fired.
    ChaosFault(kind="raise", iteration=6, chain_index=1, max_fires=2),
    ChaosFault(kind="nan_logp", iteration=-1, chain_index=2),
], ids=lambda fault: fault.kind)
def test_chain_fault_fails_the_job_alike_on_both_transports(tmp_path, fault):
    """One hmc spec, one plan: groups of one and the batched group report
    the same failed chain, kind and retry class, and both stop the
    survivors instead of running them out."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [fault])
    with installed(plan):
        pooled, batched = _run_both_transports(HMC_SPEC, "alike")
    for exc in (pooled, batched):
        assert isinstance(exc, ChainExecutionError)
        assert exc.kinds == {fault.chain_index: "poison"}
        assert classify_failure(exc) == "poison"
    needle = "injected fault" if fault.kind == "raise" else "non-finite"
    assert needle in pooled.tracebacks[fault.chain_index]
    assert needle in batched.tracebacks[fault.chain_index]


def test_nan_logp_mid_run_poisons_one_chain_alike_on_both_transports(tmp_path):
    """NaN evaluations from iteration 10 on, for chain 1 only. Groups of
    one and the batched group alike keep the model clean and poison the
    chain's answers at the generator boundary, whether each lane is
    answered solo or by the batched replay. Either way chain 1 sees
    exactly the same numbers, so its draws are
    bit-identical across groupings — stuck from the poisoned iteration
    on — and the other chains equal an unfaulted run."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=10, chain_index=1)])
    with installed(plan):
        pooled, batched = _run_both_transports(HMC_SPEC, "nan-mid")
    clean = _sequential(HMC_SPEC).chains
    for index in range(HMC_SPEC.n_chains):
        np.testing.assert_array_equal(
            pooled[index].samples, batched[index].samples
        )
        np.testing.assert_array_equal(pooled[index].logps, batched[index].logps)
        if index != 1:
            np.testing.assert_array_equal(pooled[index].samples, clean[index].samples)
    np.testing.assert_array_equal(pooled[1].samples[:10], clean[1].samples[:10])
    assert not np.array_equal(pooled[1].samples, clean[1].samples)


MH_SPEC = JobSpec(n_iterations=30, n_warmup=10, n_chains=2, seed=3,
                  **PLACEMENTS["pool"])


def _mh_group_of_one(plan):
    """Chain 1 of ``MH_SPEC`` run as a group of one under the armed plan:
    its result, or the exception its ``error`` event carries."""
    with installed(plan):
        chains, failures = run_chain_group(chain_tasks(MH_SPEC, "mh-one")[1:])
    return failures[1] if failures else chains[1]


def test_nan_logp_poisons_an_mh_group_of_one_at_the_generator_boundary(
    tmp_path,
):
    """A value engine's group of one is poisoned where a batched lane is:
    its answers turn NaN at the generator boundary, the model stays
    clean. At iteration -1 the initial position is poison ("non-finite");
    mid-run, the draws before the poison iteration are the clean run's,
    and from there every NaN proposal is rejected, so the chain stays put
    to the end and completes."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=-1, chain_index=1)])
    failure = _mh_group_of_one(plan)
    assert "non-finite" in str(failure)

    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=10, chain_index=1)])
    chain = _mh_group_of_one(plan)
    clean = _sequential(MH_SPEC).chains[1]
    assert np.array_equal(chain.samples[:10], clean.samples[:10])
    assert np.array_equal(chain.logps[:10], clean.logps[:10])
    assert chain.n_iterations == MH_SPEC.n_iterations
    assert (chain.samples[10:] == chain.samples[9]).all()
    assert (chain.logps[10:] == chain.logps[9]).all()


def test_group_with_a_chain_that_fails_to_open_runs_the_rest(tmp_path):
    """Chain 1 is poisoned at its initial position, so it never gets a lane:
    the group drives two generators over a three-lane evaluator, and with
    nobody acting on the ``error`` event (``run_job`` would stop the job)
    the survivors run out bit-identical to an unfaulted run."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=-1, chain_index=1)])
    registry = MetricsRegistry()
    merger = ChainMetricsMerger(registry)

    def send(event):
        kind, job_id, chain_index, _, payload = event
        if kind == "metrics":
            merger.merge(job_id, chain_index, payload)

    with installed(plan):
        chains, failures = run_chain_group(
            chain_tasks(HMC_SPEC, "short-group"), send
        )
    assert sorted(failures) == [1] and sorted(chains) == [0, 2]
    clean = _sequential(HMC_SPEC).chains
    for index, chain in chains.items():
        assert np.array_equal(chain.samples, clean[index].samples)
        assert np.array_equal(chain.logps, clean[index].logps)
    rounds = registry.sum_counter(BATCH_ROUNDS)
    assert 0 < registry.sum_counter(BATCH_LANE_EVALS) <= 2 * rounds


def test_hang_in_a_batched_group_ends_at_the_deadline_broadcast(tmp_path):
    """A hang sleeps in the worker hosting the group, stalling every lane.
    With no heartbeat timeout armed nobody reaps it (slow test below), but
    the parent keeps polling: it broadcasts the deadline's stop while the
    sleep lasts, and the hook that slept reads it — faults fire before the
    poll — so the job ends as soon as the sleep returns."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [
        ChaosFault(kind="hang", iteration=0, chain_index=0, seconds=1.0),
    ])
    registry = MetricsRegistry()
    pool = ChainWorkerPool(n_workers=1, poll_interval=0.1, registry=registry)
    with installed(plan), batch.override(True), pool:
        started = time.monotonic()
        with pytest.raises(JobDeadlineExceeded) as err:
            pool.run_job(
                chain_tasks(HMC_SPEC, "hang-job"), deadline_at=started + 0.2
            )
        elapsed = time.monotonic() - started
    assert os.path.exists(plan + ".fired-0-0")
    assert elapsed >= 1.0
    assert registry.sum_counter(BATCH_ROUNDS) > 0
    assert len(err.value.chains) == HMC_SPEC.n_chains
    assert all(chain.n_iterations <= 2 for chain in err.value.chains)
    assert pool.restarted_workers == 0  # waited out, not reaped


@pytest.mark.slow
def test_restart_budget_exhaustion_is_transient_failure(tmp_path):
    """A chain whose worker dies on every replay exhausts the pool's
    restart budget and surfaces as a transient job failure; the server
    retries the whole job and finally quarantines it as FAILED."""
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [
        ChaosFault(kind="kill", iteration=10, chain_index=1, max_fires=20),
    ])
    pool = ChainWorkerPool(
        n_workers=2, poll_interval=0.1, max_chain_restarts=2,
        job_timeout=120.0,
    )
    with installed(plan):
        with InferenceServer(
            pool=pool,
            retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.0),
        ) as server:
            job = server.submit(
                "votes", engine="mh", n_iterations=40, n_chains=2, seed=6,
                scale=0.25, elide=False,
            )
            server.run_until_drained()
    assert job.state is JobState.FAILED
    assert job.failure_kind == "transient"
    assert job.attempts == 2
    assert "worker lost" in job.error


@pytest.mark.slow
def test_hung_worker_is_reaped_by_heartbeat_timeout(tmp_path):
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="hang", iteration=20, chain_index=0,
                            seconds=600.0)])
    spec = JobSpec(workload="votes", engine="mh", n_iterations=60,
                   n_warmup=30, n_chains=2, seed=4, scale=0.25, elide=False)
    pool = ChainWorkerPool(
        n_workers=2, poll_interval=0.2, heartbeat_interval=0.2,
        heartbeat_timeout=3.0, job_timeout=120.0,
    )
    with installed(plan):
        with pool:
            started = time.monotonic()
            chains = pool.run_job(chain_tasks(spec, "hang-job"))
            elapsed = time.monotonic() - started
    assert pool.restarted_workers >= 1
    assert elapsed < 60.0
    _assert_bit_identical(
        type("R", (), {"chains": chains})(), _sequential(spec)
    )


@pytest.mark.slow
@pytest.mark.parametrize("batched", [False, True],
                         ids=["groups-of-one", "batched"])
def test_kill_under_elision_still_matches_sequential_prefix(tmp_path, batched):
    """Worker loss composes with mid-run elision: the monitor's chain reset
    plus the deterministic replay keep the CONVERGED result bit-identical
    to the unfailed elided run. With one chain per group only the lost
    chain is reset while the others keep streaming; as one batched group,
    losing its worker resets and resumes all three chains."""
    spec = JobSpec(
        workload="12cities", engine="nuts", n_iterations=180, n_warmup=60,
        n_chains=3, seed=3, scale=0.25, checkpoint_interval=25,
    )
    plan = str(tmp_path / "plan.json")
    with installed(plan), batch.override(batched):
        pool = ChainWorkerPool(n_workers=3, poll_interval=0.2,
                               job_timeout=300.0)
        with InferenceServer(
            pool=pool,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ) as server:
            job = server.submit(spec)
            write_plan(plan, [
                ChaosFault(kind="kill", iteration=70, chain_index=1,
                      job_id=job.job_id),
            ])
            server.run_until_drained()
    assert job.state is JobState.CONVERGED
    assert pool.restarted_workers >= 1
    assert job.elision.converged_kept == 60
    total = spec.resolved_warmup + job.elision.converged_kept
    sequential = run_chains(
        load_workload(spec.workload, scale=spec.scale),
        build_engine(spec.engine, spec.engine_options),
        n_iterations=total, n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains, seed=spec.seed,
    )
    for got, want in zip(job.result.chains, sequential.chains):
        np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(got.logps, want.logps)
