"""Two jobs in flight on one worker pool, in real worker processes.

Each ``run_job`` call blocks only its caller, so a server with several
drain threads runs several jobs at once, one group per worker. These tests
run two jobs side by side on a two-worker pool and check that neither can
see the other: both jobs' draws equal :func:`repro.inference.run_chains`
bit for bit, and whatever ends one job early — elision, a deadline, a
poisoned chain, the job timeout — leaves the other's result unchanged. An
event the pool cannot read ends every job in flight at once, and the pool
keeps serving.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import batch
from repro.inference import run_chains
from repro.inference.engines import build_engine
from repro.resilience.chaos import ChaosFault, installed, write_plan
from repro.serve import (
    ChainExecutionError,
    ChainWorkerPool,
    JobDeadlineExceeded,
    JobSpec,
    chain_tasks,
)
from repro.suite import load_workload


def _spec(**overrides) -> JobSpec:
    fields = dict(
        workload="12cities", engine="hmc", engine_options={"n_leapfrog": 4},
        n_iterations=30, n_warmup=10, n_chains=3, seed=7, scale=0.25,
        check_interval=5,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def _sequential(spec: JobSpec):
    return run_chains(
        load_workload(spec.workload, scale=spec.scale),
        build_engine(spec.engine, spec.engine_options),
        n_iterations=spec.n_iterations, n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains, seed=spec.seed,
        initial_jitter=spec.initial_jitter,
    ).chains


def _assert_identical(chains, reference) -> None:
    assert len(chains) == len(reference)
    for got, want in zip(chains, reference):
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.logps, want.logps)


def _in_flight(pool, jobs):
    """Run ``{job_id: (spec, run_job kwargs)}`` side by side, one thread
    per job; returns each job's chains or the exception it raised."""
    outcomes = {}

    def run(job_id, spec, kwargs):
        try:
            outcomes[job_id] = pool.run_job(chain_tasks(spec, job_id), **kwargs)
        except Exception as exc:  # the ending under test
            outcomes[job_id] = exc

    threads = [
        threading.Thread(target=run, args=(job_id, spec, kwargs))
        for job_id, (spec, kwargs) in jobs.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{thread.name} still running"
    return outcomes


def test_two_jobs_in_flight_match_run_chains():
    """The jobs' first draw blocks meet at a barrier, which only two jobs
    running at the same time can pass; then both finish bit-identical."""
    barrier = threading.Barrier(2, timeout=60)

    def meet_once():
        met = []

        def on_draws(chain_index, block):
            if not met:
                met.append(chain_index)
                barrier.wait()

        return on_draws

    first, second = _spec(), _spec(engine="nuts", engine_options={}, seed=9)
    with batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.1
    ) as pool:
        outcomes = _in_flight(pool, {
            "first": (first, {"on_draws": meet_once()}),
            "second": (second, {"on_draws": meet_once()}),
        })
    assert not barrier.broken
    _assert_identical(outcomes["first"], _sequential(first))
    _assert_identical(outcomes["second"], _sequential(second))
    assert pool.restarted_workers == 0


#: How the stopped job ends early -> what its run_job raises (None: it
#: returns the cut chains).
ENDINGS = {
    "elision": None,
    "deadline": JobDeadlineExceeded,
    "poison": ChainExecutionError,
    "timeout": TimeoutError,
}
ELISION_STOP = 20


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_one_jobs_ending_leaves_the_other_unchanged(tmp_path, ending):
    # Long enough that only the ending under test can stop it in time.
    stopped = _spec(seed=3, n_iterations=2000)
    kwargs = {}
    if ending == "elision":
        kwargs["on_draws"] = lambda chain_index, block: ELISION_STOP
    elif ending == "deadline":
        kwargs["deadline_at"] = time.monotonic() + 0.3
    elif ending == "poison":
        stopped = _spec(seed=3, initial_jitter=float("nan"))
    plan = write_plan(str(tmp_path / "plan.json"), [
        # The timeout leg's job hangs in its first iteration.
        ChaosFault(kind="hang", iteration=0, job_id="stopped", seconds=60.0)
    ] if ending == "timeout" else [])
    other = _spec(engine="nuts", engine_options={}, seed=9)
    with installed(plan), batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.1, job_timeout=4.0,
    ) as pool:
        outcomes = _in_flight(pool, {
            "stopped": (stopped, kwargs), "other": (other, {}),
        })
        # Whatever ended the stopped job — the timeout leg kills and
        # replaces its worker — the pool still serves the next one.
        after = pool.run_job(chain_tasks(other, "after"))

    expected = ENDINGS[ending]
    if expected is None:
        cut = outcomes["stopped"]
        assert all(chain.n_iterations < stopped.n_iterations for chain in cut)
    else:
        assert type(outcomes["stopped"]) is expected
    reference = _sequential(other)
    _assert_identical(outcomes["other"], reference)
    _assert_identical(after, reference)


def _refuse_to_load():
    raise ValueError("unreadable event")


class _Unreadable:
    """Pickles onto the event queue, but raises when the router reads it."""

    def __reduce__(self):
        return (_refuse_to_load, ())


def test_unreadable_event_ends_every_job_in_flight_promptly(tmp_path):
    """An event the router cannot read may have been either job's, so both
    jobs end as a transient ConnectionError within a poll or two — not at
    the job timeout — their hung workers are replaced, and the pool then
    serves the next job bit-identically."""
    hung = _spec(seed=3)
    plan = write_plan(str(tmp_path / "plan.json"), [
        ChaosFault(kind="hang", iteration=0, job_id=job_id, seconds=60.0)
        for job_id in ("first", "second")
    ])
    other = _spec(engine="nuts", engine_options={}, seed=9)
    with installed(plan), batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.1, job_timeout=60.0,
    ) as pool:
        def break_the_queue():
            while len(pool._runs) < 2:
                time.sleep(0.01)
            pool._events.put(_Unreadable())

        breaker = threading.Thread(target=break_the_queue, daemon=True)
        breaker.start()
        started = time.monotonic()
        outcomes = _in_flight(pool, {
            "first": (hung, {}), "second": (hung, {}),
        })
        elapsed = time.monotonic() - started
        after = pool.run_job(chain_tasks(other, "after"))
    for job_id in ("first", "second"):
        assert type(outcomes[job_id]) is ConnectionError
        assert "unreadable event" in str(outcomes[job_id])
    assert elapsed < 30.0
    _assert_identical(after, _sequential(other))


def test_many_callers_on_more_workers_than_cores_lose_nothing():
    """Six callers on three workers (more than this box's cores), batched
    and per-chain jobs mixed, under a shortened switch interval: every job
    comes back bit-identical and the pool ends holding and queueing
    nothing — a lost update to the dispatch state would strand a group."""
    specs = {
        f"job-{index}": _spec(
            seed=index, n_iterations=16, engine="hmc" if index % 2 else "mh",
            engine_options={"n_leapfrog": 2} if index % 2 else {},
        )
        for index in range(6)
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with batch.override(True), ChainWorkerPool(
            n_workers=3, poll_interval=0.05
        ) as pool:
            outcomes = _in_flight(
                pool, {job_id: (spec, {}) for job_id, spec in specs.items()}
            )
            assert not pool._runs and not pool._waiting
            assert all(slot.run is None for slot in pool._slots)
    finally:
        sys.setswitchinterval(interval)
    for job_id, spec in specs.items():
        _assert_identical(outcomes[job_id], _sequential(spec))


@pytest.mark.parametrize("n_workers", [0, -1])
def test_pool_size_must_be_positive(n_workers):
    """Only ``None`` means "the default size": ``repro serve --workers 0``
    is refused instead of quietly starting up to four workers."""
    with pytest.raises(ValueError, match="n_workers must be positive"):
        ChainWorkerPool(n_workers=n_workers)
    assert ChainWorkerPool(n_workers=None).n_workers >= 1
