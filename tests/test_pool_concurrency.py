"""Two jobs in flight on one worker pool, in real worker processes.

Each ``run_job`` call blocks only its caller, so a server with several
drain threads runs several jobs at once, one group per worker. These tests
run two jobs side by side on a two-worker pool and check that neither can
see the other: both jobs' draws equal :func:`repro.inference.run_chains`
bit for bit, and whatever ends one job early — elision, a deadline, a
poisoned chain, the job timeout — leaves the other's result unchanged. A
slot whose channel cannot be read — an unloadable event, a worker killed
halfway through writing one — costs only that slot's chains a re-run: the
other job runs on in its own worker, bit-identical.
"""

import multiprocessing as mp
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from multiprocessing import connection
from pathlib import Path

import numpy as np
import pytest

from repro import batch
from repro.inference import run_chains
from repro.serve import workers
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


ROOT = Path(__file__).resolve().parents[1]
#: The tests below patch the worker side before the pool forks it.
FORK = "fork" in mp.get_all_start_methods()


def _refuse_to_load():
    raise ValueError("unreadable event")


class _Unreadable:
    """Pickles onto a channel, but raises when the parent loads it."""

    def __reduce__(self):
        return (_refuse_to_load, ())


def _first_time(path) -> bool:
    """True for the first process, of all of them, to ask about ``path``."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


@pytest.mark.skipif(not FORK, reason="workers must inherit the patch")
def test_an_unreadable_event_costs_only_its_slot(tmp_path, monkeypatch):
    """The worker of job "lost" sends one event the parent cannot load:
    its slot's worker is lost, respawned, and its chains re-run; job
    "kept" runs on in the other worker. Both equal ``run_chains``."""
    group = workers.run_chain_group

    def one_unreadable_event(tasks, send=None, *args):
        if tasks[0].job_id == "lost" and _first_time(tmp_path / "sent"):
            send(_Unreadable())
        return group(tasks, send, *args)

    monkeypatch.setattr(workers, "run_chain_group", one_unreadable_event)
    lost, kept = _spec(seed=3), _spec(engine="nuts", engine_options={}, seed=9)
    with batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.1, job_timeout=60.0,
    ) as pool:
        pids = {slot.proc.pid for slot in pool._slots}
        outcomes = _in_flight(pool, {"lost": (lost, {}), "kept": (kept, {})})
        after = {slot.proc.pid for slot in pool._slots}
    assert pool.restarted_workers == 1
    assert len(pids & after) == 1  # the kept job's worker is the same
    _assert_identical(outcomes["lost"], _sequential(lost))
    _assert_identical(outcomes["kept"], _sequential(kept))


HELD, OTHER = "job-held-writer", "job-other-slot"


def _writer_killed_mid_event(directory: str) -> None:
    """The worker of job ``HELD`` writes half of its first frame and is
    SIGKILLed holding the write side of its event path, once the worker of
    job ``OTHER`` has sent its first event. ``OTHER`` must still end
    within 10 s, both jobs equal ``run_chains``, and the interpreter exit.

    Run in a fresh interpreter by the test below (an event path a dead
    writer left locked would stall the pool and keep its interpreter
    from exiting); raises on failure.
    """
    parent = os.getpid()
    started = os.path.join(directory, "other-started")
    send_bytes = connection.Connection._send_bytes

    def _send_bytes(self, buf):
        data = bytes(buf)
        if os.getpid() != parent and OTHER.encode() in data:
            _first_time(started)
        elif (
            os.getpid() != parent and HELD.encode() in data
            and _first_time(os.path.join(directory, "held"))
        ):
            wait_until = time.monotonic() + 5.0
            while not os.path.exists(started) and time.monotonic() < wait_until:
                time.sleep(0.01)
            frame = struct.pack("!i", len(data)) + data
            self._send(frame[: len(frame) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        return send_bytes(self, buf)

    connection.Connection._send_bytes = _send_bytes
    held = _spec(seed=3)
    other = _spec(engine="nuts", engine_options={}, seed=9)
    ended = {}

    def run(job_id, spec):
        try:
            ended[job_id] = pool.run_job(chain_tasks(spec, job_id))
        except Exception as exc:  # reported below
            ended[job_id] = exc
        ended[job_id, "s"] = time.monotonic() - begun

    with batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.1, job_timeout=8.0,
    ) as pool:
        begun = time.monotonic()
        threads = [
            threading.Thread(target=run, args=args)
            for args in ((HELD, held), (OTHER, other))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert isinstance(ended[OTHER], list), ended[OTHER]
    assert ended[OTHER, "s"] < 10.0, ended
    assert pool.restarted_workers == 1
    _assert_identical(ended[OTHER], _sequential(other))
    _assert_identical(ended[HELD], _sequential(held))


@pytest.mark.skipif(not FORK, reason="workers must inherit the patch")
def test_a_writer_killed_mid_event_stalls_no_other_slot(tmp_path):
    """A process killed while it holds the write side of one busy slot's
    event path costs that slot a respawn and nothing more: the other
    slot's job finishes, and the pool shuts down and its interpreter
    exits (see :func:`_writer_killed_mid_event`)."""
    pythonpath = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    script = (
        "import sys\n"
        "from tests.test_pool_concurrency import _writer_killed_mid_event\n"
        "_writer_killed_mid_event(sys.argv[1])\n"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"the scenario never exited:\n{exc.stderr}")
    assert done.returncode == 0, done.stderr


def test_a_group_handed_over_by_another_caller_is_read_at_once():
    """One worker and a poll interval far longer than either job: the
    second job's group waits until the first job's caller frees the slot
    and hands it over, and the second caller, which waits on no slot yet,
    is woken to read it at once rather than at its next poll."""
    first, second = _spec(n_chains=1, seed=3), _spec(n_chains=1, seed=9)
    with ChainWorkerPool(n_workers=1, poll_interval=60.0) as pool:
        started = time.monotonic()
        outcomes = _in_flight(pool, {
            "first": (first, {}), "second": (second, {}),
        })
        elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _assert_identical(outcomes["first"], _sequential(first))
    _assert_identical(outcomes["second"], _sequential(second))


def test_a_raising_callback_fails_its_job_without_killing_the_worker():
    """An ``on_draws`` that raises fails the job as poison, cooperatively:
    the stop goes out, the still-streaming chain ends at its next
    iteration, and the worker that ran it serves the next job."""
    long_mh = _spec(engine="mh", engine_options={}, n_iterations=4000,
                    n_warmup=10, n_chains=2)
    after = _spec(engine="mh", engine_options={}, seed=9)

    def explode(chain_index, block):
        raise RuntimeError("monitor bug")

    with ChainWorkerPool(n_workers=1, poll_interval=0.1) as pool:
        pid = pool._slots[0].proc.pid
        with pytest.raises(ChainExecutionError) as info:
            pool.run_job(chain_tasks(long_mh, "bad"), on_draws=explode)
        assert info.value.poison
        assert "monitor bug" in str(info.value)
        assert pool._slots[0].proc.pid == pid
        chains = pool.run_job(chain_tasks(after, "after"))
        assert pool._slots[0].proc.pid == pid
    _assert_identical(chains, _sequential(after))


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


@pytest.mark.parametrize("idle", [0, 1, 2])
@pytest.mark.parametrize("engine", ["mh", "nuts"])
def test_a_job_is_one_lane_group_whatever_the_free_workers(engine, idle):
    """A three-chain job opened on a two-worker pool with 0, 1 or 2 of
    them idle (one-chain jobs holding the others) runs as one lane group,
    and its draws equal ``run_chains`` bit for bit, gradient-free and
    gradient engines alike."""
    spec = _spec(engine=engine, engine_options={}, n_iterations=40, seed=5)
    # 12cities MH for as long as the test needs: stopped by its deadline.
    blockers = [f"blocker-{index}" for index in range(2 - idle)]
    jobs = [
        (job_id, _spec(engine="mh", engine_options={}, n_iterations=100_000,
                       n_warmup=10, n_chains=1, seed=1))
        for job_id in blockers
    ] + [("job", spec)]
    cuts = {}
    with batch.override(True), ChainWorkerPool(
        n_workers=2, poll_interval=0.05
    ) as pool:
        assign = pool._assign

        def recorded(index, run, group):
            cuts.setdefault(run.job_id, []).append(
                [task.chain_index for task in group]
            )
            assign(index, run, group)

        pool._assign = recorded
        outcomes = {}

        def run(job_id, job):
            try:
                outcomes[job_id] = pool.run_job(chain_tasks(job, job_id))
            except Exception as exc:  # the blocker's deadline, checked below
                outcomes[job_id] = exc

        threads = []
        for job_id, job in jobs:
            if job_id == "job":
                with pool._lock:
                    assert sum(slot.run is None for slot in pool._slots) == idle
            threads.append(threading.Thread(target=run, args=(job_id, job)))
            threads[-1].start()
            while job_id not in pool._runs:
                time.sleep(0.005)
        with pool._lock:
            for job_id in blockers:
                pool._runs[job_id].deadline_at = time.monotonic()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    assert cuts["job"] == [[0, 1, 2]]
    for job_id in blockers:
        assert type(outcomes[job_id]) is JobDeadlineExceeded
    _assert_identical(outcomes["job"], _sequential(spec))


@pytest.mark.parametrize("n_workers", [0, -1])
def test_pool_size_must_be_positive(n_workers):
    """Only ``None`` means "the default size": ``repro serve --workers 0``
    is refused instead of quietly starting up to four workers."""
    with pytest.raises(ValueError, match="n_workers must be positive"):
        ChainWorkerPool(n_workers=n_workers)
    assert ChainWorkerPool(n_workers=None).n_workers >= 1
