"""The one job queue: queued jobs and parked retries, and one wait.

A drain thread takes its next job from :class:`repro.serve.queue.JobQueue`
alone. Two pinned faults of the design it replaced (a second retry heap
polled by a sleep loop, and a gateway poll on top):

* a fresh submission waited out another job's backoff, because the drain
  thread slept instead of waiting where a submission wakes it;
* a standing halt re-ran the job it had halted, over and over, and
  ``run_until_drained()`` never returned.

Below them, ``hypothesis.stateful`` drives an :class:`InferenceServer`
over a fake pool (the ``pool=`` seam: no processes) with
``repro.serve.{queue,job,server}.time`` patched to one fake clock. Rules:
submit (with and without priority and deadline), a drain step whose
attempt succeeds, fails transiently or fails as poison, halt,
``clear_halt`` and a clock advance. On every history:

* no admitted job is lost: each is queued, parked, or terminal;
* a parked job is handed out at most once per park, never before its
  due time, and never while a halt it was parked by stands;
* an expired job never starts;
* a job a cleared halt had parked goes first, then a due retry, then
  the highest priority, FIFO within it;
* a job queued while every other job is parked is handed out without
  waiting for any due time.

Tier-1 runs a bounded machine; the ``slow`` variant runs long histories.
"""

import threading
import time
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve import InferenceServer, JobSpec, JobState, RetryPolicy
from repro.serve import job as job_mod
from repro.serve import queue as queue_mod
from repro.serve import server as server_mod
from repro.serve.queue import AdmissionError
from repro.serve.workers import ChainExecutionError, JobHalted, execute_chain
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


def spec(**overrides):
    fields = dict(workload="votes", engine="mh", n_iterations=30,
                  n_warmup=15, n_chains=2, scale=0.25, elide=False)
    fields.update(overrides)
    return JobSpec(**fields)


class FakePool:
    """The ``pool=`` seam without processes: an attempt halts while a halt
    stands, else ends as :attr:`outcome` says (``"ok"`` runs the chains
    in-process)."""

    n_workers = 1

    def __init__(self) -> None:
        self.outcome = "ok"
        self.halt_requested = False
        self.on_halt_cleared = None

    def request_halt(self) -> None:
        self.halt_requested = True

    def clear_halt(self) -> None:
        self.halt_requested = False
        if self.on_halt_cleared is not None:
            self.on_halt_cleared()

    def run_job(self, tasks, on_draws=None, on_chain_restart=None,
                deadline_at=None):
        job_id = tasks[0].job_id
        if self.halt_requested:
            raise JobHalted(job_id, [])
        if self.outcome == "transient":
            raise ConnectionError(f"job {job_id}: worker lost")
        if self.outcome == "poison":
            raise ChainExecutionError(job_id, {0: "ValueError: boom"})
        return [execute_chain(task) for task in tasks]

    def discard_job_metrics(self, job_id) -> None:
        pass

    def shutdown(self) -> None:
        pass


def fake_server(**kwargs) -> InferenceServer:
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    return InferenceServer(pool=FakePool(), **kwargs)


# -- the two faults, pinned ---------------------------------------------------


def test_a_fresh_job_does_not_wait_out_another_jobs_backoff():
    handed_out = {}
    server = fake_server(
        retry_policy=RetryPolicy(max_attempts=3, base_backoff=5.0),
        on_job_start=lambda job: handed_out.setdefault(
            job.job_id, time.monotonic()
        ),
    )
    with server:
        backing_off = server.submit(spec(seed=1))
        server.pool.outcome = "transient"
        server.run_next()
        assert backing_off.state is JobState.RETRYING  # due 5 s out
        server.pool.outcome = "ok"
        drain = threading.Thread(target=server.run_next, daemon=True)
        drain.start()
        time.sleep(0.05)  # the drain thread is waiting on the retry
        submitted_at = time.monotonic()
        fresh = server.submit(spec(seed=2))
        drain.join(timeout=10)
        assert not drain.is_alive()
        assert fresh.state is JobState.DONE
        assert handed_out[fresh.job_id] - submitted_at < 0.1
        assert backing_off.state is JobState.RETRYING


def test_a_standing_halt_leaves_the_halted_job_parked(tmp_path):
    starts = []
    server = InferenceServer(
        n_workers=1, checkpoint_dir=str(tmp_path),
        registry=MetricsRegistry(), tracer=Tracer(),
        on_job_start=starts.append,
    )
    with server:
        # Warm the pool and the model, so the bound below times the drain.
        server.submit(spec(seed=40))
        server.run_until_drained()
        job = server.submit(spec(
            seed=41, n_iterations=400, checkpoint_interval=100,
        ))
        server.pool.request_halt()
        drained = threading.Thread(target=server.run_until_drained,
                                   daemon=True)
        drained.start()
        drained.join(timeout=2.0)
        assert not drained.is_alive()
        assert sum(start is job for start in starts) == 1
        assert job.state is JobState.RETRYING and job.was_halted
        server.pool.clear_halt()
        assert server.run_until_drained() == [job]
        assert job.state is JobState.DONE
        assert job.result.n_kept == job.spec.budget_kept


# -- generated histories ------------------------------------------------------


class FakeClock:
    """Stands in for the ``time`` module of the queue, the job and the
    server: ``monotonic`` reads :attr:`now`, which only the machine moves."""

    def __init__(self) -> None:
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now

    def __getattr__(self, name):
        return getattr(time, name)


POLICY = RetryPolicy(max_attempts=3, base_backoff=1.0, max_backoff=4.0)
MAX_PENDING = 5


class JobQueueMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.stack = ExitStack()
        self.clock = FakeClock()
        for module in (queue_mod, job_mod, server_mod):
            self.stack.enter_context(
                mock.patch.object(module, "time", self.clock)
            )
        self.server = fake_server(
            max_pending=MAX_PENDING, retry_policy=POLICY,
            on_job_start=self._started,
        )
        self.stack.callback(self.server.close)
        queue = self.server.queue
        self.real_park, self.real_pop = queue.park, queue.pop
        queue.park, queue.pop = self._park, self._pop

        def no_wait(timeout=None):
            # A drain step is taken only when pop need not wait (its
            # precondition), and the fake clock would never end a wait.
            raise AssertionError("pop waited with a job runnable now")

        queue._ready.wait = no_wait
        #: The model. Queued: job id -> (-priority, seq, job). Parked: job
        #: id -> (due, seq, job, parked by a halt).
        self.queued = {}
        self.parked = {}
        self.seq = 0
        self.admitted = set()

    def teardown(self):
        if hasattr(self, "stack"):
            self.stack.close()

    # -- what the queue is told and hands out ----------------------------------

    def _park(self, job, delay):
        assert job.job_id not in self.parked
        self.seq += 1
        self.parked[job.job_id] = (
            self.clock.now + (delay or 0.0), self.seq, job, delay is None,
        )
        self.real_park(job, delay)

    def _eligible(self):
        halted = self.server.pool.halt_requested
        return [entry for entry in self.parked.values()
                if not (entry[3] and halted)]

    def _expected(self):
        """The job :meth:`JobQueue.pop` must hand out now, or None: a job
        a cleared halt parked, a due retry, the head of the queue."""
        eligible = self._eligible()
        held = [entry for entry in eligible if entry[3]]
        due = [entry for entry in eligible if entry[0] <= self.clock.now]
        if held or due:
            return min(held or due)[2]
        if self.queued:
            return min(self.queued.values())[2]
        return None

    def _pop(self):
        expected = self._expected()
        job = self.real_pop()
        assert job is expected
        if job is not None:
            entry = self.parked.pop(job.job_id, None)
            if entry is None:
                del self.queued[job.job_id]
            else:
                assert entry[0] <= self.clock.now
                assert not (entry[3] and self.server.pool.halt_requested)
        return job

    def _started(self, job):
        assert not job.expired
        assert job.job_id not in self.queued
        assert job.job_id not in self.parked

    # -- rules -----------------------------------------------------------------

    @rule(seed=st.integers(0, 5), priority=st.sampled_from([0, 0, 1, 2]),
          deadline=st.sampled_from([None, None, 2.0, 6.0]))
    def submit(self, seed, priority, deadline):
        known = set(self.server.jobs)
        try:
            job = self.server.submit(spec(
                seed=seed, priority=priority, deadline_s=deadline,
            ))
        except AdmissionError:
            assert len(self.queued) == MAX_PENDING
            return
        if job.job_id not in known and job.state is JobState.QUEUED:
            self.seq += 1
            self.queued[job.job_id] = (-priority, self.seq, job)
            self.admitted.add(job.job_id)

    @precondition(lambda self: self._expected() is not None or not (
        self.queued or self._eligible()
    ))
    @rule(outcome=st.sampled_from(["ok", "transient", "poison"]))
    def drain_step(self, outcome):
        """One ``run_next`` whose attempt ends as ``outcome`` says, taken
        only when it need not wait: something is runnable now, or nothing
        can become runnable without a push or a cleared halt."""
        self.server.pool.outcome = outcome
        job = self.server.run_next()
        if job is None:
            return
        if job.state is JobState.RETRYING:
            assert job.job_id in self.parked
        else:
            assert job.state.terminal

    @rule()
    def halt(self):
        self.server.pool.request_halt()

    @rule()
    def clear_halt(self):
        self.server.pool.clear_halt()

    @rule(seconds=st.sampled_from([0.5, 1.0, 2.5, 5.0]))
    def advance(self, seconds):
        self.clock.now += seconds

    # -- invariants ------------------------------------------------------------

    @invariant()
    def no_admitted_job_is_lost(self):
        if not hasattr(self, "server"):
            return
        queue = self.server.queue
        snapshot = [job.job_id for job in queue.snapshot()]
        parked = [entry[2].job_id for entry in queue._parked]
        parked += [job.job_id for job in queue._held]
        assert len(queue) == len(snapshot) == len(self.queued)
        assert sorted(snapshot) == sorted(self.queued)
        assert sorted(parked) == sorted(self.parked)
        for job_id in self.admitted:
            state = self.server.jobs[job_id].state
            if job_id in self.queued:
                assert state is JobState.QUEUED
            elif job_id in self.parked:
                assert state is JobState.RETRYING
            else:
                assert state.terminal


TestJobQueueHistories = JobQueueMachine.TestCase
TestJobQueueHistories.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)


@pytest.mark.slow
class TestJobQueueLongHistories(JobQueueMachine.TestCase):
    settings = settings(
        max_examples=300, stateful_step_count=100, deadline=None,
    )
