"""The worker pool's dispatch, checked over generated histories.

The worker processes are replaced at the transport seam —
``ChainWorkerPool._spawn``, the per-slot stop values and each slot's
channel (with the wait on the channels) — by an in-memory fake, and
``hypothesis.stateful`` drives the pool's own dispatch code (``_open``,
``_step``, ``_close``) through interleavings of: jobs submitted (one lane
group, or one group per chain), chains finishing or failing, worker slots
dying (some right after sending their last events), halts, lapsed
deadlines, job timeouts, elision stops and a slot's channel that cannot be
read. On every history:

* every chain of every job is resolved exactly once, by its current
  incarnation, and no unresolved chain is ever held nowhere;
* no group is sent to a busy (or dead) slot;
* one job's stop broadcast never reaches a slot running another job;
* epochs never go backwards;
* no job ends before all its chains have resolved, and a timed-out job
  leaves no worker running its chains;
* a channel that cannot be read costs only its slot: that slot's chains
  are re-sent, and no other job ends or loses a chain;
* a batchable job, whatever its engine and however many slots are free,
  is one group holding its chains in order; any other job is one group
  per chain.

Tier-1 runs a bounded smoke; the ``slow`` variant runs long histories.
"""

import collections
import pickle
import time
from multiprocessing import connection

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

from repro import batch
from repro.serve.workers import ChainTask, ChainWorkerPool, _Slot
from repro.telemetry import MetricsRegistry

N_SLOTS = 2
MAX_OPEN_JOBS = 3


class FakeProcess:
    def __init__(self) -> None:
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.alive = False

    def join(self, timeout=None) -> None:
        pass


class FakeWorker:
    """One worker process: its channel and the chains it runs."""

    def __init__(self, machine, index: int) -> None:
        self.machine = machine
        self.index = index
        self.proc = FakeProcess()
        self.channel = FakeChannel(self)
        self.job_id = None
        #: chain_index -> the task this worker runs for it, until it ends.
        self.running = {}

    def receive(self, group) -> None:
        assert self.proc.alive, f"group sent to dead slot {self.index}"
        assert not self.running, f"group sent to busy slot {self.index}"
        assert len({task.job_id for task in group}) == 1
        for task in group:
            key = (task.job_id, task.chain_index)
            assert task.epoch >= self.machine.sent_epochs.get(key, 0)
            self.machine.sent_epochs[key] = task.epoch
        self.job_id = group[0].job_id
        self.running = {task.chain_index: task for task in group}

    def end(self, chain_index: int, kind: str) -> None:
        """The chain's last event: ``done`` or an in-chain ``error``."""
        task = self.running.pop(chain_index)
        payload = (
            ("result", task.job_id, chain_index, task.epoch)
            if kind == "done" else ("poison", "injected\n")
        )
        self.channel.events.append(
            (kind, task.job_id, chain_index, task.epoch, payload)
        )


class FakeChannel:
    """The parent's end of one worker's channel. ``send`` hands the worker
    a group; ``recv`` returns what the worker sent, in order, then raises
    EOFError once the worker is dead. With ``broken`` set, ``recv`` raises
    as an unreadable frame would."""

    def __init__(self, worker) -> None:
        self.worker = worker
        self.events = collections.deque()
        self.broken = False

    def send(self, group) -> None:
        self.worker.receive(group)

    def poll(self) -> bool:
        return bool(self.events) or self.broken or not self.worker.proc.alive

    def recv(self):
        if self.broken:
            raise pickle.UnpicklingError("unreadable event")
        if self.events:
            return self.events.popleft()
        raise EOFError("worker gone")


class FakeStops:
    """Per-slot stop values; a write must carry the stop of the job whose
    chains the slot is running."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.values = {}

    def __setitem__(self, index: int, value: int) -> None:
        worker = self.machine.workers[index]
        if worker.running:
            run = self.machine.pool._runs.get(worker.job_id)
            assert run is not None and value == run.stop, (
                f"stop {value} written to slot {index}, which runs "
                f"job {worker.job_id}"
            )
        self.values[index] = value

    def __getitem__(self, index: int) -> int:
        return self.values[index]


def _tasks(job_id: str, n_chains: int, batched: bool, engine: str):
    """A job's tasks; an unbatchable one gives each chain its own seed."""
    return [
        ChainTask(
            job_id=job_id, chain_index=chain_index, workload="12cities",
            scale=0.25, dataset_seed=None,
            engine=engine, engine_options={},
            n_iterations=10, n_warmup=5,
            seed=1 if batched else chain_index, initial_jitter=1.0,
        )
        for chain_index in range(n_chains)
    ]


class PoolDispatchMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self._batch = batch.override(True)
        self._batch.__enter__()
        self.pool = ChainWorkerPool(
            n_workers=N_SLOTS, registry=MetricsRegistry(),
        )
        self.workers = {}
        self.sent_epochs = {}
        self.open = {}
        #: job_id -> (run, ending the job surfaced: a list or an exception)
        self.ended = {}
        self.elide = {}
        self.payloads = {}
        self.epochs = {}
        #: job_id -> (batchable, its groups as chain indices)
        self.cuts = {}
        self.n_jobs = 0
        pool = self.pool
        pool.poll_interval = 0.0
        pool._spawn = self._spawn
        pool._stops = FakeStops(self)
        pool._slots = [self._spawn(index) for index in range(N_SLOTS)]
        self._real_wait = connection.wait
        connection.wait = self._wait

    def teardown(self):
        if not hasattr(self, "pool"):
            return
        try:
            # Run every chain still alive to its end: each job must finish.
            for _ in range(50):
                if not self.open:
                    break
                for worker in list(self.workers.values()):
                    if worker.proc.alive:
                        for chain_index in list(worker.running):
                            worker.end(chain_index, "done")
                self._deliver()
            assert not self.open, f"jobs never finished: {sorted(self.open)}"
            for job_id, (run, _) in self.ended.items():
                if run.ending is TimeoutError:
                    continue
                resolved = set(run.chains) | set(run.errors)
                assert resolved == set(run.current)
                assert not set(run.chains) & set(run.errors)
        finally:
            connection.wait = self._real_wait
            self._batch.__exit__(None, None, None)

    # -- the fake transport ---------------------------------------------------

    def _spawn(self, index: int) -> _Slot:
        worker = self.workers[index] = FakeWorker(self, index)
        return _Slot(worker.proc, worker.channel)

    def _wait(self, objects, timeout):
        """``multiprocessing.connection.wait`` over fake channels (ready
        when readable) and the jobs' real wake pipes."""
        fakes = [o for o in objects if isinstance(o, FakeChannel)]
        real = [o for o in objects if not isinstance(o, FakeChannel)]
        return [o for o in fakes if o.poll()] + self._real_wait(real, 0)

    def _deliver(self) -> None:
        """Give every job one turn of ``run_job``'s loop, which reads what
        its slots' workers sent; a job that is over is closed as
        ``run_job`` closes it."""
        for job_id, run in list(self.open.items()):
            self.pool._step(run, 0)
            if run.over:
                self.pool._close(run)
                del self.open[job_id]
                try:
                    outcome = run.result()
                except Exception as exc:
                    outcome = exc
                self.ended[job_id] = (run, outcome)

    def _restarted(self, job_id: str, chain_index: int) -> None:
        """``on_chain_restart``: only for a live chain, once re-sent."""
        run = self.pool._runs[job_id]
        assert not run.resolved(chain_index)
        task = run.current[chain_index]
        assert task.epoch >= 1
        assert self.sent_epochs[(job_id, chain_index)] == task.epoch

    def _busy(self):
        return [
            worker for worker in self.workers.values()
            if worker.proc.alive and worker.running
        ]

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.open) < MAX_OPEN_JOBS)
    @rule(
        n_chains=st.integers(1, 4), batched=st.booleans(),
        engine=st.sampled_from(["hmc", "mh"]),
    )
    def submit(self, n_chains, batched, engine):
        job_id = f"job-{self.n_jobs}"
        self.n_jobs += 1
        pool = self.pool
        tasks = _tasks(job_id, n_chains, batched, engine)
        run = pool._open(
            tasks,
            on_draws=lambda chain_index, block, job_id=job_id: (
                self.elide.get(job_id)
            ),
            on_chain_restart=lambda chain_index, job_id=job_id: (
                self._restarted(job_id, chain_index)
            ),
            deadline_at=None,
        )
        # Nothing has run since the opening: the job's groups are where
        # it put them, on slots or waiting.
        groups = [slot.group for slot in pool._slots if slot.run is run]
        groups += [group for item, group in pool._waiting if item is run]
        self.cuts[job_id] = (
            ChainWorkerPool._batchable(tasks),
            [[task.chain_index for task in group] for group in groups],
        )
        self.open[job_id] = run
        self._deliver()

    @precondition(lambda self: self._busy())
    @rule(data=st.data(), kind=st.sampled_from(["done", "done", "error"]))
    def chain_ends(self, data, kind):
        worker = data.draw(st.sampled_from(self._busy()))
        chain_index = data.draw(st.sampled_from(sorted(worker.running)))
        worker.end(chain_index, kind)
        self._deliver()

    @precondition(lambda self: self._busy())
    @rule(data=st.data())
    def elision_stops_a_job(self, data):
        worker = data.draw(st.sampled_from(self._busy()))
        chain_index = data.draw(st.sampled_from(sorted(worker.running)))
        task = worker.running[chain_index]
        self.elide[task.job_id] = 3
        worker.channel.events.append(
            ("draws", task.job_id, chain_index, task.epoch, "block")
        )
        self._deliver()
        run = self.open.get(task.job_id)
        assert run is None or run.stop >= 0

    @rule(index=st.integers(0, N_SLOTS - 1))
    def slot_dies(self, index):
        self.workers[index].proc.alive = False
        self._deliver()

    @precondition(lambda self: self._busy())
    @rule(data=st.data())
    def worker_dies_after_its_last_event(self, data):
        """A done sent just before its worker died still counts: the
        channel is read up to its EOF, and that chain is not re-sent."""
        worker = data.draw(st.sampled_from(self._busy()))
        chain_index = data.draw(st.sampled_from(sorted(worker.running)))
        task = worker.running[chain_index]
        worker.end(chain_index, "done")
        worker.proc.alive = False
        self._deliver()
        run = self.open.get(task.job_id) or self.ended[task.job_id][0]
        assert chain_index in run.chains
        assert run.current[chain_index] is task

    @rule()
    def halt(self):
        self.pool.request_halt()
        self._deliver()

    @rule()
    def clear_halt(self):
        self.pool.clear_halt()

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def deadline_lapses(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.open)))
        self.open[job_id].deadline_at = time.monotonic() - 1.0
        self._deliver()

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def job_times_out(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.open)))
        self.open[job_id]._give_up_at = float("-inf")
        self._deliver()
        self._assert_abandoned([job_id], TimeoutError)

    @precondition(lambda self: self._busy())
    @rule(data=st.data())
    def channel_cannot_be_read(self, data):
        """An unreadable event costs only its slot: the worker is replaced
        and its unresolved chains re-sent; no other job ends, and no other
        slot's worker is touched."""
        worker = data.draw(st.sampled_from(self._busy()))
        job_id = worker.job_id
        others = [w for w in self._busy() if w is not worker]
        lost = dict(worker.running)
        # Only the broken slot's job may end: a re-send over the restart
        # budget fails its chain as transient.
        open_before = set(self.open) - {job_id}
        worker.channel.broken = True
        self._deliver()
        assert not worker.proc.alive
        assert self.workers[worker.index] is not worker
        assert all(self.workers[w.index] is w for w in others)
        assert open_before <= set(self.open)
        run = self.open.get(job_id) or self.ended[job_id][0]
        for chain_index, task in lost.items():
            assert run.current[chain_index].epoch == task.epoch + 1 or (
                run.kinds.get(chain_index) == "transient"
            )

    def _assert_abandoned(self, job_ids, error) -> None:
        for job_id in job_ids:
            assert isinstance(self.ended[job_id][1], error)
            assert not any(
                worker.job_id == job_id and worker.running
                for worker in self.workers.values() if worker.proc.alive
            ), f"abandoned job {job_id}'s chains are still running"

    # -- invariants -----------------------------------------------------------

    @invariant()
    def resolved_once_by_the_current_incarnation(self):
        if not hasattr(self, "pool"):
            return
        runs = list(self.open.values()) + [r for r, _ in self.ended.values()]
        for run in runs:
            assert not set(run.chains) & set(run.errors)
            for chain_index, payload in run.chains.items():
                key = (run.job_id, chain_index)
                assert self.payloads.setdefault(key, payload) is payload
                assert payload[3] == run.current[chain_index].epoch

    @invariant()
    def epochs_never_go_backwards(self):
        if not hasattr(self, "pool"):
            return
        for run in self.open.values():
            for chain_index, task in run.current.items():
                key = (run.job_id, chain_index)
                assert task.epoch >= self.epochs.get(key, 0)
                self.epochs[key] = task.epoch

    @invariant()
    def every_unresolved_chain_is_held_or_waiting_once(self):
        if not hasattr(self, "pool"):
            return
        pool = self.pool
        for run in self.open.values():
            holders = collections.Counter()
            for slot in pool._slots:
                if slot.run is run:
                    holders.update(task.chain_index for task in slot.group)
            for waiting_run, group in pool._waiting:
                if waiting_run is run:
                    holders.update(task.chain_index for task in group)
            for chain_index in run.current:
                if not run.resolved(chain_index):
                    assert holders[chain_index] == 1, (
                        f"{run.job_id} chain {chain_index} held "
                        f"{holders[chain_index]} times"
                    )

    @invariant()
    def a_batchable_job_is_one_group(self):
        if not hasattr(self, "pool"):
            return
        for job_id, (batchable, groups) in self.cuts.items():
            n = sum(len(group) for group in groups)
            if batchable:
                assert groups == [list(range(n))], (job_id, groups)
            else:
                assert sorted(groups) == [[i] for i in range(n)], (job_id, groups)

    @invariant()
    def no_job_ends_early(self):
        if not hasattr(self, "pool"):
            return
        for run, outcome in self.ended.values():
            if run.ending is not TimeoutError:
                assert not run.outstanding
            assert run.job_id not in self.pool._runs


TestPoolDispatch = PoolDispatchMachine.TestCase
TestPoolDispatch.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
)


@pytest.mark.slow
class TestPoolDispatchLongHistories(PoolDispatchMachine.TestCase):
    settings = settings(
        max_examples=600, stateful_step_count=120, deadline=None,
    )
