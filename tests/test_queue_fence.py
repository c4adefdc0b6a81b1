"""The queue log's and the shard lease's locks over generated histories.

``hypothesis.stateful`` drives the real :class:`FileJobQueue` and
:class:`ShardLease` on a temporary directory. An operation that must pause
inside its critical section runs on an actor thread, parked by an
``Event`` at one of two seams: between a compaction's ``_replay`` and its
``atomic_write``, and between an ``acquire``'s ``peek`` and its
``_write_state``. While it is parked the other rules run against it:
submits, ``running`` / ``finished`` marks, compactions and ``load()``\\ s,
lease acquire / renew / release / check, clock advances, and the
``enospc`` / ``lease_expire`` chaos faults. ``repro.durable.time`` is a
fake clock whose ``sleep`` advances it, so a waiter gives up without
waiting, and the leases read the same clock. On every history:

* every ``submit`` that returned an id replays until it is marked
  finished (no lost job);
* no entry replays twice, or after it was marked finished (no double
  run), and an entry replays as an orphan exactly when a ``running`` mark
  for it landed;
* no two successful acquires share an epoch, and the on-disk epoch never
  decreases (monotone epochs).

Below the machine, the two histories it finds against a lock that is
broken by age are pinned as deterministic tests. Tier-1 runs a bounded
machine; the ``slow`` variant runs long histories.
"""

import shutil
import tempfile
import threading
import time
from contextlib import ExitStack
from pathlib import Path
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

from repro import durable
from repro.fleet.lease import LeaseLostError, ShardLease, read_lease
from repro.resilience import chaos
from repro.resilience.errors import MutationFencedError
from repro.serve import FileJobQueue, JobSpec
from repro.serve import filequeue as filequeue_mod

# A fenced load() warns that it skipped its compaction; a history makes many.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPEC = JobSpec(workload="votes", engine="mh", n_iterations=30, n_chains=2,
               seed=0, scale=0.25, elide=False)
SPEC_LATE = JobSpec(workload="votes", engine="mh", n_iterations=30,
                    n_chains=2, seed=2, scale=0.25, elide=False)
REPLICAS = ("replica-a", "replica-b")
TTL = 10.0


class FakeTime:
    """Stands in for ``repro.durable.time``: ``sleep`` advances the clock.

    It starts at the wall time, so a lock file's ``st_mtime`` reads as
    "just now". ``on_sleep``, when set, runs after every advance.
    """

    def __init__(self) -> None:
        self.now = time.time()
        self.on_sleep = None

    def time(self) -> float:
        return self.now

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds
        if self.on_sleep is not None:
            self.on_sleep()


class Actor:
    """One operation on its own thread, parked where it reaches ``seam``."""

    def __init__(self, seam: "Seam", operation) -> None:
        self.seam = seam
        self.operation = operation
        #: ``("ok", value)`` or ``("raised", exception)`` once it ended.
        self.outcome = None
        #: Set when the thread parks at the seam or ends, whichever first.
        self.parked = threading.Event()
        self.go = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self.outcome = ("ok", self.operation())
        except Exception as exc:
            self.outcome = ("raised", exc)
        finally:
            self.parked.set()

    def start(self) -> bool:
        """Run up to the seam or the end; True when parked at the seam."""
        self.seam.actor = self
        self.thread.start()
        assert self.parked.wait(timeout=30)
        return self.outcome is None

    def resume(self):
        self.go.set()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()
        return self.outcome


class Seam:
    """A point inside a critical section where the armed actor parks."""

    def __init__(self) -> None:
        self.actor = None

    def reach(self) -> None:
        actor = self.actor
        if actor is not None and threading.current_thread() is actor.thread:
            self.actor = None
            actor.parked.set()
            assert actor.go.wait(timeout=30)


def install_seams(stack: ExitStack):
    """Patch a compaction seam into ``FileJobQueue``'s replace and an
    acquire seam into ``ShardLease``'s state write; returns both."""
    compaction, acquire = Seam(), Seam()
    replace_log = filequeue_mod.atomic_write
    write_state = ShardLease._write_state

    def parked_replace(*args, **kwargs):
        compaction.reach()
        return replace_log(*args, **kwargs)

    def parked_write_state(lease, state):
        acquire.reach()
        return write_state(lease, state)

    stack.enter_context(
        mock.patch.object(filequeue_mod, "atomic_write", parked_replace)
    )
    stack.enter_context(
        mock.patch.object(ShardLease, "_write_state", parked_write_state)
    )
    return compaction, acquire


class QueueFenceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.root = Path(tempfile.mkdtemp(prefix="queue-fence-"))
        self.stack = ExitStack()
        self.clock = FakeTime()
        self.stack.enter_context(mock.patch.object(durable, "time", self.clock))
        self.compaction_seam, self.acquire_seam = install_seams(self.stack)
        self.plan = str(self.root / "chaos" / "plan.json")
        self.faults = []
        chaos.write_plan(self.plan, self.faults)
        self.stack.enter_context(chaos.installed(self.plan))
        log = self.root / "queue.jsonl"
        self.producer = FileJobQueue(log)
        self.consumer = FileJobQueue(log, mutation_guard=self._guard)
        #: replica -> the handle of its last successful acquire.
        self.held = {}
        #: entry id -> whether a ``running`` mark for it landed.
        self.live = {}
        self.finished = set()
        #: (replica, epoch) of every successful acquire.
        self.acquired = []
        self.disk_epoch = 0
        self.parked_compaction = None
        self.parked_acquire = None

    def teardown(self):
        if not hasattr(self, "stack"):
            return
        for actor in (self.parked_compaction, self.parked_acquire):
            if actor is not None:
                actor.resume()
        self.stack.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _guard(self) -> None:
        """The consumer's fence: replica-a's lease, as a fleet member's
        shard log checks the lease it holds when each write lands."""
        lease = self.held.get(REPLICAS[0])
        if lease is None:
            raise LeaseLostError("shard 0: not held by replica-a")
        lease.check()

    def _queue(self, guarded: bool) -> FileJobQueue:
        return self.consumer if guarded else self.producer

    def _acquire(self, replica: str) -> None:
        lease = ShardLease(self.root, 0, replica, ttl=TTL,
                           clock=self.clock.time)
        try:
            if not lease.acquire():
                return
        except OSError:  # timed out on the lock
            return
        self.acquired.append((replica, lease.epoch))
        self.held[replica] = lease

    # -- the queue log ---------------------------------------------------------

    @rule()
    def submit(self):
        try:
            entry = self.producer.submit(SPEC)
        except OSError:  # injected ENOSPC, or timed out on the lock
            return
        self.live[entry] = False

    @precondition(lambda self: self.live)
    @rule(data=st.data(), finish=st.booleans())
    def mark(self, data, finish):
        entry = data.draw(st.sampled_from(sorted(self.live)))
        queue = self.consumer
        try:
            (queue.mark_finished if finish else queue.mark_running)(entry)
        except (OSError, MutationFencedError):
            return
        if finish:
            del self.live[entry]
            self.finished.add(entry)
        else:
            self.live[entry] = True

    @rule(how=st.sampled_from(["compact", "load"]), guarded=st.booleans())
    def compaction(self, how, guarded):
        try:
            getattr(self._queue(guarded), how)()
        except (OSError, MutationFencedError):
            pass

    @precondition(lambda self: self.parked_compaction is None)
    @rule(how=st.sampled_from(["compact", "load"]), guarded=st.booleans())
    def pause_compaction(self, how, guarded):
        operation = getattr(self._queue(guarded), how)
        actor = Actor(self.compaction_seam, operation)
        if actor.start():
            self.parked_compaction = actor

    @precondition(lambda self: self.parked_compaction is not None)
    @rule()
    def resume_compaction(self):
        actor, self.parked_compaction = self.parked_compaction, None
        actor.resume()

    # -- the shard lease -------------------------------------------------------

    @rule(replica=st.sampled_from(REPLICAS))
    def acquire(self, replica):
        self._acquire(replica)

    @precondition(lambda self: self.parked_acquire is None)
    @rule(replica=st.sampled_from(REPLICAS))
    def pause_acquire(self, replica):
        actor = Actor(self.acquire_seam, lambda: self._acquire(replica))
        if actor.start():
            self.parked_acquire = actor

    @precondition(lambda self: self.parked_acquire is not None)
    @rule()
    def resume_acquire(self):
        actor, self.parked_acquire = self.parked_acquire, None
        actor.resume()

    @precondition(lambda self: self.held)
    @rule(data=st.data(), how=st.sampled_from(["renew", "release", "check"]))
    def use_lease(self, data, how):
        lease = self.held[data.draw(st.sampled_from(sorted(self.held)))]
        try:
            getattr(lease, how)()
        except (OSError, MutationFencedError):
            pass

    # -- time and faults -------------------------------------------------------

    @rule(seconds=st.sampled_from([0.5, 1.5, 6.0, 11.0]))
    def advance_clock(self, seconds):
        self.clock.now += seconds

    @rule(kind=st.sampled_from(["enospc", "lease_expire"]))
    def arm_fault(self, kind):
        target = "filequeue" if kind == "enospc" else "0"
        self.faults.append(chaos.ChaosFault(kind=kind, target=target))
        chaos.write_plan(self.plan, self.faults)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def every_returned_submit_replays_once_until_finished(self):
        if not hasattr(self, "producer"):
            return
        recovery = self.producer.load(compact=False)
        ids = [entry.entry_id for entry in recovery.entries]
        assert len(ids) == len(set(ids)), f"an entry replays twice: {ids}"
        assert not set(ids) & self.finished, (
            f"finished entries replay: {sorted(set(ids) & self.finished)}"
        )
        assert set(ids) >= set(self.live), (
            f"submits lost: {sorted(set(self.live) - set(ids))}"
        )
        assert set(ids) == set(self.live), (
            f"entries nobody submitted: {sorted(set(ids) - set(self.live))}"
        )
        orphans = {entry.entry_id for entry in recovery.orphaned}
        running = {e for e, started in self.live.items() if started}
        assert orphans == running, f"running marks lost: {running - orphans}"

    @invariant()
    def epochs_are_unique_and_monotone(self):
        if not hasattr(self, "acquired"):
            return
        epochs = [epoch for _, epoch in self.acquired]
        assert len(epochs) == len(set(epochs)), (
            f"two acquires share an epoch: {self.acquired}"
        )
        state = read_lease(self.root, 0)
        on_disk = 0 if state is None else state.epoch
        assert on_disk >= self.disk_epoch, (
            f"on-disk epoch went {self.disk_epoch} -> {on_disk}"
        )
        self.disk_epoch = on_disk


TestQueueFence = QueueFenceMachine.TestCase
TestQueueFence.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
)


@pytest.mark.slow
class TestQueueFenceLongHistories(QueueFenceMachine.TestCase):
    settings = settings(
        max_examples=400, stateful_step_count=100, deadline=None,
    )


# -- the two histories, pinned ------------------------------------------------


@pytest.fixture
def fake_time(monkeypatch):
    clock = FakeTime()
    monkeypatch.setattr(durable, "time", clock)
    return clock


@pytest.fixture
def seams():
    with ExitStack() as stack:
        yield install_seams(stack)


def test_a_submit_made_while_a_compaction_is_paused_past_the_old_break_age_survives(
    tmp_path, fake_time, seams
):
    """The compactor pauses 1.3 s between its read and its replace, longer
    than the 1 s after which an age-broken lock let a producer in to be
    erased. The producer waits instead, and appends after the replace."""
    compaction_seam, _ = seams
    fq = FileJobQueue(tmp_path / "queue.jsonl")
    done = fq.submit(SPEC)
    fq.mark_running(done)
    fq.mark_finished(done)
    compactor = Actor(compaction_seam, fq.compact)
    assert compactor.start()  # read the log, parked before replacing it
    paused_at = fake_time.now

    def resume_past_the_old_break_age():
        if compactor.thread.is_alive() and fake_time.now - paused_at >= 1.3:
            compactor.resume()

    fake_time.on_sleep = resume_past_the_old_break_age
    entry = fq.submit(SPEC_LATE)  # waits on the compaction's lock
    fake_time.on_sleep = None
    assert compactor.resume()[0] == "ok"
    assert [e.entry_id for e in fq.load().pending] == [entry]


def test_an_acquire_paused_between_peek_and_write_shares_no_epoch(
    tmp_path, fake_time, seams
):
    """``replica-a`` peeks an unleased shard and pauses past the old 5 s
    break age before writing; ``replica-b``'s heartbeat retries acquire
    meanwhile. Only one of them may come away with epoch 1."""
    _, acquire_seam = seams

    def lease(replica):
        return ShardLease(tmp_path, 0, replica, clock=fake_time.time)

    first = lease("replica-a")
    acquirer = Actor(acquire_seam, first.acquire)
    assert acquirer.start()  # peeked, parked before its write
    paused_at = fake_time.now
    epochs = []
    for _ in range(3):  # each attempt waits out the 2 s timeout
        heartbeat = lease("replica-b")
        try:
            if heartbeat.acquire():
                epochs.append(heartbeat.epoch)
        except TimeoutError:
            pass
    assert acquirer.resume() == ("ok", True)
    epochs.append(first.epoch)
    assert len(epochs) == len(set(epochs)), f"two acquires of {epochs}"
    assert fake_time.now - paused_at > 5.0
    assert lease("replica-b").acquire() is False  # a's lease is live
