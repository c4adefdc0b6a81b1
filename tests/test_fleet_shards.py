"""Sharded queue semantics: per-shard logs, fenced consumers, guarded
compaction.

Satellite of the fleet PR: compaction is a log *rewrite*, so it must be
lease-guarded — a process that does not hold the shard's lease (a status
probe, a stale ex-holder) may read the log freely but must never rewrite
it while another process drains.
"""

import pytest

from repro.fleet.lease import LeaseLostError, ShardLease
from repro.fleet.shards import ShardedQueue, shard_queue_path
from repro.resilience.errors import MutationFencedError
from repro.serve.filequeue import COMPACT_RATIO, FileJobQueue
from repro.serve.job import JobSpec


def spec(seed=0):
    return JobSpec(
        workload="votes", engine="mh", n_iterations=40, n_chains=2, seed=seed
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLayout:
    def test_shards_are_independent_logs(self, tmp_path):
        queue = ShardedQueue(tmp_path, 3)
        queue.producer(0).submit(spec(0))
        queue.producer(2).submit(spec(1))
        queue.producer(2).submit(spec(2))
        assert queue.depths() == [1, 0, 2]
        assert shard_queue_path(tmp_path, 2).exists()
        assert not shard_queue_path(tmp_path, 1).exists()

    def test_one_shard_matches_the_flat_layout(self, tmp_path):
        """A 1-shard fleet is the old single-queue format, one dir deeper."""
        queue = ShardedQueue(tmp_path, 1)
        entry = queue.producer(0).submit(spec())
        flat = FileJobQueue(shard_queue_path(tmp_path, 0))
        recovery = flat.load()
        assert [e.entry_id for e in recovery.pending] == [entry]

    def test_shard_bounds_checked(self, tmp_path):
        queue = ShardedQueue(tmp_path, 2)
        with pytest.raises(ValueError, match="outside"):
            queue.producer(2)
        with pytest.raises(ValueError, match="outside"):
            queue.producer(-1)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedQueue(tmp_path, 0)


class TestFencedConsumer:
    def test_consumer_marks_pass_while_leased(self, tmp_path):
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 2)
        lease = queue.lease(0, "a", clock=clock)
        assert lease.acquire()
        entry = queue.producer(0).submit(spec())
        consumer = queue.consumer(0, lease.check)
        consumer.mark_running(entry)
        consumer.mark_finished(entry)
        assert queue.depth(0) == 0

    def test_stale_consumer_writes_rejected_after_takeover(self, tmp_path):
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 2)
        stalled = queue.lease(0, "a", ttl=10.0, clock=clock)
        stalled.acquire()
        entry = queue.producer(0).submit(spec())
        consumer = queue.consumer(0, stalled.check)
        clock.now += 10.1
        successor = queue.lease(0, "b", clock=clock)
        assert successor.acquire()
        before = shard_queue_path(tmp_path, 0).read_bytes()
        with pytest.raises(LeaseLostError):
            consumer.mark_running(entry)
        with pytest.raises(LeaseLostError):
            consumer.mark_finished(entry)
        # Nothing landed: the log is byte-identical for the successor.
        assert shard_queue_path(tmp_path, 0).read_bytes() == before
        replay = queue.consumer(0, successor.check).load()
        assert [e.entry_id for e in replay.pending] == [entry]

    def test_producer_appends_never_fenced(self, tmp_path):
        """Any process may hand work to a shard; only draining is
        exclusive."""
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 2)
        queue.lease(0, "a", clock=clock).acquire()
        queue.producer(0).submit(spec(1))  # no lease: still fine
        assert queue.depth(0) == 1


def fill_past_compaction(queue, shard, lease_check):
    """Submit+finish enough entries that load() wants to compact, leaving
    one live entry."""
    producer = queue.producer(shard)
    consumer = queue.consumer(shard, lease_check)
    for i in range(2 * COMPACT_RATIO):
        entry = producer.submit(spec(i))
        consumer.mark_running(entry)
        consumer.mark_finished(entry)
    return producer.submit(spec(999))


class TestGuardedCompaction:
    def test_holder_compacts_normally(self, tmp_path):
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 1)
        lease = queue.lease(0, "a", clock=clock)
        lease.acquire()
        live = fill_past_compaction(queue, 0, lease.check)
        consumer = queue.consumer(0, lease.check)
        recovery = consumer.load()  # triggers compaction
        assert [e.entry_id for e in recovery.pending] == [live]
        lines = shard_queue_path(tmp_path, 0).read_text().splitlines()
        assert len(lines) == 1  # finished history dropped

    def test_non_holder_auto_compaction_is_skipped(self, tmp_path):
        """A reader without the lease replays fine but leaves the file
        untouched — auto-compaction is vetoed, not fatal."""
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 1)
        lease = queue.lease(0, "a", clock=clock)
        lease.acquire()
        live = fill_past_compaction(queue, 0, lease.check)
        # A second process that never acquired anything:
        bystander = queue.lease(0, "b", clock=clock)
        guarded = queue.consumer(0, bystander.check)
        before = shard_queue_path(tmp_path, 0).read_bytes()
        with pytest.warns(RuntimeWarning, match="skipping compaction"):
            recovery = guarded.load()
        assert [e.entry_id for e in recovery.pending] == [live]
        assert shard_queue_path(tmp_path, 0).read_bytes() == before

    def test_explicit_compact_propagates_the_veto(self, tmp_path):
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 1)
        lease = queue.lease(0, "a", clock=clock)
        lease.acquire()
        fill_past_compaction(queue, 0, lease.check)
        bystander = queue.lease(0, "b", clock=clock)
        with pytest.raises(MutationFencedError):
            queue.consumer(0, bystander.check).compact()

    def test_stale_holder_compaction_rejected_after_takeover(self, tmp_path):
        """Compaction while another process holds the shard lease must be
        refused even for the *previous* holder: its epoch is dead."""
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 1)
        stalled = queue.lease(0, "a", ttl=10.0, clock=clock)
        stalled.acquire()
        live = fill_past_compaction(queue, 0, stalled.check)
        clock.now += 10.1
        successor = queue.lease(0, "b", clock=clock)
        assert successor.acquire()
        before = shard_queue_path(tmp_path, 0).read_bytes()
        with pytest.raises(LeaseLostError):
            queue.consumer(0, stalled.check).compact()
        assert shard_queue_path(tmp_path, 0).read_bytes() == before
        # The successor, holding the live lease, compacts fine.
        recovery = queue.consumer(0, successor.check).compact()
        assert [e.entry_id for e in recovery.pending] == [live]


class TestLeaseTable:
    def test_table_reports_every_shard(self, tmp_path):
        clock = FakeClock()
        queue = ShardedQueue(tmp_path, 3)
        queue.lease(1, "a", clock=clock).acquire()
        table = queue.lease_table()
        assert set(table) == {0, 1, 2}
        assert table[0] is None and table[2] is None
        assert table[1].owner == "a"

    def test_lease_helper_binds_shard_and_root(self, tmp_path):
        queue = ShardedQueue(tmp_path, 2)
        lease = queue.lease(1, "a")
        assert isinstance(lease, ShardLease)
        assert lease.shard == 1
        assert lease.path.parent == tmp_path / "leases"
