"""Epoch-fenced shard leases: acquisition, expiry, takeover, fencing.

The invariant under test is the one the fleet stands on: after a lease
changes hands, the previous holder's guarded writes are *rejected* — no
interleaving of stalls, resumes, and takeovers lets two drainers mutate
one shard's log.
"""

import json
import signal

import pytest

from repro import durable
from repro.fleet.lease import (
    LeaseLostError,
    LeaseState,
    ShardLease,
    lease_path,
    read_lease,
)
from tests.test_durable import NoWait, lock_held_by_a_peer


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_lease(root, replica_id, clock, shard=0, ttl=10.0):
    return ShardLease(root, shard, replica_id, ttl=ttl, clock=clock)


class TestAcquire:
    def test_first_claim_starts_at_epoch_one(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        assert lease.acquire()
        assert lease.epoch == 1
        state = read_lease(tmp_path, 0)
        assert state.owner == "a"
        assert state.expires_at == clock.now + 10.0

    def test_live_lease_blocks_other_replicas(self, tmp_path):
        clock = FakeClock()
        assert make_lease(tmp_path, "a", clock).acquire()
        contender = make_lease(tmp_path, "b", clock)
        assert not contender.acquire()
        assert contender.epoch == 0
        assert read_lease(tmp_path, 0).owner == "a"

    def test_expired_lease_is_claimable_with_higher_epoch(self, tmp_path):
        clock = FakeClock()
        holder = make_lease(tmp_path, "a", clock)
        holder.acquire()
        clock.advance(10.1)
        successor = make_lease(tmp_path, "b", clock)
        assert successor.acquire()
        assert successor.epoch == 2  # strictly above the lapsed epoch

    def test_self_reacquire_bumps_the_epoch(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        assert lease.acquire()  # restart re-adopting its own shard
        assert lease.epoch == 2
        assert read_lease(tmp_path, 0).epoch == 2

    def test_epochs_never_regress_across_hands(self, tmp_path):
        clock = FakeClock()
        epochs = []
        for owner in ("a", "b", "a", "c"):
            clock.advance(11.0)
            lease = make_lease(tmp_path, owner, clock)
            assert lease.acquire()
            epochs.append(lease.epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_shards_lease_independently(self, tmp_path):
        clock = FakeClock()
        assert ShardLease(tmp_path, 0, "a", clock=clock).acquire()
        assert ShardLease(tmp_path, 1, "b", clock=clock).acquire()
        assert read_lease(tmp_path, 0).owner == "a"
        assert read_lease(tmp_path, 1).owner == "b"


class TestFencing:
    def test_check_passes_while_live(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        lease.check()  # no raise

    def test_check_without_acquire_raises(self, tmp_path):
        with pytest.raises(LeaseLostError, match="no lease held"):
            make_lease(tmp_path, "a", FakeClock()).check()

    def test_stale_holder_is_fenced_after_takeover(self, tmp_path):
        """The headline scenario: a stalls past its TTL, b takes over,
        a resumes — a's next guarded write must be rejected."""
        clock = FakeClock()
        stalled = make_lease(tmp_path, "a", clock)
        stalled.acquire()
        clock.advance(10.1)  # the stall
        successor = make_lease(tmp_path, "b", clock)
        assert successor.acquire()
        with pytest.raises(LeaseLostError, match="now owned by 'b'"):
            stalled.check()
        successor.check()  # the live holder is unaffected

    def test_expiry_without_successor_still_fences(self, tmp_path):
        """Even before anyone takes over, an expired holder must stop:
        a successor could claim between its check and its write."""
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        clock.advance(10.1)
        with pytest.raises(LeaseLostError, match="expired"):
            lease.check()

    def test_vanished_state_fences(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        lease.path.unlink()
        with pytest.raises(LeaseLostError, match="vanished"):
            lease.check()

    def test_renew_extends_expiry(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        clock.advance(8.0)
        lease.renew()
        assert lease.expires_in() == pytest.approx(10.0)
        assert lease.epoch == 1  # renewal keeps the epoch

    def test_renew_after_takeover_raises(self, tmp_path):
        clock = FakeClock()
        stalled = make_lease(tmp_path, "a", clock)
        stalled.acquire()
        clock.advance(10.1)
        make_lease(tmp_path, "b", clock).acquire()
        with pytest.raises(LeaseLostError):
            stalled.renew()


class TestRelease:
    def test_release_frees_the_shard(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        lease.release()
        state = read_lease(tmp_path, 0)
        assert not state.live(clock.now) and state.epoch == 1
        assert not lease.held
        successor = make_lease(tmp_path, "b", clock)
        assert successor.acquire()
        assert successor.epoch == 2  # the released epoch stays below it

    def test_release_is_idempotent(self, tmp_path):
        lease = make_lease(tmp_path, "a", FakeClock())
        lease.release()  # never acquired: no-op
        lease.acquire()
        lease.release()
        lease.release()

    def test_stale_release_does_not_evict_successor(self, tmp_path):
        clock = FakeClock()
        stalled = make_lease(tmp_path, "a", clock)
        stalled.acquire()
        clock.advance(10.1)
        successor = make_lease(tmp_path, "b", clock)
        successor.acquire()
        stalled.release()  # late, after losing the shard
        state = read_lease(tmp_path, 0)
        assert state is not None and state.owner == "b"
        successor.check()


class TestStateFile:
    def test_torn_state_reads_as_no_lease(self, tmp_path):
        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        lease.path.write_text('{"shard": 0, "owner": "a", "ep')  # torn
        assert read_lease(tmp_path, 0) is None
        # ...and is claimable; the claimer's epoch still tops the holder's.
        successor = make_lease(tmp_path, "b", clock)
        assert successor.acquire()
        with pytest.raises(LeaseLostError):
            lease.check()

    def test_roundtrip(self, tmp_path):
        state = LeaseState(shard=3, owner="r1", epoch=7, expires_at=123.5)
        assert LeaseState.from_dict(
            json.loads(json.dumps(state.to_dict()))
        ) == state

    def test_liveness_is_judged_on_the_callers_clock_only(self):
        state = LeaseState(shard=0, owner="a", epoch=1, expires_at=10.0)
        assert state.live(9.9) and not state.live(10.0)
        with pytest.raises(TypeError):
            state.live()  # no wall-clock fallback under an injected clock

    def test_lease_path_layout(self, tmp_path):
        assert lease_path(tmp_path, 3).name == "shard-03.json"
        assert lease_path(tmp_path, 3).parent.name == "leases"


class TestMutationLock:
    def test_lock_of_a_killed_holder_does_not_block_the_shard(
        self, tmp_path, monkeypatch
    ):
        """A lock left by a crashed process must not deadlock the shard:
        the kernel releases it with the process, so nobody waits."""
        lease = make_lease(tmp_path, "a", FakeClock())
        with lock_held_by_a_peer(lease.path.with_suffix(".lock")) as holder:
            holder.send_signal(signal.SIGKILL)
            holder.wait()
            monkeypatch.setattr(durable, "time", NoWait)
            assert lease.acquire()

    def test_fresh_lock_times_out_instead_of_breaking(
        self, tmp_path, monkeypatch
    ):
        """A live peer's lock is never broken: acquire gives up instead."""
        monkeypatch.setattr(durable, "LOCK_TIMEOUT_SECONDS", 0.05)
        lease = ShardLease(tmp_path, 0, "a", clock=FakeClock())
        with lock_held_by_a_peer(lease.path.with_suffix(".lock")):
            with pytest.raises(TimeoutError, match="mutation lock"):
                lease.acquire()
            assert lease.epoch == 0 and read_lease(tmp_path, 0) is None


class TestChaosInjection:
    def test_lease_expire_fault_fences_the_holder(self, tmp_path):
        from repro.resilience.chaos import ChaosFault, installed, write_plan

        clock = FakeClock()
        lease = make_lease(tmp_path, "a", clock)
        lease.acquire()
        plan = write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="lease_expire", target="0")],
        )
        with installed(plan):
            with pytest.raises(LeaseLostError, match="injected chaos"):
                lease.check()
            # Fault fires once; but the holder zeroed its epoch — exactly
            # like a real expiry, it must re-acquire before continuing.
            with pytest.raises(LeaseLostError, match="no lease held"):
                lease.check()
        assert lease.acquire()
        lease.check()

    def test_lease_expire_targets_one_shard(self, tmp_path):
        from repro.resilience.chaos import ChaosFault, installed, write_plan

        clock = FakeClock()
        hit = ShardLease(tmp_path, 0, "a", clock=clock)
        spared = ShardLease(tmp_path, 1, "a", clock=clock)
        hit.acquire()
        spared.acquire()
        plan = write_plan(
            str(tmp_path / "plan.json"),
            [ChaosFault(kind="lease_expire", target="0")],
        )
        with installed(plan):
            spared.check()  # target "0" must not touch shard 1
            with pytest.raises(LeaseLostError):
                hit.check()
