"""Per-shard leases with fencing epochs.

A shard of the fleet's job queue has at most one *drainer* at a time: the
replica holding the shard's lease. The lease is a small JSON state file on
the shared queue directory::

    {"shard": 3, "owner": "replica-b", "epoch": 7, "expires_at": 1754650000.0}

and follows the epoch-fencing idiom the worker supervisor introduced in
PR 2 (stale chain events carry an old epoch and are dropped): every
acquisition — first claim, renewal after expiry, takeover from a dead
replica — increments ``epoch``, and every durable mutation the holder
performs first calls :meth:`ShardLease.check`, which verifies that the
on-disk epoch is still *this holder's* epoch. A replica that stalls (GC
pause, SIGSTOP, a wedged NFS write) past its TTL and then resumes cannot
clobber work its successor already claimed: its next guarded write raises
:class:`LeaseLostError` (a :class:`~repro.resilience.errors.
MutationFencedError`) instead of landing.

Lease-state *transitions* (acquire, renew, release) are serialized by a
short-lived :class:`repro.durable.FileLock` next to the state file, so the
read-verify-write window is atomic across processes on one filesystem; a
lock abandoned by a crashed process is broken after
:data:`LOCK_BREAK_SECONDS`. The lock only guards the few-microsecond state
transition; the shard's data path is guarded by the epoch fence, never by
the lock.

Expiry uses wall-clock :func:`time.time` (shared across the replicas of
one box or one mounted filesystem), injectable as ``clock`` for tests.
The chaos harness can force a holder to observe its lease as lost
(``lease_expire`` in a ``REPRO_CHAOS`` plan) — the injection point is
inside :meth:`check`/:meth:`renew`, exactly where a real expiry surfaces.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.durable import FileLock, atomic_write
from repro.resilience.errors import MutationFencedError

#: A mutation lock older than this is presumed abandoned and broken.
LOCK_BREAK_SECONDS = 5.0
#: How long an acquire/renew waits for the mutation lock before giving up.
LOCK_TIMEOUT_SECONDS = 2.0
#: Default lease TTL; renewals should run at a small fraction of this.
DEFAULT_TTL_SECONDS = 10.0


class LeaseLostError(MutationFencedError):
    """The caller's lease epoch is no longer the shard's live epoch."""


@dataclass(frozen=True)
class LeaseState:
    """The on-disk record of one shard's current lease."""

    shard: int
    owner: str
    epoch: int
    expires_at: float

    def live(self, now: float) -> bool:
        return now < self.expires_at

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "LeaseState":
        return cls(
            shard=int(payload["shard"]),
            owner=str(payload["owner"]),
            epoch=int(payload["epoch"]),
            expires_at=float(payload["expires_at"]),
        )


def lease_path(root, shard: int) -> Path:
    return Path(root) / "leases" / f"shard-{shard:02d}.json"


def read_lease(root, shard: int) -> Optional[LeaseState]:
    """The shard's current lease state, or None (absent/torn file).

    A torn state file (crash mid-replace on a non-atomic filesystem) reads
    as "no lease": the next acquirer starts a fresh epoch *above* any it
    has seen, so fencing still rejects the torn epoch's writers.
    """
    path = lease_path(root, shard)
    try:
        return LeaseState.from_dict(json.loads(path.read_text()))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
        return None


class ShardLease:
    """One replica's handle on one shard's lease."""

    def __init__(
        self,
        root,
        shard: int,
        replica_id: str,
        ttl: float = DEFAULT_TTL_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.root = Path(root)
        self.shard = int(shard)
        self.replica_id = replica_id
        self.ttl = float(ttl)
        self.clock = clock
        #: The epoch this holder acquired; 0 until :meth:`acquire` succeeds.
        self.epoch = 0

    # -- state-file plumbing ---------------------------------------------------

    @property
    def path(self) -> Path:
        return lease_path(self.root, self.shard)

    def _lock(self) -> FileLock:
        return FileLock(
            self.path.with_suffix(".lock"),
            timeout=LOCK_TIMEOUT_SECONDS,
            break_after=LOCK_BREAK_SECONDS,
        )

    def _write_state(self, state: LeaseState) -> None:
        content = json.dumps(state.to_dict(), sort_keys=True) + "\n"
        atomic_write(self.path, content.encode())

    def peek(self) -> Optional[LeaseState]:
        return read_lease(self.root, self.shard)

    @property
    def held(self) -> bool:
        """Cheap local view: has this handle acquired and not lost/released?
        (Authoritative answer is :meth:`check`, which reads the disk.)"""
        return self.epoch > 0

    # -- transitions -----------------------------------------------------------

    def acquire(self) -> bool:
        """Try to take the shard's lease; True on success.

        Succeeds when the shard is unleased, the current lease has expired,
        or this replica already holds it (a restart re-adopting its own
        shard). Every success installs a **new, higher epoch** — even a
        self-re-acquire — so any writer fenced on the previous epoch stays
        fenced; there is no path back to an old epoch.
        """
        with self._lock():
            state = self.peek()
            now = self.clock()
            if (
                state is not None
                and state.live(now)
                and state.owner != self.replica_id
            ):
                return False
            previous = state.epoch if state is not None else 0
            self.epoch = max(previous, self.epoch) + 1
            self._write_state(
                LeaseState(
                    shard=self.shard,
                    owner=self.replica_id,
                    epoch=self.epoch,
                    expires_at=now + self.ttl,
                )
            )
            return True

    def renew(self) -> None:
        """Extend the lease TTL; raises :class:`LeaseLostError` when the
        on-disk epoch is no longer ours (a successor claimed the shard)."""
        with self._lock():
            self._verify()
            self._write_state(
                LeaseState(
                    shard=self.shard,
                    owner=self.replica_id,
                    epoch=self.epoch,
                    expires_at=self.clock() + self.ttl,
                )
            )

    def release(self) -> None:
        """Give the shard up cleanly (a graceful drain); idempotent.

        Only removes the state file while it still carries our epoch — a
        stale holder releasing after a takeover must not evict its
        successor.
        """
        if self.epoch == 0:
            return
        with self._lock():
            state = self.peek()
            if (
                state is not None
                and state.owner == self.replica_id
                and state.epoch == self.epoch
            ):
                try:
                    os.unlink(self.path)
                except FileNotFoundError:
                    pass
        self.epoch = 0

    # -- the fence -------------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`LeaseLostError` unless this epoch is still live.

        This is the mutation guard wired into the shard's durable queue:
        called immediately before every consumer-side append, compaction
        rewrite, and truncate. No lock is taken — a plain read suffices,
        because the only way the check can pass while a successor exists is
        the successor not having claimed yet, in which case our lease is
        genuinely still live.
        """
        from repro.resilience import chaos

        injector = chaos.active()
        if injector is not None and injector.lease_fault(self.shard):
            self.epoch = 0
            raise LeaseLostError(
                f"shard {self.shard}: lease expired (injected chaos)"
            )
        self._verify()

    def _verify(self) -> None:
        if self.epoch == 0:
            raise LeaseLostError(
                f"shard {self.shard}: no lease held by {self.replica_id!r}"
            )
        state = self.peek()
        if state is None:
            raise LeaseLostError(
                f"shard {self.shard}: lease state vanished "
                f"(held epoch {self.epoch})"
            )
        if state.epoch != self.epoch or state.owner != self.replica_id:
            raise LeaseLostError(
                f"shard {self.shard}: fenced at epoch {self.epoch} — "
                f"now owned by {state.owner!r} at epoch {state.epoch}"
            )
        if not state.live(self.clock()):
            raise LeaseLostError(
                f"shard {self.shard}: lease (epoch {self.epoch}) expired "
                f"{self.clock() - state.expires_at:.2f}s ago"
            )

    def expires_in(self) -> Optional[float]:
        """Seconds until expiry of *our* lease, or None when not held."""
        state = self.peek()
        if (
            state is None
            or state.owner != self.replica_id
            or state.epoch != self.epoch
        ):
            return None
        return state.expires_at - self.clock()
