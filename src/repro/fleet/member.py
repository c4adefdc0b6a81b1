"""One replica's membership in the fleet.

:class:`FleetMember` is the piece a gateway replica holds: it knows the
fleet topology, owns (via epoch-fenced leases) some subset of the queue
shards, routes incoming specs through the weighted ring, and hands out
lease-guarded queue handles for the shards it drains. It is deliberately
thread-light — the gateway already has a drain loop and a lock; the member
only adds a lease heartbeat decision (:meth:`renew_all` /
:meth:`takeover_scan`) that the gateway calls on its own schedule.

Routing contract: a spec whose shard this replica does not own raises
:class:`WrongReplicaError` carrying the owner's identity and URL, which
the HTTP layer turns into a ``421 wrong_replica`` redirect the fleet
client follows. Ownership is read from the **lease files**, not the
topology — after a takeover the redirect points at the shard's live
drainer, not its configured preference.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.fleet.lease import LeaseLostError, ShardLease
from repro.fleet.placement import FleetPlacement, FleetTopology
from repro.fleet.shards import ShardedQueue
from repro.serve.filequeue import FileJobQueue


class WrongReplicaError(RuntimeError):
    """The spec routes to a shard this replica does not drain."""

    def __init__(
        self,
        shard: int,
        owner: Optional[str],
        owner_url: Optional[str],
    ) -> None:
        self.shard = shard
        self.owner = owner
        self.owner_url = owner_url
        where = (
            f"owned by {owner!r}" if owner is not None else "currently unowned"
        )
        super().__init__(f"shard {shard} is {where}, not this replica")


class FleetMember:
    """A replica's leases, routing, and queue handles."""

    def __init__(
        self,
        queue_root,
        topology: FleetTopology,
        replica_id: str,
        ttl: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.topology = topology
        self.replica_id = replica_id
        self.ttl = float(ttl)
        self.clock = clock
        self.queue = ShardedQueue(queue_root, topology.n_shards)
        self.placement = FleetPlacement(topology)
        #: Shards this replica currently holds, by held :class:`ShardLease`.
        self.leases: Dict[int, ShardLease] = {}

    # -- lease lifecycle -------------------------------------------------------

    @property
    def preferred_shards(self) -> List[int]:
        box = self.topology.box(self.replica_id)
        if box is not None:
            return list(box.shards)
        # Not on the map (single-box dev mode): prefer everything.
        return list(range(self.topology.n_shards))

    def _lease(self, shard: int) -> ShardLease:
        return self.queue.lease(
            shard, self.replica_id, ttl=self.ttl, clock=self.clock
        )

    def acquire_preferred(self) -> List[int]:
        """Claim every preferred shard whose lease is free; returns the
        shards acquired this call."""
        acquired: List[int] = []
        for shard in self.preferred_shards:
            if shard in self.leases:
                continue
            lease = self._lease(shard)
            if lease.acquire():
                self.leases[shard] = lease
                acquired.append(shard)
        return acquired

    def renew_all(self) -> List[int]:
        """Heartbeat every held lease; returns the shards *lost*.

        A lost shard (superseded epoch, vanished state, injected expiry) is
        dropped from :attr:`leases` — its guarded queue handle starts
        raising on the next mutation, and the caller must stop draining it.
        """
        lost: List[int] = []
        for shard, lease in list(self.leases.items()):
            try:
                lease.check()
                lease.renew()
            except LeaseLostError:
                del self.leases[shard]
                lost.append(shard)
        return lost

    def takeover_scan(self) -> List[int]:
        """Adopt shards whose lease has lapsed (their drainer died).

        Scans every shard, not just preferred ones: when a box dies, its
        shards must land *somewhere*, and ``acquire`` only succeeds on a
        genuinely expired or absent lease — live owners are never raced.
        Returns the shards adopted this call.
        """
        adopted: List[int] = []
        for shard in range(self.topology.n_shards):
            if shard in self.leases:
                continue
            state = self.queue.lease_table()[shard]
            if state is not None and state.live(self.clock()):
                continue
            lease = self._lease(shard)
            if lease.acquire():
                self.leases[shard] = lease
                adopted.append(shard)
        return adopted

    def release_all(self) -> None:
        """Graceful drain: hand every held shard back; idempotent."""
        for shard, lease in list(self.leases.items()):
            lease.release()
            del self.leases[shard]

    def owns(self, shard: int) -> bool:
        return shard in self.leases

    @property
    def owned_shards(self) -> List[int]:
        return sorted(self.leases)

    # -- routing ---------------------------------------------------------------

    def shard_for(self, spec) -> int:
        return self.placement.shard_for(spec)

    def route(self, spec) -> int:
        """The owned shard ``spec`` belongs on, or :class:`WrongReplicaError`
        naming the shard's live drainer (lease files beat topology)."""
        shard = self.shard_for(spec)
        if shard in self.leases:
            return shard
        state = self.queue.lease_table()[shard]
        owner = (
            state.owner
            if state is not None and state.live(self.clock())
            else None
        )
        if owner is None:
            box = self.topology.box_for_shard(shard)
            owner = box.replica_id if box is not None else None
        raise WrongReplicaError(shard, owner, self.topology.url_for(owner))

    # -- queue handles ---------------------------------------------------------

    def consumer(self, shard: int) -> FileJobQueue:
        """A lease-fenced queue handle for an owned shard."""
        lease = self.leases.get(shard)
        if lease is None:
            raise LeaseLostError(
                f"shard {shard}: not held by {self.replica_id!r}"
            )
        return self.queue.consumer(shard, lease.check)

    def producer(self, shard: int) -> FileJobQueue:
        return self.queue.producer(shard)

    # -- introspection ---------------------------------------------------------

    def lease_view(self) -> List[dict]:
        """Held leases as ``/healthz`` reports them."""
        view = []
        for shard in sorted(self.leases):
            lease = self.leases[shard]
            expires_in = lease.expires_in()
            view.append(
                {
                    "shard": shard,
                    "epoch": lease.epoch,
                    "expires_in": (
                        round(expires_in, 3) if expires_in is not None else None
                    ),
                }
            )
        return view


__all__ = ["FleetMember", "WrongReplicaError"]
