"""Fleet-level serving: sharded leased queues, replicas, and placement.

The paper measures single-box behaviour; a production Bayesian inference
service is a *fleet* of such boxes. This package scales the durable
serving stack out without changing any on-disk format:

* :mod:`repro.fleet.lease` — per-shard leases with fencing epochs, so a
  stalled-and-resumed replica can never double-run or clobber work a
  successor already claimed.
* :mod:`repro.fleet.shards` — the job queue as K independent JSONL shard
  logs, each with the single-queue crash-recovery semantics, consumer
  mutations fenced by the shard's lease.
* :mod:`repro.fleet.placement` — weighted consistent hashing of specs onto
  shards, vnode weights from each box's static frequency x IPC proxy.
* :mod:`repro.fleet.member` — one replica's runtime: acquire/renew/adopt
  leases, route specs, hand out fenced queue handles.

See ``docs/fleet.md`` for the full design and the load-harness
methodology behind ``benchmarks/BENCH_gateway_load.json``.
"""

from repro.fleet.lease import (
    DEFAULT_TTL_SECONDS,
    LeaseLostError,
    LeaseState,
    ShardLease,
    lease_path,
    read_lease,
)
from repro.fleet.member import FleetMember, WrongReplicaError
from repro.fleet.placement import (
    FleetBox,
    FleetPlacement,
    FleetTopology,
    WeightedRing,
)
from repro.fleet.shards import ShardedQueue, shard_dir, shard_queue_path

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "FleetBox",
    "FleetMember",
    "FleetPlacement",
    "FleetTopology",
    "LeaseLostError",
    "LeaseState",
    "ShardLease",
    "ShardedQueue",
    "WeightedRing",
    "WrongReplicaError",
    "lease_path",
    "read_lease",
    "shard_dir",
    "shard_queue_path",
]
