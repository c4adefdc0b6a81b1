"""The fleet's job queue: K independent shards of the JSONL log format.

Each shard is a plain :class:`~repro.serve.filequeue.FileJobQueue` in its
own subdirectory of the queue root::

    <root>/shard-00/queue.jsonl
    <root>/shard-01/queue.jsonl
    ...
    <root>/leases/shard-00.json      (see :mod:`repro.fleet.lease`)

so every property the single-file queue earned over the previous PRs —
append-only replay, orphan recovery, torn-line tolerance, bounded
compaction — holds per shard unchanged, and a 1-shard fleet is bit-for-bit
the old layout one directory deeper. What sharding adds is *who may touch
what*: any process may append submissions to any shard
(:meth:`ShardedQueue.producer`), but consumer-side mutations go through
:meth:`ShardedQueue.consumer`, which wires the shard's lease fence in as
the queue's ``mutation_guard``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional

from repro.fleet.lease import LeaseState, ShardLease, read_lease
from repro.serve.filequeue import FileJobQueue


def shard_dir(root, shard: int) -> Path:
    return Path(root) / f"shard-{shard:02d}"


def shard_queue_path(root, shard: int) -> Path:
    return shard_dir(root, shard) / "queue.jsonl"


class ShardedQueue:
    """K lease-fenced :class:`FileJobQueue` shards under one root."""

    def __init__(self, root, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.root = Path(root)
        self.n_shards = int(n_shards)

    def _check_shard(self, shard: int) -> int:
        shard = int(shard)
        if shard < 0 or shard >= self.n_shards:
            raise ValueError(
                f"shard {shard} outside 0..{self.n_shards - 1}"
            )
        return shard

    def path(self, shard: int) -> Path:
        return shard_queue_path(self.root, self._check_shard(shard))

    # -- queue handles ---------------------------------------------------------

    def producer(self, shard: int) -> FileJobQueue:
        """An unguarded handle for appending submissions to ``shard``.

        Producers never need the lease: appends are crash-safe by the log
        format, and exclusivity only matters for draining.
        """
        return FileJobQueue(self.path(shard))

    def consumer(
        self,
        shard: int,
        guard: Optional[Callable[[], None]],
    ) -> FileJobQueue:
        """A lease-fenced handle for draining ``shard``.

        ``guard`` is typically a held :meth:`~repro.fleet.lease.ShardLease.
        check`; it runs before every running/finished mark, compaction
        rewrite, and truncate, so a handle whose lease was superseded can
        no longer mutate the log.
        """
        return FileJobQueue(self.path(shard), mutation_guard=guard)

    # -- leases ----------------------------------------------------------------

    def lease(self, shard: int, replica_id: str, **kwargs) -> ShardLease:
        return ShardLease(
            self.root, self._check_shard(shard), replica_id, **kwargs
        )

    def lease_table(self) -> Dict[int, Optional[LeaseState]]:
        """On-disk lease state for every shard (``repro fleet status``)."""
        return {
            shard: read_lease(self.root, shard)
            for shard in range(self.n_shards)
        }

    # -- diagnostics -----------------------------------------------------------

    def depth(self, shard: int) -> int:
        """Live (pending + orphaned) entries in one shard, without
        compacting — safe for any process, lease or not."""
        queue = self.producer(shard)
        recovery = queue.load(compact=False)
        return len(recovery.pending) + len(recovery.orphaned)


__all__ = [
    "ShardedQueue",
    "shard_dir",
    "shard_queue_path",
]
