"""Fleet-level placement: weighted consistent hashing over shards.

The paper's platform scheduler (Section V-B) answers *"which platform on
this box"* — its LLC-miss predictor sends LLC-bound workloads to the big-
cache part, everything else to the fast one. This module lifts the same
platform models one level up: a **fleet** of boxes, each a Table II
platform hosting some shards of the job queue, and a submission is routed
to a shard by consistent hashing over a ring whose **vnode counts are
weighted by each box's static throughput proxy** (turbo frequency x base
IPC). Faster boxes draw proportionally more keys; the ring is blind to
the workload family — which platform suits a job is the per-box
scheduler's question, answered where the job runs.

Consistency is the load-bearing property: the ring is a pure function of
(topology, spec) — nothing a producer has measured or learned enters it —
and a spec is hashed by its dedup key. So every producer (gateway
replica, ``repro submit``, the load harness) sends a given spec to the
same shard, and so to the one replica draining it. There the server's
in-flight index folds a duplicate onto its queued, running or retrying
twin, and the shared result store answers one that already finished:
repeat traffic is free. Running a spec once across replicas therefore
rests on this routing, not on any check between replicas — it holds
while producers and replicas agree on the topology, and a stale one can
send a twin to a replica that runs it again.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.arch.platforms import PLATFORMS, Platform

#: Virtual nodes granted to the heaviest box; lighter boxes get
#: proportionally fewer. Enough for an even key spread at small fleets.
VNODES = 64


@dataclass(frozen=True)
class FleetBox:
    """One box of the fleet: a replica on a Table II platform."""

    replica_id: str
    #: Key into :data:`repro.arch.platforms.PLATFORMS`.
    platform: str = "skylake"
    #: Gateway base URL, when known (used for wrong-replica redirects).
    url: Optional[str] = None
    #: Queue shards this box prefers to own (disjoint across boxes).
    shards: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"unknown platform {self.platform!r}; "
                f"one of {sorted(PLATFORMS)}"
            )
        object.__setattr__(self, "shards", tuple(int(s) for s in self.shards))

    @property
    def platform_spec(self) -> Platform:
        return PLATFORMS[self.platform]

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "platform": self.platform,
            "url": self.url,
            "shards": list(self.shards),
        }


@dataclass(frozen=True)
class FleetTopology:
    """The fleet map: which box hosts which shards.

    Shard assignments must partition ``range(n_shards)`` exactly — a shard
    with two preferred owners would make routing ambiguous, and an
    unassigned shard would be a black hole for every spec hashed onto it.
    (Lease *takeover* may move live ownership off this map when a box
    dies; the map is the routing preference, the lease files are the
    truth.)
    """

    n_shards: int
    boxes: Tuple[FleetBox, ...] = ()

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        seen: Dict[int, str] = {}
        for box in self.boxes:
            for shard in box.shards:
                if shard < 0 or shard >= self.n_shards:
                    raise ValueError(
                        f"box {box.replica_id!r} claims shard {shard}, "
                        f"outside 0..{self.n_shards - 1}"
                    )
                if shard in seen:
                    raise ValueError(
                        f"shard {shard} assigned to both {seen[shard]!r} "
                        f"and {box.replica_id!r}"
                    )
                seen[shard] = box.replica_id
        missing = sorted(set(range(self.n_shards)) - set(seen))
        if self.boxes and missing:
            raise ValueError(f"shards {missing} assigned to no box")

    @classmethod
    def single_box(
        cls, n_shards: int, replica_id: str = "local"
    ) -> "FleetTopology":
        """Every shard on one box — the CLI default when no fleet file is
        given (``repro serve --shards K`` on a single machine)."""
        return cls(
            n_shards=n_shards,
            boxes=(
                FleetBox(replica_id=replica_id, shards=tuple(range(n_shards))),
            ),
        )

    def box_for_shard(self, shard: int) -> Optional[FleetBox]:
        for box in self.boxes:
            if shard in box.shards:
                return box
        return None

    def box(self, replica_id: str) -> Optional[FleetBox]:
        for candidate in self.boxes:
            if candidate.replica_id == replica_id:
                return candidate
        return None

    def url_for(self, replica_id: Optional[str]) -> Optional[str]:
        if replica_id is None:
            return None
        box = self.box(replica_id)
        return box.url if box is not None else None

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "boxes": [box.to_dict() for box in self.boxes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetTopology":
        return cls(
            n_shards=int(payload["n_shards"]),
            boxes=tuple(
                FleetBox(
                    replica_id=str(box["replica_id"]),
                    platform=box.get("platform", "skylake"),
                    url=box.get("url"),
                    shards=tuple(box.get("shards", ())),
                )
                for box in payload.get("boxes", ())
            ),
        )

    @classmethod
    def load(cls, path) -> "FleetTopology":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _hash64(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class WeightedRing:
    """Consistent-hash ring over shard ids with per-shard weights.

    Each shard gets ``round(VNODES * weight / max_weight)`` (at least one)
    virtual points on a 64-bit ring; a key maps to the first vnode at or
    after its own hash. Determinism: the ring depends only on the
    (shard, weight) pairs, so independently constructed producers agree.
    """

    def __init__(self, weights: Dict[int, float], vnodes: int = VNODES) -> None:
        if not weights:
            raise ValueError("ring needs at least one shard")
        top = max(weights.values())
        if top <= 0:
            raise ValueError("shard weights must be positive")
        points: List[Tuple[int, int]] = []
        for shard, weight in sorted(weights.items()):
            count = max(1, round(vnodes * weight / top))
            for v in range(count):
                points.append((_hash64(f"shard-{shard}:vnode-{v}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def lookup(self, key: str) -> int:
        index = bisect.bisect_right(self._hashes, _hash64(key))
        if index == len(self._hashes):
            index = 0
        return self._shards[index]


@dataclass
class FleetPlacement:
    """Routes job specs to shards over the one platform-weighted ring."""

    topology: FleetTopology
    vnodes: int = VNODES

    def __setattr__(self, name, value) -> None:
        super().__setattr__(name, value)
        # A new topology (or vnode count) routes by a ring built on next use.
        self.__dict__.pop("ring", None)

    # -- weights ---------------------------------------------------------------

    def box_weight(self, box: FleetBox) -> float:
        spec = box.platform_spec
        return spec.turbo_ghz * spec.base_ipc

    def shard_weights(self) -> Dict[int, float]:
        """Per-shard ring weights.

        A box's weight is split evenly across its shards, so a heavy box
        hosting two shards pulls the same total traffic as an equally
        heavy box hosting one.
        """
        weights: Dict[int, float] = {}
        for box in self.topology.boxes:
            if not box.shards:
                continue
            weight = self.box_weight(box) / len(box.shards)
            for shard in box.shards:
                weights[shard] = weight
        if not weights:
            # Topology without boxes (bare shard count): uniform ring.
            weights = {s: 1.0 for s in range(self.topology.n_shards)}
        return weights

    # -- routing ---------------------------------------------------------------

    @cached_property
    def ring(self) -> WeightedRing:
        """Built on first use after each topology assignment."""
        return WeightedRing(self.shard_weights(), vnodes=self.vnodes)

    def shard_for(self, spec) -> int:
        """The shard this :class:`~repro.serve.job.JobSpec` routes to.

        Hashed by the spec's dedup key: identical work from any producer
        lands on the same shard, so the one server draining it folds the
        duplicates (its in-flight index) — as long as every producer routes
        by the same topology.
        """
        return self.ring.lookup(spec.key())
