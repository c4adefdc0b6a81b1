"""Placement: the weighted consistent-hash ring over queue shards.

Two properties carry the fleet's correctness and its paper tie-in:

* **Determinism** — independently constructed producers route a given
  spec to the same shard (dedup and double-run prevention depend on it).
* **Platform weighting** — the ring tilts by the Table II platforms'
  static frequency x IPC proxy and by nothing a producer has measured, so
  it stays a pure function of (topology, spec).
"""

import pytest

from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.fleet.placement import (
    FleetBox,
    FleetPlacement,
    FleetTopology,
    WeightedRing,
)
from repro.serve.job import JobSpec


def spec(seed=0, workload="votes"):
    return JobSpec(
        workload=workload, engine="mh", n_iterations=40, n_chains=2, seed=seed
    )


def two_box_topology(n_shards=4):
    return FleetTopology(
        n_shards=n_shards,
        boxes=(
            FleetBox("fast", "skylake", "http://fast", (0, 1)),
            FleetBox("bigcache", "broadwell", "http://big", (2, 3)),
        ),
    )


class TestTopology:
    def test_assignments_must_partition_the_shards(self):
        with pytest.raises(ValueError, match="assigned to both"):
            FleetTopology(2, (
                FleetBox("a", shards=(0, 1)), FleetBox("b", shards=(1,)),
            ))
        with pytest.raises(ValueError, match="assigned to no box"):
            FleetTopology(3, (FleetBox("a", shards=(0, 1)),))
        with pytest.raises(ValueError, match="outside"):
            FleetTopology(2, (FleetBox("a", shards=(0, 5)),))

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            FleetBox("a", platform="epyc")

    def test_roundtrip_through_json(self, tmp_path):
        topology = two_box_topology()
        path = tmp_path / "fleet.json"
        topology.save(path)
        assert FleetTopology.load(path) == topology

    def test_single_box_owns_everything(self):
        topology = FleetTopology.single_box(3, replica_id="solo")
        assert topology.boxes[0].shards == (0, 1, 2)
        assert topology.box_for_shard(2).replica_id == "solo"

    def test_lookup_helpers(self):
        topology = two_box_topology()
        assert topology.box_for_shard(2).replica_id == "bigcache"
        assert topology.url_for("fast") == "http://fast"
        assert topology.url_for("nobody") is None
        assert topology.url_for(None) is None


class TestRing:
    def test_lookup_is_deterministic(self):
        a = WeightedRing({0: 1.0, 1: 1.0, 2: 1.0})
        b = WeightedRing({0: 1.0, 1: 1.0, 2: 1.0})
        keys = [f"key-{i}" for i in range(100)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_uniform_weights_spread_keys(self):
        ring = WeightedRing({s: 1.0 for s in range(4)})
        counts = {s: 0 for s in range(4)}
        for i in range(2000):
            counts[ring.lookup(f"key-{i}")] += 1
        for shard, count in counts.items():
            assert count > 200, f"shard {shard} starved: {counts}"

    def test_heavier_shard_draws_more_keys(self):
        ring = WeightedRing({0: 4.0, 1: 1.0})
        hits = sum(ring.lookup(f"key-{i}") == 0 for i in range(4000))
        assert hits > 2600  # ~4/5 of the keys, with hashing slack

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedRing({})
        with pytest.raises(ValueError, match="positive"):
            WeightedRing({0: 0.0})


class TestPlacement:
    def test_independent_producers_agree(self):
        """The dedup keystone: every producer, same spec, same shard."""
        topology = two_box_topology()
        a, b = FleetPlacement(topology), FleetPlacement(topology)
        for seed in range(50):
            s = spec(seed)
            assert a.shard_for(s) == b.shard_for(s)

    def test_identical_specs_identical_shard(self):
        placement = FleetPlacement(two_box_topology())
        assert placement.shard_for(spec(7)) == placement.shard_for(spec(7))

    def test_static_weight_is_frequency_times_ipc(self):
        placement = FleetPlacement(two_box_topology())
        fast, big = placement.topology.boxes
        assert placement.box_weight(fast) == pytest.approx(
            SKYLAKE.turbo_ghz * SKYLAKE.base_ipc
        )
        assert placement.box_weight(big) == pytest.approx(
            BROADWELL.turbo_ghz * BROADWELL.base_ipc
        )

    def test_box_weight_splits_across_its_shards(self):
        """A box's pull is independent of how many shards it hosts."""
        lopsided = FleetTopology(
            n_shards=3,
            boxes=(
                FleetBox("a", "skylake", shards=(0, 1)),
                FleetBox("b", "skylake", shards=(2,)),
            ),
        )
        # Extra vnodes tighten the hash variance enough to see the
        # intended 50/50 split through the noise.
        placement = FleetPlacement(lopsided, vnodes=512)
        weights = placement.shard_weights()
        assert weights[0] == weights[1] == pytest.approx(weights[2] / 2)
        share = placement.share_by_box(
            [f"key-{i}" for i in range(4000)]
        )
        assert share["a"] == pytest.approx(share["b"], abs=0.12)
