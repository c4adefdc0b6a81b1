"""End-to-end fleet tests: replicas × shards over one shared queue root.

The acceptance invariants of the fleet PR, on a live two-replica fleet:

* every accepted spec runs exactly once, on the replica owning its shard,
  and a misrouted submission is redirected (421) to the owner;
* duplicate submissions — same replica or different replicas — fold into
  one execution via consistent routing plus the shared result store;
* a :class:`FleetClient` routes by the ring it reads from ``/healthz``, so
  a healthy fleet answers no 421; after a takeover it follows one 421 per
  moved shard (or, when the old owner is dead, asks the other replicas)
  and then goes straight to the new owner;
* a replica that dies mid-drain loses its shard leases, a peer adopts the
  shards, and every parked entry is re-run **bit-identically**;
* ``/healthz`` reports the replica's identity and owned leases, and
  ``repro fleet status`` aggregates them.
"""

import time

import numpy as np
import pytest

from repro.client import FleetClient, GatewayClient, MisdirectedError
from repro.fleet import (
    FleetBox,
    FleetMember,
    FleetPlacement,
    FleetTopology,
    ShardedQueue,
)
from repro.gateway import Gateway
from repro.serve import InferenceServer, JobSpec
from repro.serve.server import RetryPolicy
from repro.serve.store import ResultStore
from repro.telemetry.instrument import FLEET_WRONG_REPLICA
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


def make_spec(seed: int) -> JobSpec:
    return JobSpec(
        workload="votes",
        engine="mh",
        n_iterations=120,
        n_warmup=60,
        n_chains=2,
        seed=seed,
        scale=0.5,
        elide=True,
        check_interval=10,
        min_kept=10,
    )


def two_box_topology(n_shards=2, urls=(None, None)):
    return FleetTopology(
        n_shards=n_shards,
        boxes=(
            FleetBox("r0", "skylake", urls[0], (0,)),
            FleetBox("r1", "broadwell", urls[1], (1,)),
        ),
    )


def boot_replica(queue_root, store_dir, topology, replica_id, ttl=10.0):
    server = InferenceServer(
        n_workers=2,
        registry=MetricsRegistry(), tracer=Tracer(),
        store=ResultStore(str(store_dir)),
    )
    member = FleetMember(queue_root, topology, replica_id, ttl=ttl)
    gateway = Gateway(server, port=0, fleet=member)
    server.__enter__()
    gateway.start()
    return server, gateway


def rebind_urls(gateways, topology_factory):
    """Close the bootstrap loop: replicas bind ephemeral ports, so the
    topology's URLs only exist after start — rebind them everywhere.
    (The ring ignores URLs, so routing is unchanged.)"""
    topology = topology_factory(urls=tuple(g.url for g in gateways))
    for gateway in gateways:
        gateway.fleet.topology = topology
    return topology


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Two replicas × two shards, a batch of jobs pushed through, all
    terminal."""
    queue_root = tmp_path_factory.mktemp("fleet-queue")
    store_dir = tmp_path_factory.mktemp("fleet-results")
    stack = []
    gateways = []
    for replica_id in ("r0", "r1"):
        server, gateway = boot_replica(
            queue_root, store_dir, two_box_topology(), replica_id
        )
        stack.append((server, gateway))
        gateways.append(gateway)
    topology = rebind_urls(gateways, lambda urls: two_box_topology(urls=urls))

    client = FleetClient([g.url for g in gateways])
    specs = [make_spec(seed) for seed in range(6)]
    views = [client.submit(spec) for spec in specs]
    wrong_replica = [
        g.registry.sum_counter(FLEET_WRONG_REPLICA) for g in gateways
    ]
    finals = [
        client.wait(view["job_id"], timeout=180) for view in views
    ]
    try:
        yield {
            "gateways": gateways,
            "topology": topology,
            "client": client,
            "queue_root": queue_root,
            "specs": specs,
            "views": views,
            "wrong_replica": wrong_replica,
            "finals": finals,
        }
    finally:
        client.close()
        for server, gateway in stack:
            gateway.stop()
            server.__exit__(None, None, None)


class TestFleetE2E:
    def test_every_job_terminal_and_unduplicated(self, fleet):
        assert all(f["terminal"] for f in fleet["finals"])
        assert all(f["state"] in ("done", "converged") for f in fleet["finals"])
        # One accepted spec, one execution: no job ran more than once.
        assert all(f["attempts"] == 1 for f in fleet["finals"])

    def test_jobs_landed_on_their_routed_replica(self, fleet):
        placement = FleetPlacement(fleet["topology"])
        owners = {0: fleet["gateways"][0], 1: fleet["gateways"][1]}
        for spec, view in zip(fleet["specs"], fleet["views"]):
            shard = placement.shard_for(spec)
            owner = owners[shard]
            other = owners[1 - shard]
            assert owner.job(view["job_id"]) is not None
            assert other.job(view["job_id"]) is None

    def test_fleet_client_routes_by_the_ring_without_redirects(self, fleet):
        placement = FleetPlacement(fleet["topology"])
        assert {placement.shard_for(spec) for spec in fleet["specs"]} == {0, 1}
        assert fleet["wrong_replica"] == [0, 0]

    def test_wrong_replica_is_a_typed_421_redirect(self, fleet):
        placement = FleetPlacement(fleet["topology"])
        spec = make_spec(999)
        shard = placement.shard_for(spec)
        wrong = fleet["gateways"][1 - shard]
        right = fleet["gateways"][shard]
        with pytest.raises(MisdirectedError) as info:
            GatewayClient(wrong.url).submit(spec)
        err = info.value
        assert err.status == 421
        assert err.shard == shard
        assert err.owner == right.replica_id
        assert err.owner_url == right.url

    def test_duplicate_submission_folds_across_replicas(self, fleet):
        """The same spec via any replica reaches the same job exactly
        once: consistent routing + durable-queue dedup + shared store."""
        spec = fleet["specs"][0]
        view = fleet["client"].submit(spec)  # resubmit after completion
        assert view["deduped"] is True
        assert view["terminal"] and view["state"] == "done"
        assert view["attempts"] == 0  # answered from the store, not rerun

    def test_healthz_reports_identity_and_disjoint_leases(self, fleet):
        health = fleet["client"].healthz()
        assert len(health) == 2
        owned = {}
        for view in health.values():
            assert view["status"] == "ok"
            assert view["n_shards"] == 2
            for lease in view["leases"]:
                assert lease["epoch"] >= 1
                assert lease["expires_in"] > 0
                assert lease["shard"] not in owned
                owned[lease["shard"]] = view["replica_id"]
        assert set(owned) == {0, 1}
        assert len(set(owned.values())) == 2

    def test_fleet_status_cli_aggregates(self, fleet, capsys):
        from repro.cli import main

        code = main([
            "fleet", "status",
            "--url", fleet["gateways"][0].url,
            "--url", fleet["gateways"][1].url,
            "--queue-dir", str(fleet["queue_root"]),
            "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "r0" in out and "r1" in out
        # The on-disk lease table section lists both shards with owners.
        lines = [l for l in out.splitlines() if l.strip().startswith(("0", "1"))]
        assert len(lines) == 2

    def test_draws_bit_identical_to_single_replica(self, fleet, tmp_path):
        """The fleet answer is the single-box answer, bit for bit."""
        spec = fleet["specs"][0]
        job_id = fleet["views"][0]["job_id"]
        fleet_result = fleet["client"].result(job_id, include_draws=True)
        fleet_draws = GatewayClient.draws(fleet_result)

        server = InferenceServer(
            n_workers=2,
            registry=MetricsRegistry(), tracer=Tracer(),
            store=ResultStore(str(tmp_path / "solo-results")),
        )
        with server, Gateway(server, port=0) as solo:
            solo_client = GatewayClient(solo.url)
            solo_id = solo_client.submit(spec)["job_id"]
            solo_client.wait(solo_id, timeout=120)
            solo_draws = GatewayClient.draws(
                solo_client.result(solo_id, include_draws=True)
            )
        np.testing.assert_array_equal(fleet_draws, solo_draws)


class TestRoutingAfterTakeover:
    def test_first_submit_follows_one_421_then_goes_straight_to_the_owner(
        self, tmp_path
    ):
        """Shard 1's lease moves from r1 (its box on the topology) to r0.
        The client's ring still names r1 for shard 1, so the first submit
        there pays one 421; the owner it names is remembered, and later
        shard-1 submits go straight to r0."""
        # A long TTL keeps r1's heartbeat from re-adopting the shard
        # between its release and r0's takeover.
        stack = [
            boot_replica(
                tmp_path / "queue", tmp_path / "results",
                two_box_topology(), replica_id, ttl=60.0,
            )
            for replica_id in ("r0", "r1")
        ]
        gateways = [gateway for _, gateway in stack]
        try:
            topology = rebind_urls(
                gateways, lambda urls: two_box_topology(urls=urls)
            )
            r0, r1 = gateways
            r1.fleet.leases.pop(1).release()
            assert r0.fleet.takeover_scan() == [1]

            placement = FleetPlacement(topology)
            seeds = [s for s in range(100)
                     if placement.shard_for(make_spec(s)) == 1][:4]
            client = FleetClient([g.url for g in gateways])
            try:
                views = [client.submit(make_spec(seed)) for seed in seeds]
            finally:
                client.close()
            assert r1.registry.sum_counter(FLEET_WRONG_REPLICA) == 1
            assert r0.registry.sum_counter(FLEET_WRONG_REPLICA) == 0
            for view in views:
                assert r0.job(view["job_id"]) is not None
                assert r1.job(view["job_id"]) is None
        finally:
            for server, gateway in stack:
                gateway.begin_drain()
                gateway.stop()
                server.__exit__(None, None, None)

    def test_dead_owner_fails_over_to_the_adopting_replica(self, tmp_path):
        """r1 stops, so it can answer no 421, and r0 adopts shard 1. The
        ring (and r0's ``/healthz``) still names r1 for shard 1: the
        client must find r0 by asking it once r1 stays unreachable, then
        go straight to r0."""
        stack = [
            boot_replica(
                tmp_path / "queue", tmp_path / "results",
                two_box_topology(), replica_id, ttl=60.0,
            )
            for replica_id in ("r0", "r1")
        ]
        gateways = [gateway for _, gateway in stack]
        stopped = set()
        try:
            topology = rebind_urls(
                gateways, lambda urls: two_box_topology(urls=urls)
            )
            r0, r1 = gateways
            r1.stop()
            stopped.add(1)
            assert r0.fleet.takeover_scan() == [1]

            placement = FleetPlacement(topology)
            seeds = [s for s in range(100)
                     if placement.shard_for(make_spec(s)) == 1][:3]
            client = FleetClient(
                [g.url for g in gateways],
                retry_policy=RetryPolicy(max_attempts=1),
            )
            try:
                views = [client.submit(make_spec(seed)) for seed in seeds]
                assert client._owners[1] == r0.url
            finally:
                client.close()
            assert r0.registry.sum_counter(FLEET_WRONG_REPLICA) == 0
            for view in views:
                assert r0.job(view["job_id"]) is not None
        finally:
            for index, (server, gateway) in enumerate(stack):
                if index not in stopped:
                    gateway.begin_drain()
                    gateway.stop()
                server.__exit__(None, None, None)


class TestTakeover:
    def test_successor_adopts_dead_replicas_shards_and_reruns(
        self, tmp_path
    ):
        """SIGKILL-equivalent: a replica's shard log holds a pending entry
        and an orphan (started, never finished) when its lease lapses.
        The surviving replica must adopt the shard, replay both entries,
        and produce bit-identical draws to a healthy run."""
        queue_root = tmp_path / "queue"
        store_dir = tmp_path / "results"
        specs = [make_spec(41), make_spec(42)]

        # The dead replica's on-disk wreckage: shard 1 written as if r1 died
        # mid-drain — no process needed, the files are the failure mode.
        queue = ShardedQueue(queue_root, 2)
        producer = queue.producer(1)
        pending_id = producer.submit(specs[0])
        orphan_id = producer.submit(specs[1])
        producer.mark_running(orphan_id)  # started, never finished
        dead = queue.lease(1, "r1", ttl=0.1)
        assert dead.acquire()
        time.sleep(0.2)  # the lease lapses; r1 never renews (it is "dead")

        # Survivor: prefers shard 0, heartbeats fast so the test is quick.
        server, gateway = boot_replica(
            queue_root, store_dir, two_box_topology(), "r0", ttl=1.2
        )
        try:
            assert 0 in gateway.fleet.owned_shards
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (
                    1 in gateway.fleet.leases
                    and len(gateway.jobs()) == 2
                    and all(j.state.terminal for j in gateway.jobs())
                ):
                    break
                time.sleep(0.1)
            assert gateway.fleet.owned_shards == [0, 1]
            jobs = {j.spec.key(): j for j in gateway.jobs()}
            assert len(jobs) == 2

            # The takeover went through a real epoch bump.
            state = queue.lease_table()[1]
            assert state.owner == "r0"
            assert state.epoch == dead.epoch + 1

            # Both entries finished durably in shard 1's log.
            replay = queue.producer(1).load(compact=False)
            assert replay.pending == [] and replay.orphaned == []

            # Bit-identity: each recovered job matches a fresh reference
            # run of the same spec on an untouched server.
            reference = InferenceServer(
                n_workers=2,
                registry=MetricsRegistry(), tracer=Tracer(),
            )
            with reference:
                for spec in specs:
                    ref_job = reference.submit(spec)
                    reference.run_until_drained()
                    recovered = jobs[spec.key()]
                    assert recovered.state.value in ("done", "converged")
                    for ref_chain, got_chain in zip(
                        ref_job.result.chains, recovered.result.chains
                    ):
                        np.testing.assert_array_equal(
                            ref_chain.samples, got_chain.samples
                        )
        finally:
            gateway.stop()
            server.__exit__(None, None, None)

    def test_stale_drainer_cannot_mark_after_takeover(self, tmp_path):
        """The fencing half of the SIGKILL story: if the 'dead' replica
        was merely stalled and wakes up, its durable marks are vetoed."""
        queue_root = tmp_path / "queue"
        queue = ShardedQueue(queue_root, 2)
        entry = queue.producer(1).submit(make_spec(1))
        stalled = queue.lease(1, "r1", ttl=0.1)
        assert stalled.acquire()
        consumer = queue.consumer(1, stalled.check)
        time.sleep(0.2)
        successor = queue.lease(1, "r0", ttl=10.0)
        assert successor.acquire()
        from repro.fleet import LeaseLostError

        before = queue.path(1).read_bytes()
        with pytest.raises(LeaseLostError):
            consumer.mark_running(entry)
        assert queue.path(1).read_bytes() == before
