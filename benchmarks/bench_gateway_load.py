"""Gateway fleet load harness — submit-to-result throughput vs replicas.

Boots a fleet of 1, 2, and 4 gateway replicas over a fixed 4-shard durable
queue (one shared result store), then drives a closed loop of concurrent
clients through the full serving path — HTTP submit, consistent-hash
routing with 421 redirects, durable shard-log appends, lease-fenced
draining, SSE progress streams for a fraction of the jobs, polling for the
rest — and measures what the fleet actually delivers:

* **throughput** — unique submit-to-result jobs per second, wall clock;
* **latency** — per-request submit-to-terminal p50/p95/p99;
* **correctness under load** — every accepted job terminal and
  non-failed, **no job executed more than once** across replicas
  (attempts summed over every replica's job table), duplicate
  resubmissions answered from the shared store without re-running, and
  the posterior draws for a sampled set of specs **bit-identical across
  all three fleet sizes**.

Service-time emulation
----------------------

The jobs here are deliberately small (the bench must run on a laptop or a
one-core CI box), while the paper's workloads run seconds to minutes per
request. To keep the bench measuring *fleet orchestration capacity* —
queueing, routing, durability, lease heartbeats, HTTP — rather than raw
sampler arithmetic on however many cores the host happens to have, each
replica's drain pipeline carries an emulated service-time floor
(``REPRO_BENCH_FLEET_SERVICE_MS``, default 900 ms, slept in the drain
thread before the sampler runs). That is the standard load-harness trick:
pin the per-job service time so throughput differences come from the
system under test, not the host. Set it to 0 to measure raw sampler
throughput instead (on a single core, replicas then cannot scale — they
share the arithmetic unit).

Entry points (same shape as the other benches):

* standalone — ``python benchmarks/bench_gateway_load.py`` prints a table
  and rewrites ``BENCH_gateway_load.json`` next to this file;
* ``--check`` — re-measures and exits non-zero if the 4-replica fleet no
  longer delivers >=2x the single-replica throughput, or fell below
  ``REPRO_FLEET_REGRESSION`` (default 0.5) of the committed baseline
  ratio — the nightly regression gate;
* pytest — a smoke test asserting the scaling bar and the correctness
  invariants (not collected by tier-1: ``testpaths`` excludes
  ``benchmarks/``).

Knobs: ``REPRO_BENCH_FLEET_JOBS`` (unique jobs per fleet size, default
24), ``REPRO_BENCH_FLEET_THREADS`` (closed-loop clients, default 10),
``REPRO_BENCH_FLEET_SERVICE_MS`` (emulated service floor, default 900),
``REPRO_BENCH_FLEET_STREAM`` (fraction observed via SSE instead of
polling, default 0.25), ``REPRO_BENCH_FLEET_DUPS`` (duplicate
resubmissions checked after the timed run, default 4),
``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FLEET_ITERS`` (job size).
"""

import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, main

from repro.client import FleetClient, GatewayClient
from repro.fleet import FleetBox, FleetMember, FleetPlacement, FleetTopology
from repro.gateway import Gateway
from repro.serve import InferenceServer, JobSpec
from repro.serve.store import ResultStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

N_SHARDS = 4
REPLICA_COUNTS = (1, 2, 4)

N_JOBS = int(os.environ.get("REPRO_BENCH_FLEET_JOBS", "24"))
N_THREADS = int(os.environ.get("REPRO_BENCH_FLEET_THREADS", "10"))
SERVICE_MS = float(os.environ.get("REPRO_BENCH_FLEET_SERVICE_MS", "900"))
STREAM_FRACTION = float(os.environ.get("REPRO_BENCH_FLEET_STREAM", "0.25"))
N_DUPS = int(os.environ.get("REPRO_BENCH_FLEET_DUPS", "4"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
ITERS = int(os.environ.get("REPRO_BENCH_FLEET_ITERS", "40"))
REGRESSION_FLOOR = float(os.environ.get("REPRO_FLEET_REGRESSION", "0.5"))

#: The acceptance bar: four replicas deliver at least twice the
#: submit-to-result throughput of one.
SCALING_FLOOR = 2.0

#: Specs whose draws are compared bit-for-bit across fleet sizes.
IDENTITY_SAMPLE = 3

BASELINE_PATH = Path(__file__).parent / "BENCH_gateway_load.json"


def make_spec(seed: int) -> JobSpec:
    return JobSpec(
        workload="votes", engine="mh", n_iterations=ITERS,
        n_warmup=ITERS // 2, n_chains=2, seed=seed, scale=SCALE,
        elide=True, check_interval=20, min_kept=5,
    )


def fleet_topology(n_replicas: int, urls=None) -> FleetTopology:
    urls = urls or [None] * n_replicas
    per = N_SHARDS // n_replicas
    return FleetTopology(
        n_shards=N_SHARDS,
        boxes=tuple(
            FleetBox(f"r{i}", "skylake", urls[i],
                     tuple(range(i * per, (i + 1) * per)))
            for i in range(n_replicas)
        ),
    )


def balanced_seeds(n_jobs: int = N_JOBS) -> list:
    """Seeds spread evenly over the shards — uniform offered load.

    A 24-job sample of the hash ring can land 10 jobs on one shard; with
    sequential per-shard pipelines that straggler shard, not fleet
    capacity, would set the wall clock. Real fleets see the large-number
    average, so the harness offers it: equal per-shard arrivals. The ring
    depends only on the shard count and the (uniform) platform weights,
    so the same seeds map to the same shards at every fleet size.
    """
    placement = FleetPlacement(fleet_topology(1))
    per_shard = n_jobs // N_SHARDS
    buckets = {shard: [] for shard in range(N_SHARDS)}
    seed = 0
    while sum(len(b) for b in buckets.values()) < per_shard * N_SHARDS:
        shard = placement.shard_for(make_spec(seed))
        if len(buckets[shard]) < per_shard:
            buckets[shard].append(seed)
        seed += 1
    picked = [s for bucket in buckets.values() for s in bucket]
    # Round out with arbitrary seeds when n_jobs is not a multiple.
    extra = 0
    while len(picked) < n_jobs:
        if extra not in picked:
            picked.append(extra)
        extra += 1
    return sorted(picked)


SEEDS = balanced_seeds()


def boot_fleet(n_replicas: int, root: Path):
    """N in-process replicas over one queue root and one result store."""
    stack = []
    gateways = []
    for i in range(n_replicas):
        server = InferenceServer(
            n_workers=1,
            registry=MetricsRegistry(), tracer=Tracer(),
            store=ResultStore(str(root / "results")),
        )
        member = FleetMember(
            root / "queue", fleet_topology(n_replicas), f"r{i}"
        )
        gateway = Gateway(server, port=0, fleet=member)
        server.__enter__()
        gateway.start()
        if SERVICE_MS > 0:
            # Emulated service floor, slept inside the drain pipeline (the
            # gateway chained its durable mark first; keep the chain).
            prev = server.on_job_start

            def on_start(job, _prev=prev):
                if _prev is not None:
                    _prev(job)
                time.sleep(SERVICE_MS / 1e3)

            server.on_job_start = on_start
        stack.append((server, gateway))
        gateways.append(gateway)
    topology = fleet_topology(n_replicas, [g.url for g in gateways])
    for gateway in gateways:
        gateway.fleet.topology = topology
        gateway.fleet.placement.topology = topology
    return stack, gateways


def drive(client: FleetClient, n_jobs: int, n_threads: int):
    """Closed-loop load: each thread submits and observes to completion.

    Every ``1/STREAM_FRACTION``-th request holds an SSE stream open to the
    terminal event; the rest poll. Returns (wall_s, latencies, finals).
    """
    lock = threading.Lock()
    latencies, finals, errors = [], [], []
    stream_every = max(1, int(round(1 / STREAM_FRACTION))) \
        if STREAM_FRACTION > 0 else 0

    def observe(index: int, seed: int) -> dict:
        start = time.perf_counter()
        view = client.submit(make_spec(seed))
        job_id = view["job_id"]
        if stream_every and index % stream_every == 0:
            # The stream ends itself at the terminal event; the full
            # status view still comes from the job endpoint.
            list(client.stream(job_id, timeout=300))
            final = client.job(job_id)
        else:
            final = client.wait(job_id, timeout=300)
        elapsed = time.perf_counter() - start
        with lock:
            latencies.append(elapsed)
            finals.append(final)
        return final

    def worker(units):
        for index, seed in units:
            try:
                observe(index, seed)
            except Exception as exc:  # a lost job is a bench failure
                with lock:
                    errors.append((seed, repr(exc)))

    units = list(enumerate(SEEDS[:n_jobs]))
    chunks = [units[i::n_threads] for i in range(n_threads)]
    threads = [
        threading.Thread(target=worker, args=(chunk,)) for chunk in chunks
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"{len(errors)} request(s) failed: {errors[:3]}")
    return wall, latencies, finals


def assert_invariants(gateways, finals, client: FleetClient):
    """The fleet's correctness contract, checked after the timed run."""
    # 1. Every accepted job reached a successful terminal state.
    bad = [f for f in finals if not f["terminal"]
           or f["state"] not in ("done", "converged")]
    if bad:
        raise AssertionError(f"non-terminal or failed jobs: {bad[:3]}")
    # 2. No job executed more than once anywhere in the fleet: summed
    #    over every replica's job table, each spec key ran exactly once.
    executions = {}
    for gateway in gateways:
        for job in gateway.jobs():
            executions[job.key] = executions.get(job.key, 0) + job.attempts
    multi = {k: n for k, n in executions.items() if n > 1}
    if multi:
        raise AssertionError(f"double-run jobs: {multi}")
    # 3. Duplicate resubmissions fold onto the stored result, instantly.
    for seed in SEEDS[:min(N_DUPS, N_JOBS)]:
        view = client.submit(make_spec(seed))
        if not (view["deduped"] and view["terminal"]
                and view["attempts"] == 0):
            raise AssertionError(f"duplicate of seed {seed} re-ran: {view}")


def identity_sample(client: FleetClient, finals) -> dict:
    """Draws for the first few seeds, for cross-fleet-size comparison."""
    by_key = {f["key"]: f for f in finals}
    sample = {}
    for seed in SEEDS[:IDENTITY_SAMPLE]:
        key = make_spec(seed).key()
        final = by_key.get(key)
        if final is None:
            continue
        result = client.result(final["job_id"], include_draws=True)
        sample[key] = GatewayClient.draws(result)
    return sample


def run_fleet_size(n_replicas: int) -> tuple:
    root = Path(tempfile.mkdtemp(prefix=f"fleet-bench-{n_replicas}-"))
    stack, gateways = boot_fleet(n_replicas, root)
    # A fine poll so observation lag does not mask pipeline throughput.
    client = FleetClient([g.url for g in gateways], poll_interval=0.05)
    try:
        wall, latencies, finals = drive(client, N_JOBS, N_THREADS)
        assert_invariants(gateways, finals, client)
        draws = identity_sample(client, finals)
        ordered = sorted(latencies)

        def pct(q):
            return 1e3 * ordered[min(len(ordered) - 1,
                                     int(q * len(ordered)))]

        row = {
            "replicas": n_replicas,
            "shards": N_SHARDS,
            "jobs": N_JOBS,
            "throughput_jobs_per_s": N_JOBS / wall,
            "wall_s": wall,
            "p50_ms": pct(0.50),
            "p95_ms": pct(0.95),
            "p99_ms": pct(0.99),
        }
        return row, draws
    finally:
        for server, gateway in stack:
            gateway.stop()
            server.__exit__(None, None, None)
        shutil.rmtree(root, ignore_errors=True)


def measure_all() -> list:
    rows = []
    reference_draws = None
    for n_replicas in REPLICA_COUNTS:
        row, draws = run_fleet_size(n_replicas)
        rows.append(row)
        if reference_draws is None:
            reference_draws = draws
        else:
            # Bit-identity across fleet sizes: sharding must not change
            # a single posterior draw.
            for key, expected in reference_draws.items():
                np.testing.assert_array_equal(
                    draws[key], expected,
                    err_msg=f"{n_replicas}-replica draws diverged ({key})",
                )
    return rows


def scaling_ratio(rows: list) -> float:
    by_n = {row["replicas"]: row["throughput_jobs_per_s"] for row in rows}
    return by_n[4] / by_n[1]


def report(rows: list) -> None:
    print(f"{'replicas':>8s} {'jobs/s':>8s} {'wall s':>8s} "
          f"{'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s}")
    for row in rows:
        print(
            f"{row['replicas']:8d} {row['throughput_jobs_per_s']:8.2f} "
            f"{row['wall_s']:8.1f} {row['p50_ms']:8.0f} "
            f"{row['p95_ms']:8.0f} {row['p99_ms']:8.0f}"
        )
    print(f"4-vs-1 throughput scaling: {scaling_ratio(rows):.2f}x "
          f"(floor {SCALING_FLOOR:.1f}x, service floor {SERVICE_MS:.0f} ms)")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "service_ms": SERVICE_MS,
        "jobs": N_JOBS,
        "threads": N_THREADS,
        "shards": N_SHARDS,
        "scaling_4v1": round(scaling_ratio(rows), 2),
        "configs": {
            str(row["replicas"]): {
                "throughput_jobs_per_s": round(
                    row["throughput_jobs_per_s"], 3
                ),
                "p50_ms": round(row["p50_ms"], 1),
                "p95_ms": round(row["p95_ms"], 1),
                "p99_ms": round(row["p99_ms"], 1),
            }
            for row in rows
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def scaling_row(rows: list) -> list:
    """The one gated number of a load run, as a checkable row."""
    return [{"workload": "4-vs-1 scaling", "speedup": scaling_ratio(rows)}]


#: ``--check``: 4 replicas still scale >=2x and hold the baseline floor.
CHECK = BaselineCheck(
    BASELINE_PATH, "fleet throughput scaling",
    floor=lambda base: max(SCALING_FLOOR, REGRESSION_FLOOR * (base or 0.0)),
    values=lambda doc: {"4-vs-1 scaling": doc["scaling_4v1"]},
    derive=scaling_row,
)


def test_gateway_load_scaling():
    """Pytest entry: the scaling bar plus every load-run invariant."""
    rows = measure_all()
    report(rows)
    assert scaling_ratio(rows) >= SCALING_FLOOR


if __name__ == "__main__":
    main(measure_all, report, CHECK, write_baseline)
