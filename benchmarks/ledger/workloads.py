"""The four workloads: job shapes, and the job list a seed expands to.

Each workload makes a different layer of the stack do most of the work
(``BENCHMARK.json`` and ``README.md`` say which, and why), so a change to
one layer has one workload where it must show and others where it must
not. Job *shapes* are fixed here; the number of timed jobs scales with
``--seconds`` through ``jobs_per_second``, the rate the reference 2-core
box serves that shape at, so the timed phase lasts about ``--seconds``
there. The program never sees a workload name or the seed — only the
generated :class:`~repro.serve.job.JobSpec` fields.

What a sampling job costs hangs on its seed (how deep NUTS trees grow,
where elision stops it: +-8 % per job, +-25 % in ESS), and a run holds only
a few such jobs. So the exact workloads draw their job seeds from a fixed
pool — the first ``n`` of ``POOL_BASE + 1, +2, ...`` — and ``--seed``
decides the order they arrive in and which client sends which: another
seed deals the same jobs out another way, all of them the same amount of
work and of ESS. A lucky draw would otherwise read as a faster program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Closed loop: each client submits its next job when the last one is
#: answered. The gateway drains one job at a time, so two clients keep it
#: always busy and make exactly one job's queue wait visible.
N_CLIENTS = 2

FLEET_REPLICAS = 2
FLEET_SHARDS = 4
#: Repeats are dealt per block of this many of a client's jobs.
REPEAT_BLOCK = 5
#: Job seeds of a ``fixed_pool`` workload count up from here.
POOL_BASE = 1000


@dataclass(frozen=True)
class PlannedJob:
    """One entry of a client's job list."""

    spec: Dict
    #: Index (in the same client's list) of the job this one repeats.
    repeat_of: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Spec fields shared by every job (the shape); family and seed vary.
    shape: Dict
    families: Tuple[str, ...]
    jobs_per_second: float
    min_jobs: int
    smoke_jobs: int
    n_workers: int = 2
    fleet: bool = False
    #: Spec fields the warm-up jobs override: the same family, scale, engine
    #: and mode — all that the caches a warm-up fills are keyed on — on a
    #: budget small enough to set up ``setups`` times in a run.
    warmup_shape: Optional[Dict] = None
    #: Boots + warm-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Timed job seeds come from the fixed pool (see the module docstring).
    fixed_pool: bool = True
    #: Jobs in every ``REPEAT_BLOCK`` that repeat a key the same client
    #: already had answered (store/dedup hits).
    repeats_per_block: int = 0
    #: Whether one served spec is re-run in-process and compared bit for bit.
    exact: bool = True

    def n_jobs(self, seconds: float) -> int:
        """Timed jobs for a run of ``seconds``: the same number per client.

        An odd client out would finish early and leave the other's last
        jobs without queue wait — and *which* client, so which latencies,
        would hang on a thread race.
        """
        per_client = round(seconds * self.jobs_per_second / N_CLIENTS)
        return max(self.min_jobs, N_CLIENTS * per_client)

    def spec(self, family: str, seed: int) -> Dict:
        return {"workload": family, "seed": seed, **self.shape}

    def plan(self, seed: int, n_jobs: int) -> Tuple[List[Dict], List[List[PlannedJob]]]:
        """(warm-up specs, one job list per client) for ``seed``.

        Each client takes the next job seed as it plans a fresh job.
        Families rotate and repeats fall at seed-chosen places of every
        block, so two seeds differ in *which* jobs run, not in how much
        work the run holds. A repeat names an earlier *fresh* job of the
        same client, which the closed loop guarantees has been answered by
        then.
        """
        rng = random.Random(f"{self.name}/{seed}")
        seeds = rng.sample(range(1, 2**31 - 1), n_jobs + len(self.families))
        if self.fixed_pool:
            # The same jobs whatever the seed, which only deals them out;
            # the warm-ups (popped first) are the same jobs every time.
            seeds = [POOL_BASE + 1 + index for index in range(n_jobs)]
            rng.shuffle(seeds)
            seeds += [POOL_BASE - index for index in range(len(self.families))]
        warmups = [
            {**self.spec(family, seeds.pop()), **(self.warmup_shape or {})}
            for family in self.families
        ]
        clients: List[List[PlannedJob]] = []
        for client in range(N_CLIENTS):
            mine: List[PlannedJob] = []
            fresh: List[int] = []
            rotation = rng.randrange(len(self.families))
            repeats: set = set()
            for position in range(len(range(client, n_jobs, N_CLIENTS))):
                offset = position % REPEAT_BLOCK
                if offset == 0:
                    # Never the block's first place: a client's very first
                    # job has nothing to repeat.
                    repeats = set(rng.sample(
                        range(1, REPEAT_BLOCK), self.repeats_per_block
                    ))
                if offset in repeats:
                    target = rng.choice(fresh)
                    mine.append(PlannedJob(mine[target].spec, repeat_of=target))
                    continue
                family = self.families[(rotation + len(fresh)) % len(self.families)]
                fresh.append(position)
                mine.append(PlannedJob(self.spec(family, seeds.pop())))
            clients.append(mine)
        return warmups, clients


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="small-exact",
            shape=dict(
                scale=0.5, engine="nuts", mode="exact", n_chains=4,
                n_iterations=200, elide=True, checkpoint_interval=50,
            ),
            families=("12cities",),
            jobs_per_second=0.25, min_jobs=2, smoke_jobs=2,
            warmup_shape=dict(n_iterations=40),
        ),
        Workload(
            name="data-exact",
            # Depth 4 caps the trajectory: cost is set by data size, not by
            # how long a tree this seed's adaptation happens to grow.
            shape=dict(
                scale=1.0, engine="nuts", mode="exact", n_chains=4,
                n_iterations=100, engine_options={"max_tree_depth": 4},
            ),
            families=("tickets",),
            jobs_per_second=0.17, min_jobs=2, smoke_jobs=2,
            warmup_shape=dict(n_iterations=10), setups=1,
        ),
        Workload(
            name="pool-mh",
            # A gradient-free engine cannot batch: the job goes to the
            # process pool, two workers for four chains.
            shape=dict(
                scale=0.5, engine="mh", mode="exact", n_chains=4,
                n_iterations=2000, elide=True, checkpoint_interval=500,
            ),
            families=("votes",),
            jobs_per_second=0.2, min_jobs=2, smoke_jobs=2,
            warmup_shape=dict(n_iterations=200),
        ),
        Workload(
            name="tier-fast",
            # 4 chains x 200 iterations -> 400 surrogate draws per answer.
            shape=dict(
                scale=0.5, engine="nuts", mode="fast", n_chains=4,
                n_iterations=200,
            ),
            families=("12cities", "ad", "survival"),
            jobs_per_second=26.0, min_jobs=200, smoke_jobs=40,
            n_workers=1, fleet=True, repeats_per_block=2, exact=False,
            setups=1, fixed_pool=False,
        ),
    )
}
