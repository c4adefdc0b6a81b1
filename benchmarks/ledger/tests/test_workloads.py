"""``--seed`` is the only source of the job list."""

from workloads import N_CLIENTS, POOL_BASE, WORKLOADS


def _specs(plan):
    warmups, clients = plan
    return warmups, [[(job.spec, job.repeat_of) for job in jobs] for jobs in clients]


def test_same_seed_same_jobs_other_seed_other_jobs():
    for workload in WORKLOADS.values():
        n = workload.n_jobs(10)
        assert _specs(workload.plan(7, n)) == _specs(workload.plan(7, n))
        others = [_specs(workload.plan(seed, n)) for seed in range(8, 16)]
        assert any(other != _specs(workload.plan(7, n)) for other in others)
    many = WORKLOADS["tier-fast"]
    assert _specs(many.plan(7, 260)) != _specs(many.plan(8, 260))


def test_job_counts_scale_with_seconds_and_keep_their_floor():
    for workload in WORKLOADS.values():
        assert workload.n_jobs(0.1) == workload.min_jobs
        assert workload.n_jobs(1000) == round(1000 * workload.jobs_per_second)
        _, clients = workload.plan(3, 11)
        assert len(clients) == N_CLIENTS
        assert sum(len(jobs) for jobs in clients) == 11


def test_only_the_seed_and_family_vary_within_a_workload():
    for workload in WORKLOADS.values():
        warmups, clients = workload.plan(5, 40)
        for spec in [job.spec for jobs in clients for job in jobs]:
            assert spec["workload"] in workload.families
            assert {k: v for k, v in spec.items() if k not in ("workload", "seed")} \
                == workload.shape
        # A warm-up is the same job on a smaller budget: what it warms is
        # keyed on family, scale, engine and mode.
        assert [spec["workload"] for spec in warmups] == list(workload.families)
        for spec in warmups:
            changed = {k for k, v in workload.shape.items() if spec[k] != v}
            assert changed <= {"n_iterations"}


def test_exact_workloads_run_the_same_pool_in_a_seed_chosen_order():
    for name in ("small-exact", "data-exact", "pool-mh"):
        workload = WORKLOADS[name]
        orders = set()
        for seed in range(1, 9):
            _, clients = workload.plan(seed, 4)
            seeds = [job.spec["seed"] for jobs in clients for job in jobs]
            assert sorted(seeds) == [POOL_BASE + 1 + i for i in range(4)]
            orders.add(tuple(seeds))
        assert len(orders) > 1
        warmups = {str(workload.plan(seed, 4)[0]) for seed in range(1, 9)}
        assert len(warmups) == 1  # set-up is the same work whatever the seed


def test_repeats_name_an_earlier_fresh_job_of_the_same_client():
    workload = WORKLOADS["tier-fast"]
    _, clients = workload.plan(11, 600)
    repeats = total = 0
    for jobs in clients:
        for position, job in enumerate(jobs):
            total += 1
            if job.repeat_of is None:
                continue
            repeats += 1
            assert job.repeat_of < position
            assert jobs[job.repeat_of].repeat_of is None
            assert jobs[job.repeat_of].spec == job.spec
    assert 0.3 < repeats / total < 0.5
    fresh = [job.spec["seed"] for jobs in clients for job in jobs if job.repeat_of is None]
    assert len(set(fresh)) == len(fresh)  # every fresh job is a new key
    for name in ("small-exact", "data-exact", "pool-mh"):
        _, exact_clients = WORKLOADS[name].plan(11, 20)
        assert all(job.repeat_of is None for jobs in exact_clients for job in jobs)
