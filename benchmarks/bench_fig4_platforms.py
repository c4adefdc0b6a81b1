"""Figure 4 — platform comparison at 4 cores: Skylake vs Broadwell speedup,
IPC, and LLC MPKI, plus the Section V-B scheduling result.

Paper shapes to hold: Skylake (higher frequency) wins on every workload
except ad, survival, and tickets, where Broadwell's 40 MB LLC wins;
scheduling each workload to its predicted-best platform yields ~1.16x over
the all-Broadwell baseline.
"""

import numpy as np
from conftest import print_table

from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.core.extrapolation import full_budget_works
from repro.core.scheduler import PlatformScheduler
from repro.suite import workload_names

LLC_BOUND = ("ad", "survival", "tickets")


def build_fig4(runner):
    sky = MachineModel(SKYLAKE)
    bdw = MachineModel(BROADWELL)
    scheduler = runner.scheduler()
    rows = []
    jobs = []
    per_workload = {}
    for name in workload_names():
        profile = runner.profile(name)
        works = full_budget_works(runner.run(name), profile)
        t_sky = sky.job_seconds(profile, works, n_cores=4)
        t_bdw = bdw.job_seconds(profile, works, n_cores=4)
        c_sky = sky.counters(profile, 4, 4)
        c_bdw = bdw.counters(profile, 4, 4)
        job = scheduler.schedule(profile, works, n_cores=4)
        jobs.append(job)
        per_workload[name] = (t_sky, t_bdw, c_sky, c_bdw, job)
        rows.append(
            f"{name:<10s} {t_bdw / t_sky:>8.2f} "
            f"{c_sky.ipc:>6.2f} {c_bdw.ipc:>6.2f} "
            f"{c_sky.llc_mpki:>7.2f} {c_bdw.llc_mpki:>7.2f} "
            f"{job.platform.codename:>10s}"
        )
    return rows, per_workload, jobs


def test_fig4_platform_comparison(runner, benchmark, claim):
    rows, per_workload, jobs = benchmark.pedantic(
        build_fig4, args=(runner,), rounds=1, iterations=1
    )
    header = (
        f"{'workload':<10s} {'sky/bdw':>8s} {'IPC.s':>6s} {'IPC.b':>6s} "
        f"{'LLC.s':>7s} {'LLC.b':>7s} {'chosen':>10s}"
    )
    scheduled = PlatformScheduler.average_speedup(jobs)
    print_table(
        "Figure 4: Skylake vs Broadwell at 4 cores + scheduled placement",
        header, rows,
        footer=f"scheduled-vs-Broadwell average speedup: {scheduled:.2f}x "
               f"(paper: 1.16x)",
    )

    for name, (t_sky, t_bdw, c_sky, c_bdw, job) in per_workload.items():
        if name in LLC_BOUND:
            assert t_bdw < t_sky, name          # big LLC wins
            assert c_bdw.llc_mpki < c_sky.llc_mpki, name
            assert job.platform is BROADWELL, name
        else:
            assert t_sky < t_bdw, name          # frequency wins
            assert job.platform is SKYLAKE, name

    # Paper: 1.16x average; accept the same ballpark.
    claim("Fig. 4", "scheduled placement's speedup over all-Broadwell",
          "1.16x", scheduled, "between", (1.05, 1.4), fmt="{:.2f}x")

    # tickets still misses on Broadwell (it wants > 10 MB/core).
    assert per_workload["tickets"][3].llc_mpki > 0.5
