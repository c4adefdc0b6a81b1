"""Figure 1 — single-core runtime statistics of BayesSuite on Skylake.

Reproduces panels (a) IPC, (b) i-cache MPKI, (c) branch MPKI, (d) LLC MPKI,
(e) average memory bandwidth, and (f) total execution time (at the original
user iteration budgets).

Paper shapes to hold: IPC between ~1.5 and ~2.7 with high diversity (votes
high, tickets low); i-cache and branch MPKI low everywhere except tickets'
i-cache; LLC MPKI insignificant except tickets; bandwidth hundreds of MB/s
except the large-data workloads; tickets/memory/disease/ode execution times
much larger (an artifact of their iteration budgets, Section IV-A).
"""

from conftest import print_table

from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.core.extrapolation import full_budget_works
from repro.suite import workload_names


def build_fig1(runner):
    machine = MachineModel(SKYLAKE)
    rows = []
    stats = {}
    for name in workload_names():
        profile = runner.profile(name)
        result = runner.run(name)
        counters = machine.counters(profile, n_cores=1, n_chains=4)
        works = full_budget_works(result, profile)
        exec_time = machine.job_seconds(profile, works, n_cores=1)
        stats[name] = (counters, exec_time)
        rows.append(
            f"{name:<10s} {counters.ipc:>5.2f} {counters.icache_mpki:>8.2f} "
            f"{counters.branch_mpki:>8.2f} {counters.llc_mpki:>8.2f} "
            f"{counters.bandwidth_mbs:>10.0f} {exec_time:>10.1f}"
        )
    return rows, stats


def test_fig1_singlecore_characterization(runner, benchmark, claim):
    rows, stats = benchmark.pedantic(
        build_fig1, args=(runner,), rounds=1, iterations=1
    )
    header = (
        f"{'workload':<10s} {'IPC':>5s} {'I$ MPKI':>8s} {'br MPKI':>8s} "
        f"{'LLC MPKI':>8s} {'BW MB/s':>10s} {'time s':>10s}"
    )
    print_table("Figure 1: single-core runtime statistics (Skylake)", header, rows)

    counters = {name: c for name, (c, _) in stats.items()}
    times = {name: t for name, (_, t) in stats.items()}

    # (a) IPC: efficient microarchitecture use, wide diversity.
    ipcs = [c.ipc for c in counters.values()]
    assert min(ipcs) > 1.2
    assert max(ipcs) < 3.0
    assert counters["votes"].ipc > 1.2 * counters["tickets"].ipc

    # (b) i-cache: tickets is the outlier.
    worst_icache = max(counters, key=lambda n: counters[n].icache_mpki)
    assert worst_icache == "tickets"

    # (c) branch MPKI low everywhere.
    assert all(c.branch_mpki < 3.0 for c in counters.values())

    # (d) LLC MPKI insignificant except tickets.
    claim("Fig. 1", "tickets' LLC MPKI, one core", "7.7",
          counters["tickets"].llc_mpki, ">", 3.0, fmt="{:.2f}")
    others = [c.llc_mpki for n, c in counters.items() if n != "tickets"]
    claim("Fig. 1", "highest LLC MPKI of the other nine, one core",
          "insignificant", max(others), "<", 1.0, fmt="{:.2f}")

    # (e) bandwidth: hundreds of MB/s for most workloads.
    small = [c.bandwidth_mbs for n, c in counters.items()
             if n not in ("tickets", "ad", "survival", "memory")]
    assert max(small) < 1000.0

    # (f) the long-running four (algorithmic artifact of their budgets).
    for name in ("tickets", "memory", "disease", "ode"):
        assert times[name] > times["votes"]
