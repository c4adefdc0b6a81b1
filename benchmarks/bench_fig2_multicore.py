"""Figure 2 — multicore scaling on Skylake: IPC, LLC MPKI, speedup at 1/2/4
cores with 4 Markov chains.

Paper shapes to hold: ad, survival, and tickets develop frequent LLC misses
and depressed IPC as cores increase and their speedups saturate below ~2;
the compute-bound workloads scale close to linearly (bounded only by chain
imbalance); 4-core speedup is always below 4 because latency is constrained
by the slowest chain.
"""

from conftest import print_table

from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.core.extrapolation import full_budget_works
from repro.suite import workload_names

LLC_BOUND = ("ad", "survival", "tickets")


def build_fig2(runner):
    machine = MachineModel(SKYLAKE)
    rows = []
    metrics = {}
    for name in workload_names():
        profile = runner.profile(name)
        result = runner.run(name)
        works = full_budget_works(result, profile)
        times = {
            cores: machine.job_seconds(profile, works, n_cores=cores)
            for cores in (1, 2, 4)
        }
        counters = {
            cores: machine.counters(profile, n_cores=cores, n_chains=4)
            for cores in (1, 2, 4)
        }
        speedups = {c: times[1] / times[c] for c in (2, 4)}
        metrics[name] = (counters, speedups)
        rows.append(
            f"{name:<10s} "
            f"{counters[1].ipc:>5.2f} {counters[2].ipc:>5.2f} {counters[4].ipc:>5.2f}  "
            f"{counters[1].llc_mpki:>6.2f} {counters[2].llc_mpki:>6.2f} "
            f"{counters[4].llc_mpki:>6.2f}  "
            f"{speedups[2]:>5.2f} {speedups[4]:>5.2f}"
        )
    return rows, metrics


def test_fig2_multicore_scaling(runner, benchmark, claim):
    rows, metrics = benchmark.pedantic(
        build_fig2, args=(runner,), rounds=1, iterations=1
    )
    header = (
        f"{'workload':<10s} {'IPC1':>5s} {'IPC2':>5s} {'IPC4':>5s}  "
        f"{'LLC1':>6s} {'LLC2':>6s} {'LLC4':>6s}  {'spd2':>5s} {'spd4':>5s}"
    )
    print_table(
        "Figure 2: Skylake multicore scaling (4 chains)", header, rows,
        footer="LLC-bound per the paper: ad, survival, tickets",
    )

    for name, (counters, speedups) in metrics.items():
        # Latency constrained by the slowest chain: never a perfect 4x.
        assert speedups[4] < 4.0, name
        if name in LLC_BOUND:
            # Saturating scaling with growing miss rates and falling IPC.
            assert counters[4].llc_mpki > 1.0, name
            assert counters[4].llc_mpki > counters[1].llc_mpki, name
            assert counters[4].ipc < counters[1].ipc, name
        else:
            assert counters[4].llc_mpki < 1.0, name
            assert speedups[4] > 2.5, name

    # Saturating scaling: the paper's three stay below ~2x at 4 cores.
    claim("Fig. 2", "highest 4-core speedup of ad, survival, tickets",
          "< 2 (saturates)", max(metrics[name][1][4] for name in LLC_BOUND),
          "<", 2.4, fmt="{:.2f}x")

    # tickets is the extreme case (paper: 7.7 MPKI at 1 core, ~20 at 4).
    tickets = metrics["tickets"][0]
    assert tickets[1].llc_mpki > 3.0
    assert tickets[4].llc_mpki > 10.0
