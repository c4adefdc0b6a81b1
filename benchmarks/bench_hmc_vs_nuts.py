"""Section IV-A — HMC's characteristics are very similar to NUTS.

The paper reports HMC IPC 1.5-2.7, tickets LLC MPKI 8.3 with others below 1,
and then drops HMC from the remaining analysis. This bench runs both engines
on representative workloads and compares the simulated counters (identical:
they depend on the working set, which both engines share) and the measured
per-iteration work.
"""

import numpy as np
from conftest import print_table

from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.arch.profile import profile_workload
from repro.inference import HMC, NUTS
from repro.suite import load_workload

WORKLOADS = ("12cities", "votes", "survival")


def build_comparison():
    machine = MachineModel(SKYLAKE)
    rows = []
    checks = []
    for name in WORKLOADS:
        model = load_workload(name, scale=0.5)
        nuts_profile = profile_workload(
            model, calibration_iterations=30, n_chains=2,
            sampler=NUTS(max_tree_depth=6),
        )
        hmc_profile = profile_workload(
            model, calibration_iterations=30, n_chains=2,
            sampler=HMC(n_leapfrog=16),
        )
        c_nuts = machine.counters(nuts_profile, 1, 4)
        c_hmc = machine.counters(hmc_profile, 1, 4)
        rows.append(
            f"{name:<10s} {c_nuts.ipc:>6.2f} {c_hmc.ipc:>6.2f} "
            f"{c_nuts.llc_mpki:>7.2f} {c_hmc.llc_mpki:>7.2f} "
            f"{nuts_profile.work_per_iteration:>8.1f} "
            f"{hmc_profile.work_per_iteration:>8.1f}"
        )
        checks.append((c_nuts, c_hmc))
    return rows, checks


def test_hmc_similar_to_nuts(benchmark, claim):
    rows, checks = benchmark.pedantic(build_comparison, rounds=1, iterations=1)
    header = (
        f"{'workload':<10s} {'IPC.n':>6s} {'IPC.h':>6s} {'LLC.n':>7s} "
        f"{'LLC.h':>7s} {'work.n':>8s} {'work.h':>8s}"
    )
    print_table(
        "Section IV-A: HMC vs NUTS single-core characteristics", header, rows
    )
    # Same model, same working set: near-identical hardware behaviour.
    claim("Sec. IV-A", "largest IPC gap, HMC against NUTS", "very similar",
          max(abs(c_nuts.ipc - c_hmc.ipc) for c_nuts, c_hmc in checks),
          "<", 0.3, fmt="{:.2f}")
    claim("Sec. IV-A", "largest LLC MPKI gap, HMC against NUTS",
          "very similar",
          max(abs(c_nuts.llc_mpki - c_hmc.llc_mpki) for c_nuts, c_hmc in checks),
          "<", 1.0, fmt="{:.2f}")
