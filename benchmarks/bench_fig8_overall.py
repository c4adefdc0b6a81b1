"""Figure 8 — overall speedup of the paper's techniques.

Convergence detection (Section VI-A) + platform scheduling (Section V-B)
against the naive baseline (full user budgets, 4 chains on 4 Broadwell
cores). The paper reports a 5.8x average speedup (6.2x for the energy
oracle); the reproduction should land in the same multi-x band, with every
workload at >= 1x and the biggest wins on the most over-budgeted workloads.
"""

import numpy as np
from conftest import print_table

from repro.core.pipeline import evaluate_overall


def test_fig8_overall_speedup(runner, benchmark, claim):
    rows_data = benchmark.pedantic(
        lambda: evaluate_overall(runner), rounds=1, iterations=1
    )
    rows = [
        f"{r.name:<10s} {r.platform:>10s} {r.baseline_seconds:>9.1f} "
        f"{r.optimized_seconds:>9.1f} {r.speedup:>7.2f} "
        f"{str(r.converged_iteration):>6s} {100 * r.iterations_saved_fraction:>7.1f}"
        for r in rows_data
    ]
    header = (
        f"{'workload':<10s} {'platform':>10s} {'base s':>9s} {'opt s':>9s} "
        f"{'speedup':>7s} {'conv':>6s} {'saved%':>7s}"
    )
    average = float(np.mean([r.speedup for r in rows_data]))
    print_table(
        "Figure 8: overall speedup over the Broadwell baseline",
        header, rows,
        footer=f"average speedup: {average:.2f}x (paper: 5.8x)",
    )

    # Every workload at least breaks even.
    assert all(r.speedup >= 0.999 for r in rows_data)
    # Most workloads converge early enough for elision to fire.
    assert sum(r.converged_iteration is not None for r in rows_data) >= 8
    # Multi-x average: the same story as the paper's 5.8x.
    unconverged = sorted(
        r.name for r in rows_data if r.converged_iteration is None
    )
    claim("Fig. 8", "average speedup over the Broadwell baseline", "5.8x",
          average, ">", 2.5, fmt="{:.2f}x",
          note=f"{', '.join(unconverged) or 'none'} never converge "
               "(ROADMAP item 27)")
    claim("Fig. 8", "average speedup with the energy oracle", "6.2x",
          note="nothing computes it: OverallSpeedup.oracle_speedup, which "
               "only a test read, was deleted; fig. 6 finds an oracle per "
               "workload, not a suite-wide speedup")
    # LLC-bound workloads run on Broadwell, the rest on Skylake.
    placement = {r.name: r.platform for r in rows_data}
    for name in ("ad", "survival", "tickets"):
        assert placement[name] == "Broadwell"
    for name in ("votes", "ode", "disease"):
        assert placement[name] == "Skylake"
