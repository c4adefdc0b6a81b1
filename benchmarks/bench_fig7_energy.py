"""Figure 7 — energy savings of convergence detection on both platforms.

For every workload and both Table II platforms, the energy of the best
detected design point is compared with the original user setting. The paper
reports ~70% average savings across 10 workloads x 2 platforms.
"""

import numpy as np
from conftest import print_table

from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.core.dse import DesignSpaceExplorer
from repro.core.elision import StopRule
from repro.suite import workload_names


def build_fig7(runner):
    detector = StopRule(check_interval=20)
    savings = {}
    for platform in (SKYLAKE, BROADWELL):
        explorer = DesignSpaceExplorer(platform, detector=detector)
        for name in workload_names():
            points = explorer.explore(runner.profile(name), runner.run(name))
            savings[(name, platform.codename)] = (
                explorer.energy_saving_fraction(points)
            )
    return savings


def test_fig7_energy_savings(runner, benchmark, claim):
    savings = benchmark.pedantic(build_fig7, args=(runner,), rounds=1, iterations=1)
    rows = []
    for name in workload_names():
        sky = savings[(name, "Skylake")]
        bdw = savings[(name, "Broadwell")]
        rows.append(f"{name:<10s} {100 * sky:>9.1f} {100 * bdw:>10.1f}")
    average = float(np.mean(list(savings.values())))
    print_table(
        "Figure 7: energy savings of convergence detection (%)",
        f"{'workload':<10s} {'Skylake %':>9s} {'Broadwell %':>10s}",
        rows,
        footer=f"average saving: {100 * average:.1f}% (paper: ~70%)",
    )

    converged = [s for s in savings.values() if s > 0.0]
    # Nearly all (workload, platform) pairs converge and save energy.
    assert len(converged) >= 16
    # Average saving is substantial, in the paper's ballpark.
    unsaved = sorted({name for (name, _), s in savings.items() if s <= 0.0})
    claim("Fig. 7", "average energy saving, 10 workloads x 2 platforms",
          "70 %", average, ">", 0.45, fmt="{:.1%}",
          note=f"{', '.join(unsaved) or 'none'} never stop, saving nothing "
               "(ROADMAP item 27)")
