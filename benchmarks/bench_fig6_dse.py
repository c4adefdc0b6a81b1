"""Figure 6 — design-space exploration case studies on Skylake.

Four representative workloads (ad and survival: LLC-bound; ode and memory:
compute-bound), sweeping cores x chains x iterations. Shapes to hold: the
original user settings (blue stars) sit far from the energy oracle (red
stars); the convergence-detection points (triangles) land much closer; the
oracle always uses 1-2 chains and few iterations — infeasible without ground
truth. A point's result matches the ground truth when it is inside
``posterior_band`` of the truth run, the band served answers are judged by;
``|z|`` is its largest z-score, against the bound ``z``.
"""

from conftest import print_table

from repro.arch.platforms import SKYLAKE
from repro.core.dse import DesignSpaceExplorer
from repro.core.elision import StopRule

CASE_STUDIES = ("ad", "survival", "ode", "memory")


def build_fig6(runner):
    explorer = DesignSpaceExplorer(
        SKYLAKE, detector=StopRule(check_interval=20)
    )
    all_points = {}
    for name in CASE_STUDIES:
        points = explorer.explore(
            runner.profile(name), runner.run(name),
            ground_truth=runner.ground_truth(name),
        )
        all_points[name] = points
    return explorer, all_points


def test_fig6_design_space(runner, benchmark):
    explorer, all_points = benchmark.pedantic(
        build_fig6, args=(runner,), rounds=1, iterations=1
    )
    header = (
        f"{'workload':<10s} {'kind':<9s} {'cores':>5s} {'chains':>6s} "
        f"{'iters':>6s} {'latency s':>10s} {'energy J':>10s} {'|z|':>6s} {'z':>5s}"
    )
    rows = []
    for name, points in all_points.items():
        for kind in ("user", "detected", "oracle"):
            for p in explorer.select(points, kind):
                rows.append(
                    f"{name:<10s} {p.kind:<9s} {p.n_cores:>5d} {p.n_chains:>6d} "
                    f"{p.iterations:>6d} {p.latency_s:>10.2f} {p.energy_j:>10.0f} "
                    f"{p.band.max_z:>6.2f} {p.band.z:>5.2f}"
                )
    print_table("Figure 6: DSE case studies (Skylake)", header, rows)

    for name, points in all_points.items():
        user = explorer.select(points, "user")[0]
        detected = explorer.select(points, "detected")
        oracle = explorer.select(points, "oracle")
        assert detected, f"{name}: no convergence detected"
        assert oracle, f"{name}: no oracle point"
        # Detection needs no ground truth, and its answers still match it.
        assert all(p.acceptable() for p in detected), name
        best_detected = min(detected, key=lambda p: p.energy_j)
        # Triangles land between the user setting and the oracle.
        assert best_detected.energy_j < user.energy_j, name
        assert oracle[0].energy_j <= best_detected.energy_j * 1.001, name
        # The oracle prefers few chains (paper finding) and never needs more
        # than the user budget.
        assert oracle[0].n_chains <= 2, name
        assert oracle[0].iterations <= user.iterations, name
        assert oracle[0].energy_j < 0.6 * user.energy_j, name
