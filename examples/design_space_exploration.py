"""Design-space exploration: find energy-efficient sampling configurations.

Reproduces the paper's Section VI-B study for one workload: sweep cores x
chains x iterations on Skylake, locate the energy oracle (cheapest
configuration whose posterior still matches ground truth: inside
``posterior_band`` of a longer run, every parameter's |z| within the bound
``z``), and show that convergence detection gets close to it without needing
the ground truth.

Run:  python examples/design_space_exploration.py
"""

from repro.arch.platforms import SKYLAKE
from repro.arch.profile import profile_workload
from repro.core.dse import DesignSpaceExplorer
from repro.core.elision import StopRule
from repro.inference import NUTS, run_chains
from repro.suite import load_workload

WORKLOAD = "ad"


def main():
    model = load_workload(WORKLOAD, scale=0.5)
    sampler = NUTS(max_tree_depth=6)

    print(f"profiling and sampling {WORKLOAD}...")
    profile = profile_workload(model, calibration_iterations=30, sampler=sampler)
    result = run_chains(model, sampler, n_iterations=300, n_chains=4, seed=2)
    truth = run_chains(model, sampler, n_iterations=600, n_chains=4,
                       seed=1002).stacked(second_half_only=True)

    explorer = DesignSpaceExplorer(
        SKYLAKE, detector=StopRule(check_interval=20)
    )
    points = explorer.explore(profile, result, ground_truth=truth)

    print(f"\n{'kind':<9s} {'cores':>5s} {'chains':>6s} {'iters':>6s} "
          f"{'latency s':>10s} {'energy J':>9s} {'|z|':>6s} {'z':>5s}")
    for kind in ("user", "detected", "oracle"):
        for p in explorer.select(points, kind):
            print(f"{p.kind:<9s} {p.n_cores:>5d} {p.n_chains:>6d} "
                  f"{p.iterations:>6d} {p.latency_s:>10.2f} "
                  f"{p.energy_j:>9.0f} {p.band.max_z:>6.2f} {p.band.z:>5.2f}")

    saving = explorer.energy_saving_fraction(points)
    print(f"\nenergy saved by convergence detection vs the user setting: "
          f"{100 * saving:.0f}%")
    oracle = explorer.select(points, "oracle")[0]
    print(f"energy oracle uses {oracle.n_chains} chain(s) x "
          f"{oracle.iterations} iterations — unreachable without ground "
          f"truth, which is the paper's point.")


if __name__ == "__main__":
    main()
