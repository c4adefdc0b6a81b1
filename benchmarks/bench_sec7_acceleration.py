"""Section VII — implications for future acceleration.

Quantifies the paper's qualitative arguments on the reproduction's own
computation graphs:

* the distribution census (VII-A): Gaussian and Cauchy are the most popular
  families, so erf/atan special functional units pay off;
* computation parallelism: the work/span of each workload's profiled tape
  (``instructions_per_work_unit`` over ``tape_span_instructions``) gives the
  SIMD speedup bound;
* the projected SIMD+SFU accelerator, its four engines running the four
  chains at once, beats one Skylake core running them in turn on every
  workload, the two whose working sets spill its scratchpad included.
"""

from conftest import print_table

from repro.arch.accelerator import AcceleratorConfig, AcceleratorModel
from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.suite import workload_names
from repro.suite.analysis import distribution_census, special_function_requirements


def test_sec7_distribution_census(benchmark, claim):
    census, needs = benchmark.pedantic(
        lambda: (distribution_census(), special_function_requirements()),
        rounds=1, iterations=1,
    )
    rows = [f"{family:<14s} {count:>4d}"
            for family, count in sorted(census.items(), key=lambda kv: -kv[1])]
    rows.append("-" * 20)
    rows.extend(f"SFU {fn:<10s} {count:>4d} workloads"
                for fn, count in sorted(needs.items(), key=lambda kv: -kv[1]))
    print_table(
        "Section VII-A: distribution census across BayesSuite",
        f"{'family':<14s} {'uses':>4s}", rows,
    )
    # The paper's finding: Gaussian and Cauchy are the most popular.
    ranked = sorted(census, key=census.get, reverse=True)
    claim("Sec. VII-A", "most used distribution family", "Gaussian",
          ranked[0], "==", "gaussian")
    assert "cauchy" in ranked[:3]


def test_sec7_accelerator_projection(runner, benchmark, claim):
    def build():
        machine = MachineModel(SKYLAKE)
        accel = AcceleratorModel(AcceleratorConfig())
        rows = []
        speedups = {}
        for name in workload_names():
            profile = runner.profile(name)
            parallelism = (profile.instructions_per_work_unit
                           / profile.tape_span_instructions)
            projection = accel.project(profile)
            cpu_iter = machine.job_seconds(
                profile, [profile.work_per_iteration] * profile.default_chains,
                n_cores=1,
            )
            speedup = projection.speedup_over(cpu_iter)
            speedups[name] = (speedup, parallelism, projection)
            rows.append(
                f"{name:<10s} {parallelism:>8.1f} "
                f"{projection.cycles_per_work_unit:>12.0f} "
                f"{speedup:>8.2f} {'fits' if projection.compute_bound else 'spills':>7s}"
            )
        return rows, speedups

    rows, speedups = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        "Section VII: SIMD+SFU accelerator projection (vs 1 Skylake core)",
        f"{'workload':<10s} {'work/span':>8s} {'cyc/grad':>12s} "
        f"{'speedup':>8s} {'memory':>7s}",
        rows,
    )
    # Graph parallelism is real everywhere, and wide graphs project clear
    # wins. The narrow ones (the ODE integrator's dependency chain, votes,
    # disease, racial: work/span 8-10) gain 3-4x where the widest (work/span
    # above 60) gain 12-17x: the diversity that drives the paper's "need for
    # programmability" point.
    for name, (speedup, parallelism, projection) in speedups.items():
        assert parallelism > 1.0, name
        if parallelism >= 8.0:
            assert speedup > 1.5, name
    wins = sum(s > 1.0 for s, _, _ in speedups.values())
    claim("Sec. VII", "workloads the projected accelerator runs faster "
          "than one Skylake core", "SIMD + SFU pays off", wins, ">=", 7)
    # The default 16 MB scratchpad holds most aggregate working sets with 4
    # engines active; the big LLC-bound workloads spill.
    fits = sum(p.compute_bound for _, _, p in speedups.values())
    assert fits >= 6
