"""Project BayesSuite workloads onto a future accelerator (paper Sec. VII).

The paper's acceleration discussion made quantitative: read each model's
work/span parallelism off its profiled autodiff tape, census the
distributions to size special functional units, and project per-iteration
latency on a programmable SIMD accelerator with a scratchpad — its engines
running the chains at once — compared against one Skylake core running them
in turn.

Run:  python examples/accelerator_projection.py
"""

from repro.arch.accelerator import AcceleratorConfig, AcceleratorModel
from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.arch.profile import profile_workload
from repro.suite import load_workload
from repro.suite.analysis import distribution_census, special_function_requirements

WORKLOADS = ("votes", "12cities", "survival")


def main():
    print("distribution census (what the SFUs must support):")
    for family, count in sorted(distribution_census().items(),
                                key=lambda kv: -kv[1]):
        print(f"  {family:<14s} {count:>3d} uses")
    print("special functions:", special_function_requirements())

    machine = MachineModel(SKYLAKE)
    configs = [
        AcceleratorConfig(name="simd16", vector_lanes=16, has_sfu=False),
        AcceleratorConfig(name="simd64", vector_lanes=64, has_sfu=False),
        AcceleratorConfig(name="simd64+sfu", vector_lanes=64, has_sfu=True),
    ]

    print(f"\n{'workload':<10s} {'work/span':>9s} " +
          " ".join(f"{c.name:>11s}" for c in configs))
    for name in WORKLOADS:
        model = load_workload(name, scale=0.5)
        profile = profile_workload(model, calibration_iterations=30)
        parallelism = (profile.instructions_per_work_unit
                       / profile.tape_span_instructions)
        cpu_iter = machine.job_seconds(
            profile, [profile.work_per_iteration] * profile.default_chains,
            n_cores=1,
        )
        speedups = []
        for config in configs:
            projection = AcceleratorModel(config).project(profile)
            speedups.append(projection.speedup_over(cpu_iter))
        print(f"{name:<10s} {parallelism:>9.1f} " +
              " ".join(f"{s:>10.2f}x" for s in speedups))

    print("\n(speedups are first-order projections per gradient evaluation; "
          "the paper's point is the *style* — SIMD + special functional "
          "units + scratchpad — not absolute numbers)")


if __name__ == "__main__":
    main()
