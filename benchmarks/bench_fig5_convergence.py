"""Figure 5 — the convergence process of 12cities.

R-hat (blue line) fluctuates and crosses below 1.1 long before the budget is
exhausted; the KL divergence to ground truth (green line) decreases with
iterations and is already minimal at the detection point. The paper finds
12cities converged at 600 of 2000 iterations, eliding ~70% of sampling, with
latency savings (~53%) smaller than iteration savings because of chain
imbalance.
"""

import numpy as np
from conftest import print_table

from repro.core.elision import StopRule
from repro.core.extrapolation import full_budget_works
from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE


def build_fig5(runner):
    result = runner.run("12cities")
    truth = runner.ground_truth("12cities")  # (chains, draws, dim)
    truth = truth.reshape(-1, truth.shape[-1])
    report = StopRule(check_interval=20).replay(result, ground_truth=truth)
    return result, report


def test_fig5_convergence_process(runner, benchmark):
    result, report = benchmark.pedantic(
        build_fig5, args=(runner,), rounds=1, iterations=1
    )
    assert report.converged, (report.checkpoints, report.trace)
    rows = [
        f"{it:>6d} {rhat:>8.3f} {kl:>10.4f}"
        + ("   <-- converged (R-hat < 1.1, ESS floor met)" if it == report.converged_iteration else "")
        for it, rhat, kl in zip(
            report.checkpoints, report.trace, report.kl_trace
        )
    ]
    header = f"{'iter':>6s} {'R-hat':>8s} {'KL':>10s}"

    profile = runner.profile("12cities")
    machine = MachineModel(SKYLAKE)
    full = machine.job_seconds(
        profile, full_budget_works(result, profile), n_cores=4
    )
    elided = machine.job_seconds(
        profile,
        full_budget_works(result, profile, kept_iterations=report.converged_iteration),
        n_cores=4,
    )
    kept_full = profile.default_iterations - profile.default_warmup
    saved_iters = 1.0 - report.converged_iteration / kept_full
    saved_latency = 1.0 - elided / full
    print_table(
        "Figure 5: convergence process of 12cities",
        header, rows,
        footer=(
            f"converged at kept-iteration {report.converged_iteration} of "
            f"{kept_full} -> {100 * saved_iters:.0f}% iterations elided, "
            f"{100 * saved_latency:.0f}% latency saved"
        ),
    )

    # The KL at (and after) the detection point is near its floor.
    idx = report.checkpoints.index(report.converged_iteration)
    kl = np.asarray(report.kl_trace)
    assert kl[idx] < 3.0 * (np.nanmin(kl) + 1e-6) + 0.05
    # Substantial elision, and latency savings below iteration savings.
    assert saved_iters > 0.4
    assert 0.0 < saved_latency <= saved_iters + 0.05
    # Chain latency imbalance exists (paper: ratio 1.7 for 12cities).
    works = result.chain_work
    assert works.max() / works.min() > 1.01
