"""Section II-B — why the paper characterizes sampling, not variational
inference.

"Variational inference ... does not output posterior distributions as
sampling algorithms do, and does not have guarantees to be asymptotically
exact. They are not as robust as sampling algorithms." This bench quantifies
the trade on two workloads: ADVI is far cheaper in gradient evaluations but
its mean-field posterior falls outside ``posterior_band`` of the NUTS truth
run, the band served answers are judged by. The truth run is trusted only
once it passes the stop rule's thresholds.
"""

from conftest import print_table

import numpy as np

from repro.core.elision import ESS_AT_LEAST, RHAT_BELOW
from repro.diagnostics import max_rhat, min_ess
from repro.diagnostics.mcse import posterior_band, posterior_moments
from repro.inference import ADVI

WORKLOADS = ("12cities", "disease")


def build(runner):
    rows = []
    checks = {}
    for name in WORKLOADS:
        truth = runner.ground_truth(name)  # (chains, draws, dim)
        rhat, ess = max_rhat(truth), min_ess(truth)
        nuts_work = runner.run(name).total_work

        model = runner.model(name)
        rng = np.random.default_rng(21)
        fit = ADVI(n_iterations=1200).fit(model, rng)
        vi_draws = fit.sample(truth.shape[0] * truth.shape[1], rng)
        band = posterior_band(
            posterior_moments(vi_draws[None]), posterior_moments(truth)
        )
        rows.append(
            f"{name:<10s} {rhat:>7.3f} {ess:>9.0f} {nuts_work:>10.0f} "
            f"{fit.n_gradient_evaluations:>9d} {band.max_z:>8.1f} {band.z:>6.2f}"
        )
        checks[name] = (rhat, ess, nuts_work, fit.n_gradient_evaluations, band)
    return rows, checks


def test_vi_vs_nuts_tradeoff(runner, benchmark):
    rows, checks = benchmark.pedantic(build, args=(runner,), rounds=1,
                                      iterations=1)
    print_table(
        "Section II-B: ADVI vs NUTS (cost in gradient evals, quality as "
        "ADVI's max |z| against the truth run's band)",
        f"{'workload':<10s} {'truth R':>7s} {'truth ESS':>9s} "
        f"{'NUTS work':>10s} {'VI work':>9s} {'VI |z|':>8s} {'z':>6s}",
        rows,
    )
    for name, (rhat, ess, nuts_work, vi_work, band) in checks.items():
        # The reference is only a reference once the stop rule trusts it.
        assert rhat < RHAT_BELOW and ess >= ESS_AT_LEAST, name
        # VI is cheaper per fit but its answer is not the posterior.
        assert vi_work < nuts_work, name
        assert not band.passed, name
