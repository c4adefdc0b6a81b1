"""Ablation — stopping policy: Gelman-Rubin R-hat vs effective sample size.

The paper's elision stops on R-hat < 1.1. A natural alternative certifies a
target ESS instead. This ablation compares both policies' stopping points
and savings on the same recorded runs.
"""

from conftest import print_table

from repro.core.elision import StopRule

WORKLOADS = ("12cities", "ad", "votes", "butterfly")


def build(runner):
    rhat_policy = StopRule(check_interval=20)
    ess_policy = StopRule(150, check_interval=20, predicate="ess")
    outcomes = {}
    for name in WORKLOADS:
        result = runner.run(name)
        outcomes[name] = (
            rhat_policy.replay(result).converged_iteration,
            ess_policy.replay(result).converged_iteration,
            result.n_kept,
        )
    return outcomes


def test_ablation_stopping_policy(runner, benchmark):
    outcomes = benchmark.pedantic(build, args=(runner,), rounds=1, iterations=1)
    rows = [
        f"{name:<10s} {str(rhat):>8s} {str(ess):>8s} {budget:>8d}"
        for name, (rhat, ess, budget) in outcomes.items()
    ]
    print_table(
        "Ablation: stopping policy (kept-iteration of detection)",
        f"{'workload':<10s} {'R-hat':>8s} {'ESS-150':>8s} {'budget':>8s}",
        rows,
    )
    for name, (rhat, ess, budget) in outcomes.items():
        # The R-hat policy detects on every one of these workloads.
        assert rhat is not None, name
        # Where both fire, R-hat (agreement) typically fires no later than
        # a 300-ESS target (information) — it is the cheaper certificate.
        if ess is not None:
            assert rhat <= ess + 40, name
