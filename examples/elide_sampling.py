"""Computation elision: stop sampling as soon as the chains converge.

Reproduces the paper's Section VI-A mechanism on the 12cities workload:
an online Gelman-Rubin monitor watches the chains, sampling stops at the
first R-hat < 1.1 checkpoint, and the elided posterior is compared with the
full-budget posterior to show that the skipped iterations were redundant.

Run:  python examples/elide_sampling.py
"""

from repro.core.elision import StopRule
from repro.diagnostics import gaussian_kl
from repro.inference import NUTS, run_chains
from repro.suite import load_workload


def main():
    model = load_workload("12cities", scale=0.5)
    budget = 600   # a scaled-down stand-in for the original 2000

    print(f"sampling {model.name} with a budget of {budget} iterations...")
    result = run_chains(model, NUTS(max_tree_depth=6), n_iterations=budget,
                        n_chains=4, seed=1)

    # Stream the run through the live rule block by block, as the
    # framework (or the serving layer's monitor) would.
    rule = StopRule(check_interval=20)
    kept = result.stacked()
    feed = rule.live(n_chains=4, budget_kept=kept.shape[1], dim=model.dim)
    for start in range(0, kept.shape[1], 10):
        for chain in range(4):
            for checkpoint, rhat in feed.add(chain, kept[chain, start:start + 10]):
                marker = "  <-- stop here" if rule.passes(rhat) else ""
                print(f"  iteration {checkpoint:4d}: R-hat = {rhat:6.3f}{marker}")
    stopped_at = feed.report.converged_iteration

    if stopped_at is None:
        print("chains did not converge within the budget")
        return

    saved = 1.0 - stopped_at / kept.shape[1]
    print(f"\nconverged after {stopped_at} of {kept.shape[1]} kept iterations "
          f"({100 * saved:.0f}% elided)")

    # Quality check: the elided posterior matches the full-budget one.
    elided = kept[:, :stopped_at, :].reshape(-1, model.dim)
    full = kept.reshape(-1, model.dim)
    print(f"KL(elided || full budget) = {gaussian_kl(elided, full):.4f}")

    beta = result.constrained(model)["beta_limit"]
    print(f"\nposterior effect of lowering speed limits: "
          f"{beta.mean():.3f} +- {beta.std():.3f} "
          f"(negative = fewer pedestrian deaths)")

    # Replaying the same rule over the recorded run stops at the same point.
    report = rule.replay(result)
    print(f"replayed rule: converged at {report.converged_iteration} "
          f"({100 * report.iterations_saved_fraction:.0f}% of budget elided)")


if __name__ == "__main__":
    main()
