"""Section VI-A overhead analysis — the cost of runtime convergence
detection.

The paper measures the worst case (2000 iterations, half kept for inference,
4 chains) at 0.06 s on one Skylake core and calls it negligible. This bench
times exactly that computation; pytest-benchmark reports the distribution.
"""

import numpy as np

from repro.diagnostics.rhat import max_rhat
from repro.core.elision import StopRule

N_CHAINS = 4
N_KEPT = 1000   # half of the paper's worst-case 2000 iterations
DIM = 16        # a typical BayesSuite posterior dimension


def test_rhat_worst_case_overhead(benchmark):
    rng = np.random.default_rng(0)
    draws = rng.normal(size=(N_CHAINS, N_KEPT, DIM))
    result = benchmark(max_rhat, draws)
    assert result < 1.1
    # The whole point: the check is a negligible fraction of a sampling run.
    assert benchmark.stats["mean"] < 0.25


def test_online_rhat_incremental_overhead(benchmark):
    """The live rule's check at the worst-case checkpoint: R-hat over the
    second half of the draws streamed into the feed's preallocated
    buffer."""
    rng = np.random.default_rng(1)
    rule = StopRule(check_interval=N_KEPT, min_kept=N_KEPT)
    feed = rule.live(N_CHAINS, N_KEPT, DIM)
    for _ in range(N_KEPT):
        for chain in range(N_CHAINS):
            feed.add(chain, rng.normal(size=DIM))
    assert feed.report.converged_iteration == N_KEPT

    benchmark(rule.check, feed.report, feed.draws, N_KEPT)
    assert benchmark.stats["mean"] < 0.5
