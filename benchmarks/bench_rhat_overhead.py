"""Section VI-A overhead analysis — the cost of runtime convergence
detection.

The paper measures the worst case (2000 iterations, half kept for inference,
4 chains) at 0.06 s on one Skylake core and calls it negligible. This bench
times exactly that computation; pytest-benchmark reports the distribution.
Under ``--benchmark-disable`` it records no stats, so each test then times
its one call itself and holds that to the same bound.
"""

import time

import numpy as np

from repro.diagnostics.rhat import max_rhat
from repro.core.elision import StopRule

N_CHAINS = 4
N_KEPT = 1000   # half of the paper's worst-case 2000 iterations
DIM = 16        # a typical BayesSuite posterior dimension


def mean_seconds(benchmark, fn, *args):
    """``(result, mean seconds per call)``: pytest-benchmark's mean, or
    the one call's time when timing is off and its stats are ``None``."""
    start = time.perf_counter()
    result = benchmark(fn, *args)
    if benchmark.stats is None:
        return result, time.perf_counter() - start
    return result, benchmark.stats["mean"]


def test_rhat_worst_case_overhead(benchmark, claim):
    rng = np.random.default_rng(0)
    draws = rng.normal(size=(N_CHAINS, N_KEPT, DIM))
    result, seconds = mean_seconds(benchmark, max_rhat, draws)
    assert result < 1.1
    # The whole point: the check is a negligible fraction of a sampling run.
    claim("Sec. VI-A", "R-hat over 4 chains x 1000 kept draws, one core",
          "0.06 s", seconds, "<", 0.25, fmt="{:.2g} s")


def test_online_rhat_incremental_overhead(benchmark):
    """The live rule's check at the worst-case checkpoint, one that
    passes: split R-hat and then ESS over all the draws streamed into the
    feed's preallocated buffer."""
    rng = np.random.default_rng(1)
    rule = StopRule(check_interval=N_KEPT, min_kept=N_KEPT)
    feed = rule.live(N_CHAINS, N_KEPT, DIM)
    for _ in range(N_KEPT):
        for chain in range(N_CHAINS):
            feed.add(chain, rng.normal(size=DIM))
    assert feed.report.converged_iteration == N_KEPT

    _, seconds = mean_seconds(
        benchmark, rule.check, feed.report, feed.draws, N_KEPT
    )
    assert seconds < 0.5
