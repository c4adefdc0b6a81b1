"""Telemetry overhead budget — the cost of per-iteration sampler metrics.

Two claims from docs/telemetry.md, checked against the real sampler:

* **disabled is free** — with telemetry off, ``run_chains`` composes no
  hook at all, so the uninstrumented path is the exact seed-repo code path
  (one ``telemetry.enabled()`` check per run, not per iteration);
* **enabled is <2%** — each chain's ``ChainTelemetry`` (the path served
  chains are counted through) costs a stats-dict build plus a handful of
  float adds per iteration and one cumulative block merge per flush
  interval, amortized against a NUTS iteration's many gradient evaluations.

Runs standalone (``python benchmarks/bench_telemetry_overhead.py``, exits
non-zero over budget — the nightly CI gate) or under pytest. Times are
best-of-``REPEATS`` to shed scheduler noise; the budget is a constant,
``OVERHEAD_BUDGET`` (a fraction), so no environment can loosen the gate.

The standalone run also prints ``engine_loop_us``: µs per iteration of the
bare (hook-free) chain loop for ``mh`` — the engine whose iteration is
cheapest, so the one most sensitive to what the shared chain scaffold in
``repro.inference.chain`` costs — and ``nuts``, on ``votes`` at scale 0.25.
It gates nothing; it is the number a change to that scaffold is compared
on, parent against change (EXPERIMENTS.md).
"""

import sys
import time

from repro import telemetry
from repro.inference import NUTS, build_engine, run_chains
from repro.suite import load_workload

N_ITERATIONS = 300
N_CHAINS = 2
REPEATS = 3
OVERHEAD_BUDGET = 0.02


def _timed_run(model, sampler, n_iterations: int = N_ITERATIONS) -> float:
    start = time.perf_counter()
    run_chains(
        model, sampler, n_iterations=n_iterations, n_chains=N_CHAINS, seed=11
    )
    return time.perf_counter() - start


def measure() -> tuple:
    """(best disabled seconds, best enabled seconds), interleaved runs."""
    model = load_workload("12cities", scale=0.5)
    sampler = NUTS(max_tree_depth=6)
    was_enabled = telemetry.enabled()
    try:
        telemetry.disable()
        _timed_run(model, sampler)  # warm-up: page cache, allocator pools
        disabled, enabled = [], []
        for _ in range(REPEATS):
            telemetry.disable()
            disabled.append(_timed_run(model, sampler))
            telemetry.enable()
            enabled.append(_timed_run(model, sampler))
    finally:
        telemetry.enable() if was_enabled else telemetry.disable()
        telemetry.reset()
    return min(disabled), min(enabled)


def engine_loop_us() -> dict:
    """``{engine: (best, worst)}`` µs per iteration over ``REPEATS`` runs."""
    model = load_workload("votes", scale=0.25)
    was_enabled = telemetry.enabled()
    telemetry.disable()
    try:
        out = {}
        # An MH iteration is ~100x cheaper than a NUTS one: give it 10x the
        # iterations so both runs last long enough to time.
        for engine, n_iterations in (("mh", 10 * N_ITERATIONS), ("nuts", N_ITERATIONS)):
            sampler = build_engine(engine)
            _timed_run(model, sampler, n_iterations)  # warm-up
            per_iteration = [
                1e6 * _timed_run(model, sampler, n_iterations)
                / (n_iterations * N_CHAINS)
                for _ in range(REPEATS)
            ]
            out[engine] = (min(per_iteration), max(per_iteration))
    finally:
        if was_enabled:
            telemetry.enable()
    return out


def report(disabled_s: float, enabled_s: float) -> float:
    overhead = (enabled_s - disabled_s) / disabled_s
    print(
        f"telemetry overhead: disabled {disabled_s:.3f}s, "
        f"enabled {enabled_s:.3f}s -> {100 * overhead:+.2f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
    )
    return overhead


def test_telemetry_overhead_budget():
    disabled_s, enabled_s = measure()
    assert report(disabled_s, enabled_s) < OVERHEAD_BUDGET


if __name__ == "__main__":
    for name, (best, worst) in engine_loop_us().items():
        print(f"engine_loop_us {name}: {best:.1f} (worst of {REPEATS}: {worst:.1f})")
    best_disabled, best_enabled = measure()
    sys.exit(0 if report(best_disabled, best_enabled) < OVERHEAD_BUDGET else 1)
