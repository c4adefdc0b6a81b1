"""Ablation — convergence-detection check interval.

The runtime detector trades responsiveness against diagnostic overhead.
Sweeping the check interval on a recorded run shows detection latency is
insensitive over a wide range, supporting the paper's claim that the
mechanism is effectively free.
"""

from conftest import print_table

from repro.core.elision import StopRule

INTERVALS = (10, 20, 40)


def build_sweep(runner):
    result = runner.run("12cities")
    detections = {}
    for interval in INTERVALS:
        report = StopRule(check_interval=interval).replay(result)
        detections[interval] = report.converged_iteration
    return detections


def test_ablation_check_interval(runner, benchmark):
    detections = benchmark.pedantic(
        build_sweep, args=(runner,), rounds=1, iterations=1
    )
    rows = [
        f"{interval:>8d} {str(conv):>10s}"
        for interval, conv in detections.items()
    ]
    print_table(
        "Ablation: elision check interval vs detection point (12cities)",
        f"{'interval':>8s} {'detected@':>10s}", rows,
    )
    converged = [c for c in detections.values() if c is not None]
    assert len(converged) == len(INTERVALS)
    # Detection point moves by at most ~(interval) iterations: coarser
    # checking delays detection by less than one interval beyond the finest.
    finest = detections[INTERVALS[0]]
    for interval in INTERVALS[1:]:
        assert detections[interval] <= finest + interval
