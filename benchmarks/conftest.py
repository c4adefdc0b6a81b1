"""Shared infrastructure for the figure/table benches.

All benches share one :class:`~repro.core.pipeline.SuiteRunner`, so each
workload is sampled once per session regardless of how many figures consume
it. The runs are sized for the stop rule: every workload adapts for its
full original warmup (``REPRO_BUDGET_FRACTION`` scales warmup and kept
draws together, default 1.0), and the kept draws are capped at the
runner's ``max_kept`` (400), enough for each workload that converges to
reach the rule's ESS floor. Every latency/energy number is then quoted at
the workloads' original budgets via ``repro.core.extrapolation`` (see
DESIGN.md).
"""

import os
from pathlib import Path

import pytest

from repro.core.pipeline import SuiteRunner


def budget_fraction() -> float:
    return float(os.environ.get("REPRO_BUDGET_FRACTION", "1.0"))


@pytest.fixture(scope="session")
def runner() -> SuiteRunner:
    cache_dir = os.environ.get(
        "REPRO_BENCH_CACHE", str(Path(__file__).parent / ".cache")
    )
    return SuiteRunner(
        budget_fraction=budget_fraction(), seed=7,
        cache_dir=cache_dir or None,
    )


def print_table(title: str, header: str, rows, footer: str = "") -> None:
    """Render one paper table/figure as text on the captured stdout.

    pytest shows it with ``-s``; the bench scripts tee it into the
    EXPERIMENTS log.
    """
    width = max(len(header), *(len(r) for r in rows)) if rows else len(header)
    print()
    print("=" * width)
    print(title)
    print("-" * width)
    print(header)
    for row in rows:
        print(row)
    if footer:
        print("-" * width)
        print(footer)
    print("=" * width)
