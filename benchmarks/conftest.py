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

A bench asserts each paper claim through the ``claim`` fixture
(:meth:`_harness.Scorecard.claim`); at the end of the session every claim
recorded is printed as one Markdown scorecard (EXPERIMENTS.md quotes it). A
session that recorded none prints nothing.
"""

import os
from pathlib import Path

import pytest
from _harness import Scorecard

from repro.core.pipeline import SuiteRunner

#: Where a session keeps its scorecard.
SCORECARD = pytest.StashKey[Scorecard]()


def pytest_configure(config):
    config.stash[SCORECARD] = Scorecard()


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


@pytest.fixture
def claim(pytestconfig):
    """Record a paper claim in the session's scorecard and assert it."""
    return pytestconfig.stash[SCORECARD].claim


def pytest_terminal_summary(terminalreporter, config):
    scorecard = config.stash[SCORECARD]
    if scorecard.rows:
        terminalreporter.write_sep("=", "paper scorecard")
        terminalreporter.write_line(scorecard.render())


def print_table(title: str, header: str, rows, footer: str = "") -> None:
    """Render one paper table/figure as text on the captured stdout.

    pytest shows it with ``-s``.
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
