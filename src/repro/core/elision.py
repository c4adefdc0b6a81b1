"""Computation elision via runtime convergence detection (Section VI-A).

The number of sampling iterations is a user guess, and the paper finds that
BayesSuite's user settings overshoot convergence by ~70% on average. The
mechanism here periodically computes the Gelman-Rubin diagnostic over the
draws so far (second half only, after Brooks et al.) and stops the job the
first time every parameter's R-hat drops below 1.1.

That rule is one :class:`StopRule`: a schedule (the first check at
``max(min_kept, check_interval)`` kept draws, then one every
``check_interval``), a predicate over the ``(chains, window, dim)`` block
of draws so far (max R-hat over the second half below a threshold, or —
the stopping ablation's alternative — worst-parameter ESS over all of them
at or above a target), and the :class:`ElisionReport` trace it produces.
It runs two ways:

* :meth:`StopRule.replay` — over a recorded multi-chain run, which is how
  the figure benches replay elision decisions without re-sampling. It
  traces every checkpoint up to the budget, past the stop (Figure 5 plots
  that);
* :meth:`StopRule.live` — a :class:`StopFeed` that a running job's draw
  blocks stream into, in any chain order and block size, and that stops at
  the first checkpoint every chain has reached and the predicate passes
  (the serving layer's monitor; the paper measures the check's cost at
  0.06 s for the worst case, and the overhead bench times it).

Both evaluate the same statistic on the same draws, so a live run stops
at the checkpoint its replay would, with a bit-identical trace up to it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.diagnostics.ess import min_ess
from repro.diagnostics.kl import gaussian_kl
from repro.diagnostics.rhat import max_rhat
from repro.inference.results import SamplingResult

#: Convergence level suggested by Brooks et al. and used by the paper.
RHAT_THRESHOLD = 1.1

#: What a :class:`StopRule` may test: max R-hat over the second half of the
#: draws so far below its threshold, or their worst-parameter ESS at or
#: above it.
PREDICATES = ("rhat", "ess")


@dataclass
class ElisionReport:
    """Outcome of convergence detection on one run."""

    workload: str
    budget_iterations: int          # post-warmup iterations the user asked for
    converged_iteration: Optional[int]  # post-warmup iteration of detection
    #: The rule's statistic (R-hat or ESS) at each of ``checkpoints``.
    trace: List[float] = field(default_factory=list)
    checkpoints: List[int] = field(default_factory=list)
    kl_trace: List[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.converged_iteration is not None

    @property
    def iterations_saved_fraction(self) -> float:
        """Fraction of post-warmup iterations elided (paper: ~70% average)."""
        if not self.converged:
            return 0.0
        return 1.0 - self.converged_iteration / self.budget_iterations

    def work_saved_fraction(self, result: SamplingResult) -> float:
        """Fraction of gradient-evaluation work elided, accounting for the
        unequal per-iteration cost the paper notes (latency savings are
        smaller than iteration savings)."""
        if not self.converged:
            return 0.0
        total = result.total_work
        spent = sum(
            chain.work_through(self.converged_iteration) for chain in result.chains
        )
        return 1.0 - spent / total


def _integer(name: str, value, least: int) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class StopRule:
    """When to check convergence, what passes, and the trace it leaves."""

    #: R-hat to get below (``predicate="rhat"``) or ESS to reach (``"ess"``).
    threshold: float = RHAT_THRESHOLD
    #: Kept draws between checks.
    check_interval: int = 20
    #: Kept draws required before the first check.
    min_kept: int = 40
    predicate: str = "rhat"

    def __post_init__(self) -> None:
        if self.predicate not in PREDICATES:
            raise ValueError(
                f"unknown stop predicate {self.predicate!r}; "
                f"available: {', '.join(PREDICATES)}"
            )
        _integer("check_interval", self.check_interval, 1)
        _integer("min_kept", self.min_kept, 0)
        name = "rhat_threshold" if self.predicate == "rhat" else "target_ess"
        value = self.threshold
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.predicate == "ess" and value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")

    def schedule(self, n_kept: int) -> range:
        """The checkpoints (kept-draw counts) of a run of ``n_kept``."""
        return range(
            max(self.min_kept, self.check_interval), n_kept + 1,
            self.check_interval,
        )

    def window(self, draws: np.ndarray, stop: int) -> np.ndarray:
        """The ``(chains, window, dim)`` block of the first ``stop`` draws
        that the predicate reads."""
        start = stop // 2 if self.predicate == "rhat" else 0
        return draws[:, start:stop, :]

    def passes(self, statistic: float) -> bool:
        if self.predicate == "rhat":
            return statistic < self.threshold
        return statistic >= self.threshold

    def check(self, report: ElisionReport, draws: np.ndarray, stop: int) -> bool:
        """Evaluate checkpoint ``stop`` over ``draws`` into ``report``'s
        trace (and its detection point, at the first pass); True if it
        passed."""
        window = self.window(draws, stop)
        statistic = max_rhat(window) if self.predicate == "rhat" else min_ess(window)
        report.checkpoints.append(stop)
        report.trace.append(statistic)
        passed = self.passes(statistic)
        if passed and report.converged_iteration is None:
            report.converged_iteration = stop
        return passed

    def replay(
        self,
        result: SamplingResult,
        ground_truth: Optional[np.ndarray] = None,
    ) -> ElisionReport:
        """Every checkpoint of a recorded run, the stop among them.

        ``ground_truth`` (a pooled (n, dim) sample matrix from a doubled-
        budget run) adds a KL-divergence trace of each checkpoint's window
        for result-quality curves (Figure 5's green line).
        """
        draws = result.stacked()  # (chains, kept, dim)
        report = ElisionReport(
            workload=result.model_name,
            budget_iterations=draws.shape[1],
            converged_iteration=None,
        )
        for stop in self.schedule(draws.shape[1]):
            self.check(report, draws, stop)
            if ground_truth is not None:
                pooled = self.window(draws, stop).reshape(-1, draws.shape[-1])
                report.kl_trace.append(_safe_kl(pooled, ground_truth))
        return report

    def live(self, n_chains: int, budget_kept: int, dim: int) -> "StopFeed":
        """A feed for a running job of ``n_chains`` chains that will keep
        at most ``budget_kept`` draws of ``dim`` parameters each."""
        return StopFeed(self, n_chains, budget_kept, dim)


class StopFeed:
    """A :class:`StopRule` applied while a job runs.

    Chains :meth:`add` blocks of kept draws into one ``(n_chains,
    budget_kept, dim)`` buffer allocated up front. A checkpoint is evaluated
    once every chain has reached it — over exactly the draws a replay of
    the finished run would read — and the feed stops at the first pass.
    """

    def __init__(
        self, rule: StopRule, n_chains: int, budget_kept: int, dim: int,
    ) -> None:
        if rule.predicate == "rhat" and n_chains < 2:
            raise ValueError("R-hat requires at least 2 chains")
        self.rule = rule
        self.draws = np.empty((n_chains, budget_kept, dim))
        self.filled = [0] * n_chains
        self.report = ElisionReport(
            workload="", budget_iterations=budget_kept, converged_iteration=None,
        )
        self._due = iter(rule.schedule(budget_kept))
        self._next = next(self._due, None)

    def add(self, chain: int, block: np.ndarray) -> List[Tuple[int, float]]:
        """Append one chain's block of kept draws; returns the
        ``(checkpoint, statistic)`` pairs this call evaluated (none once
        the feed has stopped)."""
        report = self.report
        if report.converged:
            return []
        block = np.atleast_2d(block)
        start = self.filled[chain]
        self.draws[chain, start:start + len(block)] = block
        self.filled[chain] = start + len(block)
        seen = len(report.checkpoints)
        while self._next is not None and min(self.filled) >= self._next:
            if self.rule.check(report, self.draws, self._next):
                break
            self._next = next(self._due, None)
        return list(zip(report.checkpoints[seen:], report.trace[seen:]))

    def reset_chain(self, chain: int) -> None:
        """Rewind one chain's fill count ahead of a deterministic re-feed.

        A restarted chain re-emits its kept draws from the beginning,
        bit-identical to the lost stream, so checkpoints already evaluated
        stay exactly valid; only the chain's pending draws are re-collected.
        """
        self.filled[chain] = 0


def _safe_kl(pooled: np.ndarray, ground_truth: np.ndarray) -> float:
    try:
        return gaussian_kl(pooled, ground_truth)
    except (np.linalg.LinAlgError, ValueError):
        return float("nan")
