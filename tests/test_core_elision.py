"""Tests for runtime convergence detection (Section VI-A)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elision import ElisionReport, StopRule
from repro.diagnostics import max_rhat, min_ess
from repro.inference.results import ChainResult, SamplingResult


def synthetic_result(
    n_chains=4,
    n_kept=400,
    n_warmup=100,
    converge_after=120,
    dim=2,
    seed=0,
    work_scale=30.0,
):
    """Chains that start dispersed and merge after ``converge_after`` kept
    iterations — a controllable stand-in for a real sampler run."""
    rng = np.random.default_rng(seed)
    total = n_warmup + n_kept
    chains = []
    for c in range(n_chains):
        offsets = np.zeros((total, dim))
        # Offset decays linearly to zero at (warmup + converge_after).
        merge_point = n_warmup + converge_after
        decay = np.clip(1.0 - np.arange(total) / max(merge_point, 1), 0.0, 1.0)
        offsets += decay[:, None] * (c + 1) * 3.0
        samples = rng.normal(size=(total, dim)) + offsets
        work = np.full(total, work_scale) + rng.integers(0, 10, size=total)
        chains.append(
            ChainResult(
                samples=samples,
                logps=np.zeros(total),
                work_per_iteration=work.astype(float),
                n_warmup=n_warmup,
                accept_rate=0.9,
            )
        )
    return SamplingResult(model_name="synthetic", chains=chains)


class TestOnlineRhat:
    """The rule fed live (:meth:`StopRule.live`), as the serving monitor
    feeds it."""

    def test_requires_two_chains(self):
        with pytest.raises(ValueError, match="2 chains"):
            StopRule().live(1, 100, 2)

    def test_infinite_before_enough_draws(self):
        feed = StopRule(check_interval=1, min_kept=0).live(2, 10, 1)
        feed.add(0, np.array([1.0]))
        assert feed.add(1, np.array([1.0])) == [(1, float("inf"))]
        assert not feed.report.converged

    def test_detects_convergence_of_identical_distributions(self):
        rng = np.random.default_rng(1)
        feed = StopRule(check_interval=300, min_kept=300).live(4, 300, 2)
        for _ in range(300):
            for c in range(4):
                feed.add(c, rng.normal(size=2))
        assert feed.report.trace[0] < 1.1
        assert feed.report.converged_iteration == 300

    def test_detects_divergence_of_shifted_chains(self):
        rng = np.random.default_rng(2)
        feed = StopRule(check_interval=200, min_kept=200).live(2, 200, 1)
        for _ in range(200):
            feed.add(0, rng.normal(size=1))
            feed.add(1, rng.normal(size=1) + 5.0)
        assert feed.report.trace[0] > 1.5
        assert not feed.report.converged

    def test_n_draws_is_minimum_across_chains(self):
        feed = StopRule(check_interval=2, min_kept=0).live(2, 4, 1)
        assert feed.add(0, np.zeros((2, 1))) == []
        feed.add(1, np.zeros((1, 1)))
        assert feed.filled == [2, 1] and feed.report.checkpoints == []
        feed.reset_chain(0)
        assert feed.filled == [0, 1]


def _recorded(draws: np.ndarray) -> SamplingResult:
    """A recorded run whose kept draws are ``draws`` (chains, kept, dim)."""
    n_kept = draws.shape[1]
    return SamplingResult(model_name="synthetic", chains=[
        ChainResult(
            samples=chain, logps=np.zeros(n_kept),
            work_per_iteration=np.ones(n_kept), n_warmup=0, accept_rate=1.0,
        )
        for chain in draws
    ])


@st.composite
def stop_rules(draw):
    """Both thresholds drawn: the paper's rule (floor 0), an ESS-only rule
    (R-hat threshold infinity), and conjunctions in between."""
    return StopRule(
        rhat_below=draw(st.sampled_from((1.01, 1.05, 1.1, 1.5, 3.0, math.inf))),
        ess_at_least=draw(st.sampled_from((0, 2.0, 10.0, 30.0, 80.0, 300.0))),
        check_interval=draw(st.integers(1, 15)),
        min_kept=draw(st.integers(0, 30)),
    )


def merging_draws(rng, n_chains, budget, dim):
    """Chains that start apart and merge, so some runs stop early."""
    merge = rng.integers(1, 2 * budget + 1)
    decay = np.clip(1.0 - np.arange(budget) / merge, 0.0, None)
    offsets = 3.0 * np.arange(n_chains)[:, None, None] * decay[None, :, None]
    return rng.normal(size=(n_chains, budget, dim)) + offsets


class TestStreamingEqualsReplay:
    """The live feed stops where the replay of the same draws does, with a
    bitwise-equal ``(checkpoint, statistic)`` trace up to the stop."""

    @settings(max_examples=60, deadline=None)
    @given(
        rule=stop_rules(),
        n_chains=st.integers(2, 4),
        budget=st.integers(1, 70),
        dim=st.integers(1, 3),
        seed=st.integers(0, 2 ** 16),
        data=st.data(),
    )
    def test_any_interleaving_matches_replay(
        self, rule, n_chains, budget, dim, seed, data,
    ):
        draws = merging_draws(np.random.default_rng(seed), n_chains, budget, dim)
        replay = rule.replay(_recorded(draws))

        feed = rule.live(n_chains, budget, dim)
        emitted = [0] * n_chains
        streamed = []
        while min(emitted) < budget:
            chain = data.draw(st.sampled_from(
                [c for c in range(n_chains) if emitted[c] < budget]
            ))
            if emitted[chain] and data.draw(st.integers(0, 9)) == 0:
                # The chain's worker died: it re-emits its kept draws from
                # the start, bit-identical to the lost stream.
                feed.reset_chain(chain)
                emitted[chain] = 0
                continue
            size = data.draw(st.integers(1, budget - emitted[chain]))
            block = draws[chain, emitted[chain]:emitted[chain] + size]
            streamed += feed.add(chain, block)
            emitted[chain] += size

        stop = replay.converged_iteration
        assert feed.report.converged_iteration == stop
        upto = len(replay.checkpoints) if stop is None else (
            replay.checkpoints.index(stop) + 1
        )
        assert feed.report.checkpoints == replay.checkpoints[:upto]
        assert [c for c, _ in streamed] == feed.report.checkpoints
        expected = np.asarray(replay.trace[:upto], dtype=float)
        for trace in (feed.report.trace, [r for _, r in streamed]):
            assert np.asarray(trace, dtype=float).tobytes() == expected.tobytes()


class TestConvergenceDetector:
    """The rule replayed over a recorded run (:meth:`StopRule.replay`)."""

    @settings(max_examples=60, deadline=None)
    @given(
        rule=stop_rules(),
        n_chains=st.integers(2, 4),
        budget=st.integers(1, 70),
        dim=st.integers(1, 3),
        seed=st.integers(0, 2 ** 16),
    )
    def test_stops_at_the_first_checkpoint_where_both_pass(
        self, rule, n_chains, budget, dim, seed,
    ):
        draws = merging_draws(np.random.default_rng(seed), n_chains, budget, dim)
        report = rule.replay(_recorded(draws))
        passing = [
            stop for stop in rule.schedule(budget)
            if max_rhat(draws[:, :stop]) < rule.rhat_below
            and min_ess(draws[:, :stop]) >= rule.ess_at_least
        ]
        assert report.converged_iteration == (passing[0] if passing else None)
        assert report.trace == [
            max_rhat(draws[:, :stop]) for stop in report.checkpoints
        ]

    def test_ess_floor_holds_back_agreeing_chains(self):
        # Four stationary chains that move slowly (AR(1), phi 0.9): R-hat
        # passes while the draws still hold few independent ones.
        rng = np.random.default_rng(5)
        draws = np.zeros((4, 400, 1))
        draws[:, 0] = rng.normal(size=(4, 1)) / np.sqrt(1 - 0.9 ** 2)
        for t in range(1, 400):
            draws[:, t] = 0.9 * draws[:, t - 1] + rng.normal(size=(4, 1))
        paper = StopRule(ess_at_least=0).replay(_recorded(draws)).converged_iteration
        floored = StopRule(ess_at_least=100).replay(_recorded(draws)).converged_iteration
        assert min_ess(draws[:, :paper]) < 100 <= min_ess(draws[:, :floored])
        assert paper < floored

    def test_detects_after_merge_point(self):
        # The rule judges every kept draw, so the drift before the merge
        # stays in its window: merges are set early in the kept draws.
        result = synthetic_result(converge_after=20)
        report = StopRule(check_interval=20).replay(result)
        assert report.converged
        # Detection cannot precede the merge; should happen not too long after.
        assert 20 <= report.converged_iteration <= 120

    def test_a_transient_in_the_kept_draws_holds_the_stop_back(self):
        # The cost of judging every kept draw: chains that merge only at
        # 120 kept draws carry their drift in every later window. Within
        # 400 kept draws the rule never stops (a second-half window
        # stopped at 120-280); with 1200 it stops, at 1000-1040, and even
        # split R-hat alone (floor 0) waits until 480-500.
        short = synthetic_result(converge_after=120)
        assert StopRule().replay(short).converged_iteration is None
        long = synthetic_result(n_kept=1200, converge_after=120)
        assert 800 <= StopRule().replay(long).converged_iteration <= 1100
        paper = StopRule(ess_at_least=0).replay(long).converged_iteration
        assert 400 <= paper <= 600

    def test_never_converges_when_chains_disagree(self):
        result = synthetic_result(converge_after=10 ** 9)  # never merges
        report = StopRule().replay(result)
        assert not report.converged
        assert report.iterations_saved_fraction == 0.0

    def test_iterations_saved_fraction(self):
        result = synthetic_result(n_kept=400, converge_after=20)
        report = StopRule().replay(result)
        assert report.converged
        assert report.iterations_saved_fraction == pytest.approx(
            1.0 - report.converged_iteration / 400, abs=1e-12
        )
        assert report.iterations_saved_fraction > 0.3

    def test_rhat_trace_monotone_tail(self):
        result = synthetic_result(converge_after=20)
        report = StopRule().replay(result)
        assert len(report.trace) == len(report.checkpoints)
        # After convergence the trace stays below threshold + slack.
        converged_idx = report.checkpoints.index(report.converged_iteration)
        assert all(r < 1.3 for r in report.trace[converged_idx:])

    def test_kl_trace_decreases_with_iterations(self):
        result = synthetic_result(n_kept=600, converge_after=100, seed=4)
        truth = np.random.default_rng(9).normal(size=(4000, 2))
        report = StopRule(check_interval=50).replay(result, ground_truth=truth)
        assert len(report.kl_trace) == len(report.checkpoints)
        assert report.kl_trace[-1] < report.kl_trace[0]

    def test_work_saved_fraction_accounts_for_warmup(self):
        result = synthetic_result(n_kept=400, n_warmup=100, converge_after=20)
        report = StopRule().replay(result)
        work_saved = report.work_saved_fraction(result)
        # Work savings are diluted by warmup work, as the paper notes.
        assert 0.0 < work_saved < report.iterations_saved_fraction + 0.05

    def test_check_interval_validation(self):
        with pytest.raises(ValueError, match="check_interval"):
            StopRule(check_interval=0)
        for bad in (-1.0, float("nan"), True, "1.1"):
            with pytest.raises(ValueError, match="rhat_below"):
                StopRule(rhat_below=bad)
            with pytest.raises(ValueError, match="ess_at_least"):
                StopRule(ess_at_least=bad)

    def test_min_iterations_respected(self):
        result = synthetic_result(converge_after=1)  # converges immediately
        report = StopRule(min_kept=100, check_interval=20).replay(result)
        assert report.converged_iteration >= 100

    def test_unconverged_work_saved_zero(self):
        result = synthetic_result(converge_after=10 ** 9)
        report = StopRule().replay(result)
        assert report.work_saved_fraction(result) == 0.0


class TestElisionReportEdgeCases:
    def test_report_unconverged_defaults(self):
        report = ElisionReport("x", budget_iterations=100, converged_iteration=None)
        assert not report.converged
        assert report.iterations_saved_fraction == 0.0
