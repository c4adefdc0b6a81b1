"""Tests for runtime convergence detection (Section VI-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elision import ElisionReport, StopRule
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
    predicate = draw(st.sampled_from(("rhat", "ess")))
    threshold = draw(st.sampled_from(
        (1.01, 1.05, 1.1, 1.5, 3.0) if predicate == "rhat"
        else (2.0, 10.0, 30.0, 80.0, 300.0)
    ))
    return StopRule(
        threshold,
        check_interval=draw(st.integers(1, 15)),
        min_kept=draw(st.integers(0, 30)),
        predicate=predicate,
    )


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
        rng = np.random.default_rng(seed)
        # Chains that start apart and merge, so some runs stop early.
        merge = rng.integers(1, 2 * budget + 1)
        decay = np.clip(1.0 - np.arange(budget) / merge, 0.0, None)
        offsets = 3.0 * np.arange(n_chains)[:, None, None] * decay[None, :, None]
        draws = rng.normal(size=(n_chains, budget, dim)) + offsets
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

    def test_detects_after_merge_point(self):
        result = synthetic_result(converge_after=120)
        report = StopRule(check_interval=20).replay(result)
        assert report.converged
        # Detection cannot precede the merge; should happen not too long after.
        assert 120 <= report.converged_iteration <= 280

    def test_never_converges_when_chains_disagree(self):
        result = synthetic_result(converge_after=10 ** 9)  # never merges
        report = StopRule().replay(result)
        assert not report.converged
        assert report.iterations_saved_fraction == 0.0

    def test_iterations_saved_fraction(self):
        result = synthetic_result(n_kept=400, converge_after=100)
        report = StopRule().replay(result)
        assert report.converged
        assert report.iterations_saved_fraction == pytest.approx(
            1.0 - report.converged_iteration / 400, abs=1e-12
        )
        assert report.iterations_saved_fraction > 0.3

    def test_rhat_trace_monotone_tail(self):
        result = synthetic_result()
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
        result = synthetic_result(n_kept=400, n_warmup=100, converge_after=100)
        report = StopRule().replay(result)
        work_saved = report.work_saved_fraction(result)
        # Work savings are diluted by warmup work, as the paper notes.
        assert 0.0 < work_saved < report.iterations_saved_fraction + 0.05

    def test_check_interval_validation(self):
        with pytest.raises(ValueError, match="check_interval"):
            StopRule(check_interval=0)

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
