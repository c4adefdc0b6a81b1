"""Unit tests for Pareto-smoothed importance sampling (the tier gate).

The GPD fit is checked against synthetic tails with known shape, and the
``psis`` decision surface against importance ratios whose reliability is
known analytically (thin-tailed ratios pass, Pareto-tailed ratios fail,
broken comparisons fail *closed*).
"""

import numpy as np
import pytest

from repro.amortize.psis import (
    KHAT_THRESHOLD,
    PsisDiagnostic,
    fit_generalized_pareto,
    psis,
    surrogate_log_ratios,
)
from repro.inference.advi import AdviResult
from repro.suite import load_workload
from tests.test_inference import StdNormal


def gpd_sample(n, k, sigma, rng):
    """Inverse-CDF draws from GPD(k, sigma)."""
    u = rng.uniform(size=n)
    return sigma * np.expm1(-k * np.log1p(-u)) / k


class TestGpdFit:
    @pytest.mark.parametrize("k_true", [0.2, 0.5, 1.0])
    def test_recovers_known_shape(self, k_true):
        rng = np.random.default_rng(0)
        x = np.sort(gpd_sample(4000, k_true, 1.0, rng))
        k_hat, sigma = fit_generalized_pareto(x)
        assert abs(k_hat - k_true) < 0.12
        assert 0.7 < sigma < 1.4

    def test_shrinks_small_tails_toward_half(self):
        rng = np.random.default_rng(1)
        # Near-zero true shape, tiny tail: the (n k + 5) / (n + 10) prior
        # pulls the estimate visibly toward 0.5.
        x = np.sort(gpd_sample(8, 0.05, 1.0, rng))
        k_hat, _ = fit_generalized_pareto(x)
        assert 0.1 < k_hat < 0.55

    def test_empty_and_nonfinite_fail(self):
        assert fit_generalized_pareto(np.array([]))[0] == np.inf
        assert fit_generalized_pareto(np.array([0.1, np.nan]))[0] == np.inf


class TestPsis:
    def test_thin_tailed_ratios_are_reliable(self):
        rng = np.random.default_rng(2)
        diag = psis(rng.normal(0.0, 0.5, size=1000))
        assert diag.k_hat <= KHAT_THRESHOLD
        assert diag.reliable()
        assert diag.n_tail >= 5

    def test_pareto_tailed_ratios_are_not(self):
        rng = np.random.default_rng(3)
        # exp(lr) ~ Pareto(alpha=1): tail shape k = 1 > 0.7.
        lr = rng.exponential(scale=1.0, size=2000)
        diag = psis(lr)
        assert diag.k_hat > KHAT_THRESHOLD
        assert not diag.reliable()

    def test_weights_self_normalize(self):
        rng = np.random.default_rng(4)
        diag = psis(rng.normal(size=500))
        total = np.exp(diag.log_weights).sum()
        assert np.isclose(total, 1.0)
        assert 1.0 <= diag.ess <= 500.0

    def test_neg_inf_ratios_are_legal_zero_weights(self):
        rng = np.random.default_rng(5)
        lr = rng.normal(size=200)
        lr[:3] = -np.inf  # draws outside p's support
        diag = psis(lr)
        assert np.isfinite(diag.k_hat)
        assert np.all(np.exp(diag.log_weights[:3]) == 0.0)

    @pytest.mark.parametrize(
        "lr",
        [
            np.array([0.0, 1.0, np.nan, 0.5, 0.2, 0.1]),
            np.array([0.0, 1.0, np.inf, 0.5, 0.2, 0.1]),
            np.full(50, -np.inf),  # every draw outside p's support
            np.array([0.1, 0.2]),  # too few draws to say anything
        ],
    )
    def test_broken_comparisons_fail_closed(self, lr):
        diag = psis(lr)
        assert diag.k_hat == np.inf
        assert not diag.reliable()
        assert not diag.reliable(threshold=10.0)

    def test_flat_tail_passes(self):
        # Identical ratios: importance weighting is trivially exact.
        diag = psis(np.zeros(100))
        assert diag.reliable()

    def test_reliable_respects_custom_threshold(self):
        diag = PsisDiagnostic(
            k_hat=0.9, log_weights=np.zeros(1), n_tail=5, ess=1.0
        )
        assert not diag.reliable()
        assert diag.reliable(threshold=1.0)


class TestSurrogateLogRatios:
    def test_exact_guide_gives_constant_ratios(self):
        # q == p (both standard normal) up to the prior's constant: the
        # ratios collapse to a single value, the ideal surrogate.
        model = StdNormal(3)
        guide = AdviResult(mu=np.zeros(3), log_sigma=np.zeros(3))
        draws = guide.sample(64, np.random.default_rng(0))
        ratios = surrogate_log_ratios(model, guide, draws)
        assert ratios.shape == (64,)
        assert np.allclose(ratios, ratios[0])
        assert psis(ratios).reliable()

    def test_ratios_are_the_gradient_calls_bit_for_bit(self):
        # The gate scores draws through model.logp (a forward-only replay);
        # it must read exactly what the full replay's scalar reads.
        model = load_workload("12cities", scale=0.25)
        rng = np.random.default_rng(7)
        center = model.initial_position(rng, jitter=0.0)
        guide = AdviResult(mu=center, log_sigma=np.full(model.dim, -2.0))
        draws = guide.sample(48, rng)
        ratios = surrogate_log_ratios(model, guide, draws)
        assert model.tape_stats()["value_replays"] >= len(draws) - 2
        reference = load_workload("12cities", scale=0.25)
        logp_and_grad = reference.logp_and_grad_fn()
        expected = np.array(
            [logp_and_grad(x)[0] for x in draws]
        ) - guide.log_density(draws)
        assert np.array_equal(ratios, expected)

    def test_too_narrow_guide_fails_the_gate(self):
        # sigma_q^2 = 0.25 < 1/2: the importance weights have infinite
        # variance, exactly the regime PSIS exists to flag.
        model = StdNormal(2)
        guide = AdviResult(mu=np.zeros(2), log_sigma=np.log(np.full(2, 0.5)))
        draws = guide.sample(2000, np.random.default_rng(1))
        diag = psis(surrogate_log_ratios(model, guide, draws))
        assert not diag.reliable()

    def test_subsamples_to_max_draws(self):
        model = StdNormal(2)
        guide = AdviResult(mu=np.zeros(2), log_sigma=np.zeros(2))
        draws = guide.sample(500, np.random.default_rng(2))
        ratios = surrogate_log_ratios(model, guide, draws, max_draws=100)
        assert ratios.shape == (100,)

    def test_rejects_non_matrix_draws(self):
        model = StdNormal(2)
        guide = AdviResult(mu=np.zeros(2), log_sigma=np.zeros(2))
        with pytest.raises(ValueError, match="draws must be"):
            surrogate_log_ratios(model, guide, np.zeros(5))
