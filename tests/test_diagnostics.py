"""Tests for R-hat, ESS, KL divergence, and posterior summaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.diagnostics import (
    effective_sample_size,
    format_summary,
    gaussian_kl,
    max_rhat,
    min_ess,
    split_rhat,
    summarize,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestGelmanRubin:
    """The Gelman-Rubin comparison, in its one (split) form."""

    def test_converged_chains_near_one(self, rng):
        draws = rng.normal(size=(4, 500))
        assert abs(split_rhat(draws) - 1.0) < 0.05

    def test_shifted_chain_detected(self, rng):
        draws = rng.normal(size=(4, 500))
        draws[0] += 5.0
        assert split_rhat(draws) > 1.5

    def test_requires_two_chains(self):
        # One chain has no other to agree with: the worst R-hat (and the
        # summary's) is nan, not the R-hat of its two halves.
        assert np.isnan(max_rhat(np.zeros((1, 100, 1))))
        assert np.isnan(summarize(np.zeros((1, 100, 1)))[0].rhat)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="n_chains"):
            split_rhat(np.zeros(100))

    def test_single_draw_is_inf(self):
        assert split_rhat(np.zeros((4, 1))) == float("inf")

    def test_identical_constant_chains_converged(self):
        assert split_rhat(np.full((4, 100), 3.0)) == 1.0

    def test_distinct_constant_chains_diverged(self):
        draws = np.zeros((2, 100))
        draws[1] = 1.0
        assert split_rhat(draws) == float("inf")

    def test_more_draws_tightens_rhat(self, rng):
        small = split_rhat(rng.normal(size=(4, 20)))
        large = split_rhat(rng.normal(size=(4, 2000)))
        assert abs(large - 1.0) < abs(small - 1.0) + 0.05


class TestSplitRhat:
    def test_detects_within_chain_drift(self, rng):
        # Each chain trends upward: classic R-hat can miss it, split cannot.
        trend = np.linspace(0, 5, 400)
        draws = rng.normal(size=(4, 400)) * 0.1 + trend
        assert split_rhat(draws) > 1.5

    def test_stationary_chains_near_one(self, rng):
        draws = rng.normal(size=(4, 400))
        assert abs(split_rhat(draws) - 1.0) < 0.05

    def test_too_short_is_inf(self):
        assert split_rhat(np.zeros((4, 3))) == float("inf")


class TestMaxRhat:
    def test_takes_worst_parameter(self, rng):
        draws = rng.normal(size=(4, 300, 3))
        draws[0, :, 2] += 10.0
        assert max_rhat(draws) > 1.5

    def test_requires_3d(self):
        with pytest.raises(ValueError, match="dim"):
            max_rhat(np.zeros((4, 100)))

    def test_split_variant(self, rng):
        draws = rng.normal(size=(4, 300, 2))
        assert abs(max_rhat(draws) - 1.0) < 0.1
        # Chains that each drift the same way agree with each other; only
        # the split form, the one max_rhat reduces, sees the drift.
        draws += np.linspace(0, 10, 300)[None, :, None]
        assert max_rhat(draws) > 1.5


class TestEffectiveSampleSize:
    def test_iid_close_to_total(self, rng):
        draws = rng.normal(size=(4, 1000))
        ess = effective_sample_size(draws)
        assert 0.5 * 4000 < ess <= 4000

    def test_correlated_much_smaller(self, rng):
        # AR(1) with phi = 0.95 has tau ~ (1+phi)/(1-phi) = 39.
        n = 2000
        draws = np.zeros((2, n))
        for c in range(2):
            eps = rng.normal(size=n)
            for t in range(1, n):
                draws[c, t] = 0.95 * draws[c, t - 1] + eps[t]
        ess = effective_sample_size(draws)
        assert ess < 0.15 * 2 * n

    def test_accepts_1d(self, rng):
        assert effective_sample_size(rng.normal(size=500)) > 100

    def test_tiny_input(self):
        assert effective_sample_size(np.zeros((2, 3))) == 6.0

    def test_min_ess_requires_3d(self):
        with pytest.raises(ValueError, match="dim"):
            min_ess(np.zeros((2, 10)))

    def test_min_ess_picks_worst(self, rng):
        n = 1000
        good = rng.normal(size=(2, n))
        bad = np.zeros((2, n))
        for c in range(2):
            eps = rng.normal(size=n)
            for t in range(1, n):
                bad[c, t] = 0.97 * bad[c, t - 1] + eps[t]
        draws = np.stack([good, bad], axis=2)
        assert np.isclose(
            min_ess(draws),
            min(effective_sample_size(good), effective_sample_size(bad)),
        )


class TestGaussianKL:
    def test_identical_distributions_near_zero(self, rng):
        p = rng.normal(size=(4000, 2))
        q = rng.normal(size=(4000, 2))
        assert gaussian_kl(p, q) < 0.01

    def test_matches_closed_form_for_shifted_gaussians(self, rng):
        # KL(N(mu,1) || N(0,1)) = mu^2/2
        mu = 1.5
        p = rng.normal(mu, 1.0, size=(20000, 1))
        q = rng.normal(0.0, 1.0, size=(20000, 1))
        assert abs(gaussian_kl(p, q) - mu ** 2 / 2) < 0.1

    def test_asymmetry(self, rng):
        p = rng.normal(0, 1.0, size=(5000, 1))
        q = rng.normal(0, 3.0, size=(5000, 1))
        assert gaussian_kl(p, q) != pytest.approx(gaussian_kl(q, p), rel=0.01)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="more samples"):
            gaussian_kl(np.zeros((3, 5)), np.zeros((3, 5)))

    def test_nonnegative(self, rng):
        for _ in range(5):
            p = rng.normal(size=(200, 3))
            q = rng.normal(size=(200, 3)) * rng.uniform(0.5, 2.0)
            assert gaussian_kl(p, q) >= 0.0


class TestSummary:
    def test_values(self, rng):
        draws = rng.normal(2.0, 0.5, size=(4, 500, 1))
        (summary,) = summarize(draws, names=["mu"])
        assert abs(summary.mean - 2.0) < 0.1
        assert abs(summary.sd - 0.5) < 0.1
        assert summary.q05 < summary.q50 < summary.q95
        assert summary.rhat < 1.05

    def test_default_names(self, rng):
        rows = summarize(rng.normal(size=(2, 100, 3)))
        assert [r.name for r in rows] == ["theta[0]", "theta[1]", "theta[2]"]

    def test_name_count_validation(self, rng):
        with pytest.raises(ValueError, match="names"):
            summarize(rng.normal(size=(2, 100, 3)), names=["a"])

    def test_format_contains_header_and_rows(self, rng):
        text = format_summary(rng.normal(size=(2, 100, 2)), names=["a", "b"])
        assert "rhat" in text.splitlines()[0]
        assert len(text.splitlines()) == 3


# -- the parent's per-parameter loop, kept as the reference --------------------
#
# One scalar series at a time: an FFT per chain, a Python ``while`` for
# Geyer's truncation, three ``np.quantile`` calls per parameter. The
# array-valued implementations in ``repro.diagnostics`` must agree with it.


def _reference_autocovariance(x):
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    return np.fft.irfft(f * np.conjugate(f), size)[:n].real / n


def _reference_degenerate(draws):
    scale_sq = float(np.max(np.abs(draws))) ** 2
    return 1e-20 * max(scale_sq, np.finfo(float).tiny)


def _reference_ess(draws):
    n_chains, n_draws = draws.shape
    if n_draws < 4:
        return float(n_chains * n_draws)
    acov = np.stack(
        [_reference_autocovariance(draws[c]) for c in range(n_chains)]
    )
    mean_var = acov[:, 0].mean() * n_draws / (n_draws - 1)
    var_plus = mean_var * (n_draws - 1) / n_draws
    if n_chains > 1:
        var_plus += draws.mean(axis=1).var(ddof=1)
    if var_plus <= _reference_degenerate(draws):
        return float(n_chains * n_draws)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    total, prev_pair, t = 0.0, np.inf, 1
    while t + 1 < n_draws:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev_pair)
        total += pair
        prev_pair = pair
        t += 2
    tau = 1.0 + 2.0 * total
    return float(min(n_chains * n_draws / max(tau, 1e-12), n_chains * n_draws))


def _reference_rhat(draws):
    if draws.shape[0] < 2:
        return float("nan")  # summarize's rule for a single chain
    half = draws.shape[1] // 2
    draws = np.concatenate([draws[:, :half], draws[:, half:2 * half]])
    n_chains, n_draws = draws.shape
    if n_draws < 2:
        return float("inf")
    within = draws.var(axis=1, ddof=1).mean()
    between = n_draws * draws.mean(axis=1).var(ddof=1)
    degenerate = _reference_degenerate(draws)
    if within <= degenerate:
        return 1.0 if between <= n_draws * degenerate else float("inf")
    var_estimate = (n_draws - 1) / n_draws * within + between / n_draws
    return float(np.sqrt(var_estimate / within))


def _reference_summarize(draws):
    rows = []
    for k in range(draws.shape[2]):
        flat = draws[:, :, k].reshape(-1)
        rows.append((
            float(flat.mean()),
            float(flat.std(ddof=1)),
            float(np.quantile(flat, 0.05)),
            float(np.quantile(flat, 0.50)),
            float(np.quantile(flat, 0.95)),
            _reference_ess(draws[:, :, k]),
            _reference_rhat(draws[:, :, k]),
        ))
    return np.array(rows)


@st.composite
def draw_blocks(draw):
    """(n_chains, n_draws, dim) autocorrelated draws with the columns the
    degeneracy rules exist for: a constant one, an affine-shifted constant
    one (constant up to the shift's rounding) and one holding an ``inf``."""
    n_chains = draw(st.sampled_from([1, 2, 4]))
    n_draws = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 31, 64]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(size=(n_chains, n_draws, dim))
    block = draw(st.floats(0.0, 0.5)) * np.cumsum(noise, axis=1) + noise
    special = {
        "constant": np.full((n_chains, n_draws), 3.0),
        "shifted": np.full((n_chains, n_draws), 0.1) * 3.0 + 1e6,
        "inf": np.where(
            np.arange(n_chains * n_draws).reshape(n_chains, n_draws) == 1,
            np.inf, rng.normal(size=(n_chains, n_draws)),
        ),
    }
    for kind in draw(st.lists(st.sampled_from(sorted(special)), unique=True)):
        block = np.concatenate([block, special[kind][:, :, None]], axis=2)
    return block


class TestArrayValuedAgainstTheLoop:
    @given(draw_blocks())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_parameter_reference(self, block):
        n_chains, n_draws, dim = block.shape
        with np.errstate(all="ignore"):
            reference = _reference_summarize(block)
        rows = summarize(block)
        got = np.array([
            [r.mean, r.sd, r.q05, r.q50, r.q95, r.ess, r.rhat] for r in rows
        ])
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0.0)
        ess = effective_sample_size(block)
        assert ess.shape == (dim,)
        np.testing.assert_array_equal(ess, got[:, 5])
        assert min_ess(block) == pytest.approx(ess.min(), nan_ok=True)
        for k in range(dim):  # the (n_chains, n_draws) form is the same code
            assert effective_sample_size(block[:, :, k]) == pytest.approx(
                ess[k], rel=1e-12, nan_ok=True
            )
        if n_chains > 1:
            rhat = split_rhat(block)
            assert rhat.shape == (dim,)
            np.testing.assert_array_equal(rhat, got[:, 6])
            assert max_rhat(block) == pytest.approx(rhat.max(), nan_ok=True)
        else:
            assert np.isnan(got[:, 6]).all() and np.isnan(max_rhat(block))

    @given(draw_blocks())
    @settings(max_examples=50, deadline=None)
    def test_degenerate_columns_are_exact(self, block):
        n_chains, n_draws, _ = block.shape
        constant = np.full((n_chains, n_draws, 1), 0.1) * 3.0 + 1e6
        (row,) = summarize(np.concatenate([block, constant], axis=2))[-1:]
        assert row.ess == float(n_chains * n_draws)
        assert row.ess == _reference_ess(constant[:, :, 0])
        if n_chains > 1 and n_draws >= 4:  # two draws in each half
            assert row.rhat == 1.0

    def test_split_rhat_is_array_valued_too(self, rng):
        block = rng.normal(size=(3, 40, 5))
        block[0, :, 2] += np.linspace(0, 4, 40)
        np.testing.assert_array_equal(
            split_rhat(block),
            [split_rhat(block[:, :, k]) for k in range(5)],
        )
        assert max_rhat(block) == split_rhat(block).max()
