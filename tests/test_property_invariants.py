"""Property-based tests on cross-cutting invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import value_and_grad
from repro.diagnostics import effective_sample_size, gaussian_kl, split_rhat
from repro.diagnostics.rhat import by_parameter, degenerate_variance
from repro.models import distributions as dist

chain_draws = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 5), st.integers(8, 60)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)

positive_floats = st.floats(min_value=0.1, max_value=5.0)
finite_floats = st.floats(min_value=-5.0, max_value=5.0)


def _halves(draws):
    """Each chain (the second-to-last axis) split in two, as split R-hat
    splits it."""
    half = draws.shape[-1] // 2
    return np.concatenate(
        [draws[..., :half], draws[..., half:2 * half]], axis=-2
    )


def _called_constant(draws):
    """Whether R-hat answers ``draws`` by its constant-series rule (1.0 or
    inf by design, within-half-chain variance at or under
    ``rhat.degenerate_variance``) instead of as a ratio of variances."""
    block = _halves(by_parameter(draws)[0])
    within = block.var(axis=2, ddof=1).mean(axis=1)
    return bool(within[0] <= degenerate_variance(block)[0])


def _affine_rtol(*blocks):
    """Relative tolerance for R-hat compared across ``blocks`` (raw and
    transformed draws, none of them constant).

    Every draw is rounded to an ulp of its block's *magnitude* M, an error of
    eps * M against a within-chain spread sigma, so R-hat agrees to a
    multiple of eps * M / sigma: draws of spread 4e-13 shifted by 1.0 keep
    three digits, not six. A variance down among the subnormals resolves no
    finer than the smallest of them, the second term.
    """
    info = np.finfo(float)
    worst = 0.0
    for block in blocks:
        within = _halves(block).var(axis=1, ddof=1).mean()
        worst = max(
            worst,
            64 * info.eps * np.abs(block).max() / np.sqrt(within)
            + 8 * info.smallest_subnormal / within,
        )
    return 1e-6 + worst


class TestRhatProperties:
    @given(chain_draws)
    @settings(max_examples=30, deadline=None)
    def test_chain_permutation_invariance(self, draws):
        base = split_rhat(draws)
        permuted = split_rhat(draws[::-1])
        assert np.isclose(base, permuted, equal_nan=True) or (
            np.isinf(base) and np.isinf(permuted)
        )

    @given(chain_draws, finite_floats, positive_floats)
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, draws, shift, scale):
        shifted = draws * scale + shift
        base = split_rhat(draws)
        # Skipped only where R-hat calls either side constant: the shift
        # can round a small spread away entirely, and a constant series is
        # answered 1.0 or inf by rule, not by the ratio the property is about.
        if _called_constant(draws) or _called_constant(shifted):
            return
        if np.isfinite(base):
            assert np.isclose(
                base, split_rhat(shifted), rtol=_affine_rtol(draws, shifted)
            )

    def test_affine_invariance_of_a_spread_far_below_the_shift(self):
        # The example hypothesis used to find now and then: rtol=1e-6 on
        # these read 1.0606601717798212 against 1.0606601848639245.
        draws = np.zeros((2, 8))
        draws[0, 0], draws[1, 3] = 1e-9, -1e-9
        assert not _called_constant(draws + 1.0)
        rtol = _affine_rtol(draws, draws + 1.0)
        assert 1e-6 < rtol < 1e-3
        assert np.isclose(
            split_rhat(draws), split_rhat(draws + 1.0), rtol=rtol
        )
        # A spread 1e-12 of the shift is past the diagnostic's own floor.
        assert _called_constant(draws * 1e-3 + 1.0)
        assert split_rhat(draws * 1e-3 + 1.0) == 1.0

    def test_affine_invariance_of_a_subnormal_variance(self):
        # rtol=1e-6 reads 1.0599667031396345 against 1.0625592962581036: the
        # within-chain variance is ~1e-321 and keeps a few bits.
        draws = np.zeros((2, 8))
        draws[0, 0], draws[1, 3] = 1e-160, -1.3e-160
        assert not _called_constant(draws) and not _called_constant(draws * 0.3)
        rtol = _affine_rtol(draws, draws * 0.3)
        assert 1e-2 < rtol < 0.5
        assert np.isclose(
            split_rhat(draws), split_rhat(draws * 0.3), rtol=rtol
        )

    @given(chain_draws)
    @settings(max_examples=30, deadline=None)
    def test_rhat_at_least_asymptotic_floor(self, draws):
        value = split_rhat(draws)
        n = draws.shape[1] // 2  # draws per half-chain
        # R-hat can dip slightly below 1 for finite n but never below
        # sqrt((n-1)/n).
        assert value >= np.sqrt((n - 1) / n) - 1e-9


class TestEssProperties:
    @given(chain_draws)
    @settings(max_examples=20, deadline=None)
    def test_bounded_by_total_draws(self, draws):
        ess = effective_sample_size(draws)
        assert 0 < ess <= draws.size + 1e-9

    @given(chain_draws, finite_floats, positive_floats)
    @settings(max_examples=20, deadline=None)
    def test_affine_invariance(self, draws, shift, scale):
        shifted = draws * scale + shift
        # As for R-hat: a series either side calls constant has no spread
        # left to be invariant about, and the rest agree to what the draws'
        # magnitude-over-spread (and a subnormal variance) can resolve.
        if _called_constant(draws) or _called_constant(shifted):
            return
        assert np.isclose(
            effective_sample_size(draws), effective_sample_size(shifted),
            rtol=_affine_rtol(draws, shifted),
        )

    def test_affine_invariance_of_a_subnormal_variance(self):
        # The flat rtol=1e-6 this property used to compare at reads 13.46
        # against 11.91 here: the autocovariances are ~1e-321 and keep a
        # few bits each.
        draws = np.zeros((2, 8))
        draws[0, 0], draws[1, 3] = 1e-160, -1.3e-160
        assert not _called_constant(draws) and not _called_constant(draws * 0.3)
        a = effective_sample_size(draws)
        b = effective_sample_size(draws * 0.3)
        assert not np.isclose(a, b, rtol=1e-6)
        assert np.isclose(a, b, rtol=_affine_rtol(draws, draws * 0.3))


class TestKlProperties:
    @given(st.integers(0, 1000), positive_floats, finite_floats)
    @settings(max_examples=15, deadline=None)
    def test_shared_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(300, 2))
        q = rng.normal(0.5, 1.3, size=(300, 2))
        base = gaussian_kl(p, q)
        transformed = gaussian_kl(p * scale + shift, q * scale + shift)
        assert np.isclose(base, transformed, rtol=1e-6, atol=1e-9)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_self_kl_near_zero(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(500, 3))
        assert gaussian_kl(p, p.copy()) < 1e-9


class TestLpdfDecomposition:
    """Summed log densities must decompose over data partitions."""

    @given(
        hnp.arrays(dtype=float, shape=st.integers(2, 10),
                   elements=st.floats(min_value=-3, max_value=3)),
        finite_floats, positive_floats,
    )
    @settings(max_examples=25, deadline=None)
    def test_normal_partition_additivity(self, x, mu, sigma):
        k = len(x) // 2

        def total(v):
            return dist.normal_lpdf(x, v[0], sigma)

        def split(v):
            return (dist.normal_lpdf(x[:k], v[0], sigma)
                    + dist.normal_lpdf(x[k:], v[0], sigma))

        v0 = np.array([mu])
        t, gt = value_and_grad(total, v0)
        s, gs = value_and_grad(split, v0)
        assert np.isclose(t, s, rtol=1e-9, atol=1e-9)
        assert np.allclose(gt, gs, rtol=1e-9, atol=1e-9)

    @given(
        hnp.arrays(dtype=np.int64, shape=st.integers(2, 10),
                   elements=st.integers(0, 20)),
        finite_floats,
    )
    @settings(max_examples=25, deadline=None)
    def test_poisson_partition_additivity(self, counts, log_rate):
        k = len(counts) // 2

        def total(v):
            return dist.poisson_log_lpmf(counts, v[0])

        def split(v):
            return (dist.poisson_log_lpmf(counts[:k], v[0])
                    + dist.poisson_log_lpmf(counts[k:], v[0]))

        v0 = np.array([log_rate])
        t, _ = value_and_grad(total, v0)
        s, _ = value_and_grad(split, v0)
        assert np.isclose(t, s, rtol=1e-9, atol=1e-8)

    @given(
        hnp.arrays(dtype=np.int64, shape=st.integers(2, 10),
                   elements=st.integers(0, 1)),
        hnp.arrays(dtype=float, shape=st.integers(2, 10),
                   elements=st.floats(min_value=-4, max_value=4)),
    )
    @settings(max_examples=25, deadline=None)
    def test_bernoulli_matches_numpy_reference(self, y, eta):
        n = min(len(y), len(eta))
        y, eta = y[:n], eta[:n]

        def f(v):
            return dist.bernoulli_logit_lpmf(y, v)

        value, _ = value_and_grad(f, eta)
        assert np.isclose(
            value, dist.bernoulli_logit_logpmf_np(y, eta), rtol=1e-9
        )
