"""Tests for the ADVI engine and the slice sampler."""

import numpy as np
import pytest

from repro.amortize.policy import surrogate_result
from repro.diagnostics import gaussian_kl, max_rhat
from repro.inference import ADVI, NUTS, SliceSampler, run_chains
from tests.test_inference import CorrelatedNormal, ScaleModel, StdNormal


class TestADVI:
    def test_recovers_gaussian_target(self):
        model = StdNormal(3)
        rng = np.random.default_rng(0)
        fit = ADVI(n_iterations=1500).fit(model, rng)
        assert np.allclose(fit.mu, 0.0, atol=0.2)
        assert np.allclose(fit.sigma, 1.0, atol=0.25)

    def test_elbo_improves_from_bad_start(self):
        model = StdNormal(2)
        fit = ADVI(n_iterations=1000).fit(
            model, np.random.default_rng(1), x0=np.full(2, 6.0)
        )
        trace = fit.elbo_trace
        assert len(trace) > 10
        assert np.mean(trace[-5:]) > np.mean(trace[:5])
        assert np.allclose(fit.mu, 0.0, atol=0.3)

    def test_counts_gradient_evaluations(self):
        fit = ADVI(n_iterations=100, n_mc_samples=2).fit(
            StdNormal(1), np.random.default_rng(2)
        )
        assert fit.n_gradient_evaluations == 200

    def test_transformed_model(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0.0, 2.0, size=100)
        model = ScaleModel(y)
        fit = ADVI(n_iterations=1500).fit(model, rng)
        draws = fit.sample(2000, rng)
        sigma = np.exp(draws[:, 0])   # Positive transform is exp
        assert abs(np.median(sigma) - 2.0) < 0.5

    def test_sampling_result_adapter(self):
        model = StdNormal(2)
        fit = ADVI(n_iterations=500).fit(model, np.random.default_rng(4))
        result = surrogate_result(model, fit, 2, 200, np.random.default_rng(0))
        assert result.n_chains == 2
        assert result.stacked().shape[2] == 2
        assert max_rhat(result.stacked()) < 1.05   # iid draws trivially pass

    def test_meanfield_underestimates_correlation_mass(self):
        """The paper's robustness point: VI's mean-field family cannot
        represent the correlated posterior, so its KL to NUTS draws is far
        above NUTS-vs-NUTS noise."""
        model = CorrelatedNormal()
        rng = np.random.default_rng(5)
        nuts_a = run_chains(model, NUTS(), n_iterations=800, n_chains=2,
                            seed=10).pooled()
        nuts_b = run_chains(model, NUTS(), n_iterations=800, n_chains=2,
                            seed=11).pooled()
        vi = ADVI(n_iterations=1500).fit(model, rng).sample(1600, rng)
        noise = gaussian_kl(nuts_a, nuts_b)
        vi_gap = gaussian_kl(vi, nuts_b)
        assert vi_gap > 5 * noise
        # And the VI draws carry (near) zero correlation.
        assert abs(np.corrcoef(vi.T)[0, 1]) < 0.2


class TestAdviDeterminism:
    """Bit-level guarantees the amortized serving tier leans on: a guide
    queried with the same seed must produce byte-identical draws, and a
    packaged surrogate result must survive the ResultStore's pickling."""

    def _fit(self):
        return ADVI(n_iterations=200).fit(StdNormal(3),
                                          np.random.default_rng(7))

    def test_fit_is_bitwise_deterministic(self):
        a, b = self._fit(), self._fit()
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.log_sigma, b.log_sigma)
        assert a.elbo_trace == b.elbo_trace

    def test_sample_is_bitwise_reproducible_under_seeded_generator(self):
        fit = self._fit()
        a = fit.sample(64, np.random.default_rng(123))
        b = fit.sample(64, np.random.default_rng(123))
        assert a.shape == (64, 3)
        assert np.array_equal(a, b)
        # A different seed must not replay the same stream.
        c = fit.sample(64, np.random.default_rng(124))
        assert not np.array_equal(a, c)

    def test_log_density_matches_sampled_draws(self):
        fit = self._fit()
        draws = fit.sample(16, np.random.default_rng(0))
        logq = fit.log_density(draws)
        assert logq.shape == (16,)
        # Brute-force diagonal Gaussian density for one row.
        z = (draws[0] - fit.mu) / fit.sigma
        expect = (-0.5 * z @ z - fit.log_sigma.sum()
                  - 0.5 * 3 * np.log(2 * np.pi))
        assert np.isclose(logq[0], expect)

    def test_surrogate_result_roundtrips_result_store(self, tmp_path):
        from repro.serve import JobSpec, ResultStore, StoredResult

        model = StdNormal(2)
        fit = ADVI(n_iterations=200).fit(model, np.random.default_rng(9))
        result = surrogate_result(model, fit, 2, 50, np.random.default_rng(5))
        spec = JobSpec(workload="votes", mode="fast")
        ResultStore(directory=str(tmp_path)).put(
            spec.key(), StoredResult(spec=spec, result=result)
        )
        loaded = ResultStore(directory=str(tmp_path)).get(spec.key())
        assert loaded.spec == spec
        assert loaded.result.n_chains == result.n_chains
        assert loaded.result.param_names == result.param_names
        for got, want in zip(loaded.result.chains, result.chains):
            assert np.array_equal(got.samples, want.samples)

    def test_surrogate_result_is_seed_deterministic(self):
        model = StdNormal(2)
        fit = ADVI(n_iterations=200).fit(model, np.random.default_rng(9))
        a = surrogate_result(model, fit, 2, 50, np.random.default_rng(5))
        b = surrogate_result(model, fit, 2, 50, np.random.default_rng(5))
        assert all(
            np.array_equal(x.samples, y.samples)
            for x, y in zip(a.chains, b.chains)
        )


class TestSliceSampler:
    def test_recovers_standard_normal(self):
        res = run_chains(StdNormal(2), SliceSampler(), n_iterations=800,
                         n_chains=2, seed=0)
        pooled = res.pooled()
        assert abs(pooled.mean(axis=0)).max() < 0.15
        assert abs(pooled.std(axis=0) - 1.0).max() < 0.15
        assert max_rhat(res.stacked()) < 1.1

    def test_handles_scale_model(self):
        rng = np.random.default_rng(1)
        model = ScaleModel(rng.normal(0.0, 1.5, size=60))
        res = run_chains(model, SliceSampler(), n_iterations=400, n_chains=2,
                         seed=2)
        sigma = res.constrained(model)["sigma"]
        assert abs(sigma.mean() - 1.5) < 0.4

    def test_work_counts_density_evaluations(self):
        res = run_chains(StdNormal(3), SliceSampler(), n_iterations=50,
                         n_chains=1, seed=3)
        chain = res.chains[0]
        # At least (step-out bookkeeping + 1 shrink) per coordinate.
        assert chain.work_per_iteration.min() >= 3 * 3

    def test_width_adaptation_tracks_scale(self):
        class Wide(StdNormal):
            def log_joint(self, p):
                from repro.models import distributions as dist
                return dist.normal_lpdf(p["x"], 0.0, 8.0)

        res = run_chains(Wide(2), SliceSampler(initial_width=0.5),
                         n_iterations=400, n_chains=1, seed=4)
        assert res.chains[0].step_size > 1.5   # widths grew toward the scale

    def test_accept_rate_is_one(self):
        res = run_chains(StdNormal(1), SliceSampler(), n_iterations=30,
                         n_chains=1, seed=5)
        assert res.chains[0].accept_rate == 1.0
