"""Extra coverage for warmup adaptation and sampler edge cases."""

import numpy as np
import pytest

from repro.inference.adaptation import (
    DualAveraging,
    WelfordVariance,
    find_reasonable_step_size_steps,
)
from repro.inference import HMC, NUTS, MetropolisHastings, run_chains
from repro.inference.stepper import drive_steps
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist


class Narrow(BayesianModel):
    """Tightly scaled Gaussian: probing must find a small step."""

    name = "narrow"
    scale = 0.01

    @property
    def params(self):
        return [ParameterSpec("x", 2, init=0.0)]

    def log_joint(self, p):
        return dist.normal_lpdf(p["x"], 0.0, self.scale)


class Wide(BayesianModel):
    name = "wide-target"
    scale = 10.0

    @property
    def params(self):
        return [ParameterSpec("x", 2, init=0.0)]

    def log_joint(self, p):
        return dist.normal_lpdf(p["x"], 0.0, self.scale)


def find_reasonable_step_size(logp_and_grad, x0, rng, inv_mass):
    return drive_steps(
        find_reasonable_step_size_steps(x0, rng, inv_mass), logp_and_grad
    )


class TestFindReasonableStepSize:
    def test_narrow_target_gets_small_step(self):
        rng = np.random.default_rng(0)
        step = find_reasonable_step_size(
            Narrow().logp_and_grad, np.zeros(2), rng, np.ones(2)
        )
        assert step < 0.3

    def test_wide_target_gets_large_step(self):
        rng = np.random.default_rng(0)
        narrow = find_reasonable_step_size(
            Narrow().logp_and_grad, np.zeros(2), rng, np.ones(2)
        )
        wide = find_reasonable_step_size(
            Wide().logp_and_grad, np.zeros(2), rng, np.ones(2)
        )
        assert wide > 5 * narrow

    def test_step_clipped_to_sane_range(self):
        rng = np.random.default_rng(1)
        step = find_reasonable_step_size(
            Wide().logp_and_grad, np.zeros(2), rng, np.ones(2) * 1e6
        )
        assert 1e-8 <= step <= 1e3


class TestAdaptationConvergence:
    def test_nuts_acceptance_near_target(self):
        res = run_chains(Wide(), NUTS(target_accept=0.8), n_iterations=600,
                         n_chains=2, seed=0)
        for chain in res.chains:
            assert 0.6 < chain.accept_rate <= 1.0

    def test_mass_adaptation_handles_anisotropic_target(self):
        class Anisotropic(BayesianModel):
            name = "aniso"

            @property
            def params(self):
                return [ParameterSpec("x", 2, init=0.0)]

            def log_joint(self, p):
                scales = np.array([0.1, 10.0])
                return dist.normal_lpdf(p["x"], 0.0, scales)

        res = run_chains(Anisotropic(), NUTS(), n_iterations=900, n_chains=2,
                         seed=1)
        pooled = res.pooled()
        # Both scales recovered despite the 100x conditioning spread.
        assert abs(pooled[:, 0].std() - 0.1) < 0.04
        assert abs(pooled[:, 1].std() - 10.0) < 4.0

    def test_adapt_mass_disabled_still_samples(self):
        res = run_chains(Wide(), NUTS(adapt_mass=False), n_iterations=300,
                         n_chains=2, seed=2)
        assert np.isfinite(res.pooled()).all()

    def test_hmc_mass_refresh_keeps_step_finite(self):
        res = run_chains(Wide(), HMC(n_leapfrog=8), n_iterations=400,
                         n_chains=2, seed=3)
        for chain in res.chains:
            assert np.isfinite(chain.step_size)
            assert chain.step_size > 0

    def test_mh_without_adaptation(self):
        res = run_chains(
            Wide(), MetropolisHastings(proposal_scale=5.0, adapt_scale=False),
            n_iterations=500, n_chains=2, seed=4,
        )
        for chain in res.chains:
            assert chain.step_size == 5.0


class TestDualAveragingNumerics:
    def test_counts_tracked(self):
        da = DualAveraging(0.5)
        for _ in range(7):
            da.update(0.9)
        assert da.count == 7

    def test_extreme_accept_probabilities(self):
        da = DualAveraging(0.5)
        for accept in (0.0, 1.0, 0.0, 1.0):
            step = da.update(accept)
            assert np.isfinite(step) and step > 0

    def test_welford_single_dim(self):
        w = WelfordVariance(1)
        for v in (1.0, 2.0, 3.0, 4.0):
            w.update(np.array([v]))
        assert np.isclose(w.variance(regularize=False)[0],
                          np.var([1, 2, 3, 4], ddof=1))
