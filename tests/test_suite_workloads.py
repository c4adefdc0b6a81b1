"""Tests for every BayesSuite workload: gradients, registry, and inference
sanity on scaled-down datasets."""

import numpy as np
import pytest

from repro.autodiff.functional import finite_difference_grad
from repro.inference import NUTS, run_chains
from repro.suite import load_workload, table_one, workload_info, workload_names
from repro.suite.registry import WORKLOAD_CLASSES

ALL_NAMES = workload_names()


@pytest.fixture(scope="module")
def small_models():
    """Quarter-scale instances, shared across tests in this module."""
    return {name: load_workload(name, scale=0.25) for name in ALL_NAMES}


class TestRegistry:
    def test_ten_workloads(self):
        assert len(ALL_NAMES) == 10

    def test_table_one_order(self):
        assert ALL_NAMES == [
            "12cities", "ad", "ode", "memory", "votes",
            "tickets", "disease", "racial", "butterfly", "survival",
        ]

    def test_table_one_rows_complete(self):
        for row in table_one():
            assert row.model_family
            assert row.application
            assert row.reference
            assert row.default_iterations >= 500
            assert row.default_chains == 4

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            load_workload("nonexistent")

    def test_workload_info(self):
        info = workload_info("votes")
        assert info.model_family == "Hierarchical Gaussian Processes"

    def test_names_unique(self):
        assert len(set(ALL_NAMES)) == len(ALL_NAMES)

    def test_classes_match_names(self):
        assert [cls.name for cls in WORKLOAD_CLASSES] == ALL_NAMES


class TestModelBasics:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_logp_finite_at_init(self, small_models, name):
        model = small_models[name]
        rng = np.random.default_rng(0)
        x = model.initial_position(rng, jitter=0.2)
        assert np.isfinite(model.logp(x))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_gradient_matches_finite_differences(self, small_models, name):
        model = small_models[name]
        x = model.initial_position(np.random.default_rng(1), jitter=0.2)
        _, grad = model.logp_and_grad(x)
        numeric = finite_difference_grad(model.logp, x, eps=1e-5)
        assert np.allclose(grad, numeric, rtol=3e-3, atol=1e-4), name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dim_positive_and_consistent(self, small_models, name):
        model = small_models[name]
        assert model.dim >= 2
        x = model.initial_position(np.random.default_rng(2))
        assert x.shape == (model.dim,)
        assert len(model.flat_param_names()) >= len(model.params)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_modeled_data_registered(self, small_models, name):
        assert small_models[name].modeled_data_bytes > 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_deterministic_data_generation(self, name):
        a = load_workload(name, scale=0.25)
        b = load_workload(name, scale=0.25)
        for key, arr in a.data_arrays.items():
            assert np.array_equal(arr, b.data_arrays[key]), key


class TestDataScaling:
    def test_scale_shrinks_modeled_data(self):
        for name in ("tickets", "ad", "survival", "memory"):
            full = load_workload(name, scale=1.0).modeled_data_bytes
            half = load_workload(name, scale=0.5).modeled_data_bytes
            quarter = load_workload(name, scale=0.25).modeled_data_bytes
            assert full > half > quarter, name

    def test_full_scale_size_ordering_matches_paper(self):
        """Figure 3: tickets >> ad > survival > everything else."""
        sizes = {
            name: load_workload(name).modeled_data_bytes for name in ALL_NAMES
        }
        assert sizes["tickets"] > sizes["ad"] > sizes["survival"]
        others = [
            size for name, size in sizes.items()
            if name not in ("tickets", "ad", "survival")
        ]
        assert sizes["survival"] > max(others)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            load_workload("ad", scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            load_workload("ad", scale=1.5)


@pytest.mark.slow
class TestInferenceRecovery:
    """Short NUTS runs must move posteriors toward the generating truth.

    These are smoke-level checks (tight budgets); the benches run longer.
    """

    def _posterior(self, name, iters=240, chains=2, seed=0, scale=0.25):
        model = load_workload(name, scale=scale)
        result = run_chains(
            model, NUTS(max_tree_depth=7), n_iterations=iters,
            n_chains=chains, seed=seed,
        )
        return model, result

    def test_twelve_cities_recovers_negative_limit_effect(self):
        model, result = self._posterior("12cities", scale=0.5)
        draws = result.constrained(model)
        assert draws["beta_limit"].mean() < 0.0  # lowering limits saves lives

    def test_ad_recovers_strong_channel(self):
        model, result = self._posterior("ad", scale=0.5)
        draws = result.constrained(model)
        # beta_channel and saturation trade off; the identified quantity is
        # the attribution (contribution at mean exposure). TV (index 0)
        # dominates in the generator.
        mean_exposure = model.data("exposures").mean(axis=0)
        attribution = draws["beta_channel"].mean(axis=0) * np.log1p(
            draws["saturation"].mean(axis=0) * mean_exposure
        )
        assert np.argmax(attribution) == 0

    def test_memory_condition_slows_latency(self):
        model, result = self._posterior("memory", scale=0.5)
        draws = result.constrained(model)
        assert draws["beta_cond"].mean() > 0.05

    def test_tickets_detects_quota_matching(self):
        model, result = self._posterior("tickets", iters=200)
        draws = result.constrained(model)
        # Posterior target rate near the generating value of 14/month.
        target = np.exp(draws["log_target"]).mean()
        assert 8.0 < target < 22.0
        # A non-trivial fraction of quota months match the target.
        from scipy import special as sps
        assert sps.expit(draws["w_logit"]).mean() > 0.1

    def test_survival_recovers_rates(self):
        model, result = self._posterior("survival", scale=0.5)
        draws = result.constrained(model)
        from scipy import special as sps
        phi = sps.expit(draws["phi_logit"]).mean()
        p = sps.expit(draws["p_logit"]).mean()
        assert abs(phi - 0.78) < 0.15
        assert abs(p - 0.55) < 0.15

    def test_disease_curve_is_monotone(self):
        model, result = self._posterior("disease", scale=0.5)
        draws = result.constrained(model)
        curve = (draws["baseline"].mean(axis=0)
                 + model._basis @ draws["weights"].mean(axis=0))
        assert np.all(np.diff(curve) >= -1e-9)  # monotone non-decreasing

    def test_racial_thresholds_lower_for_minorities(self):
        model, result = self._posterior("racial", iters=300, scale=1.0)
        draws = result.constrained(model)
        race_thresholds = draws["race_threshold"].mean(axis=0)
        # Group 0 (majority) has the highest threshold in the generator.
        assert race_thresholds[0] > race_thresholds[1]

    def test_butterfly_richness_plausible(self):
        model, result = self._posterior("butterfly", scale=0.5)
        draws = result.constrained(model)
        from scipy import special as sps
        # Posterior expected number of species present per site.
        richness = sps.expit(draws["occ_logit"]).sum(axis=-1).mean()
        assert 5.0 < richness < 24.0

    def test_votes_recovers_state_means(self):
        model, result = self._posterior("votes", scale=1.0, iters=400)
        draws = result.constrained(model)
        est = draws["state_mean"].mean(axis=0)
        true = model.truth["state_mean"]
        # A constant offset can be absorbed by the long-lengthscale GP, so
        # the mean is only softly identified: require a clear positive
        # association and small absolute error, not exact recovery.
        assert np.corrcoef(est, true)[0, 1] > 0.5
        assert np.abs(est - true).mean() < 0.12

    def test_ode_posterior_near_truth(self):
        model, result = self._posterior("ode", iters=200, scale=1.0)
        draws = result.constrained(model)
        cl = draws["CL"].mean()
        assert 5.0 < cl < 20.0  # truth is 10


class TestWorkPatterns:
    def test_nuts_work_varies_across_chains(self):
        model = load_workload("12cities", scale=0.25)
        result = run_chains(model, NUTS(max_tree_depth=7), n_iterations=150,
                            n_chains=4, seed=5)
        works = result.chain_work
        assert works.max() > works.min()  # the slowest-chain effect

    def test_code_footprint_tickets_largest(self):
        footprints = {
            name: load_workload(name, scale=0.25).code_footprint_bytes
            for name in ALL_NAMES
        }
        assert max(footprints, key=footprints.get) == "tickets"
