"""Tests for the distribution census, subsampling advice, MCSE, and the
ESS-based elision policy."""

import math

import numpy as np
import pytest

from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.core.elision import StopRule
from repro.core.subsample import recommend_subsample, _scaled_working_set
from repro.diagnostics.mcse import mcse_mean
from repro.suite.analysis import (
    distribution_census,
    distributions_in_workload,
    special_function_requirements,
)
from repro.suite.registry import WORKLOAD_CLASSES
from tests.test_arch_machine import make_profile
from tests.test_core_elision import synthetic_result


class TestDistributionCensus:
    def test_every_workload_uses_known_distributions(self):
        for cls in WORKLOAD_CLASSES:
            assert distributions_in_workload(cls), cls.name

    def test_gaussian_family_most_popular(self):
        census = distribution_census()
        assert max(census, key=census.get) == "gaussian"

    def test_cauchy_in_top_families(self):
        census = distribution_census()
        assert census.get("cauchy", 0) >= 3  # half-Cauchy scale priors

    def test_special_function_requirements(self):
        needs = special_function_requirements()
        assert needs["exp/log"] == len(WORKLOAD_CLASSES)
        assert needs.get("lgamma", 0) >= 3   # count likelihoods
        assert needs.get("erf", 0) >= 8      # Gaussian family everywhere

    def test_census_on_subset(self):
        from repro.suite.twelve_cities import TwelveCities
        assert any(
            call.startswith("poisson")
            for call in distributions_in_workload(TwelveCities)
        )


class TestSubsample:
    def test_small_workload_needs_no_subsampling(self):
        profile = make_profile(data_bytes=4 * 1024, intermediate_kb=20)
        plan = recommend_subsample(profile, SKYLAKE, n_active_chains=4)
        assert not plan.subsampling_needed
        assert plan.fits
        assert plan.data_fraction == 1.0

    def test_large_workload_gets_fraction(self):
        profile = make_profile(data_bytes=460 * 1024, intermediate_kb=1100)
        plan = recommend_subsample(profile, SKYLAKE, n_active_chains=4)
        assert plan.subsampling_needed
        assert 0.0 < plan.data_fraction < 1.0
        assert plan.fits

    def test_bigger_llc_needs_less_subsampling(self):
        profile = make_profile(data_bytes=460 * 1024, intermediate_kb=1100)
        sky = recommend_subsample(profile, SKYLAKE, n_active_chains=4)
        bdw = recommend_subsample(profile, BROADWELL, n_active_chains=4)
        assert bdw.data_fraction >= sky.data_fraction

    def test_fewer_chains_need_less_subsampling(self):
        profile = make_profile(data_bytes=460 * 1024, intermediate_kb=1100)
        one = recommend_subsample(profile, SKYLAKE, n_active_chains=1)
        four = recommend_subsample(profile, SKYLAKE, n_active_chains=4)
        assert one.data_fraction >= four.data_fraction

    def test_scaled_working_set_monotone(self):
        profile = make_profile(data_bytes=100 * 1024, intermediate_kb=500)
        fractions = [0.1, 0.5, 1.0]
        ws = [_scaled_working_set(profile, f) for f in fractions]
        assert ws == sorted(ws)

    def test_validation(self):
        profile = make_profile()
        with pytest.raises(ValueError, match="n_active_chains"):
            recommend_subsample(profile, SKYLAKE, n_active_chains=0)


class TestMcse:
    def test_mcse_mean_iid(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=(4, 2000))
        # iid draws: MCSE ~ sd / sqrt(N) = 1 / sqrt(8000) ~ 0.011
        assert mcse_mean(draws) == pytest.approx(1.0 / np.sqrt(8000), rel=0.3)

    def test_correlated_draws_larger_mcse(self):
        rng = np.random.default_rng(1)
        n = 2000
        corr = np.zeros((2, n))
        for c in range(2):
            eps = rng.normal(size=n)
            for t in range(1, n):
                corr[c, t] = 0.95 * corr[c, t - 1] + eps[t]
        iid = rng.normal(size=(2, n)) * corr.std()
        assert mcse_mean(corr) > 2 * mcse_mean(iid)


def ess_rule(target, **schedule):
    """The stopping ablation's ESS-only rule: no R-hat threshold."""
    return StopRule(rhat_below=math.inf, ess_at_least=target, **schedule)


class TestEssDetector:
    def test_detects_on_converged_chains(self):
        result = synthetic_result(n_kept=600, converge_after=1, seed=3)
        rule = ess_rule(200, check_interval=50)
        report = rule.replay(result)
        assert report.converged
        assert len(report.trace) == len(report.checkpoints)

    def test_higher_target_detects_later(self):
        result = synthetic_result(n_kept=600, converge_after=1, seed=4)
        low = ess_rule(100).replay(result)
        high = ess_rule(800).replay(result)
        assert low.converged
        if high.converged:
            assert high.converged_iteration >= low.converged_iteration

    def test_unreachable_target(self):
        result = synthetic_result(n_kept=100, converge_after=1, seed=5)
        report = ess_rule(10 ** 6).replay(result)
        assert not report.converged

    def test_validation(self):
        # A floor of 0 is the paper's rule, not an error; a negative or
        # non-numeric one is.
        assert StopRule(ess_at_least=0).ess_at_least == 0
        with pytest.raises(ValueError, match="ess_at_least"):
            ess_rule(-1)
        with pytest.raises(ValueError, match="check_interval"):
            ess_rule(400, check_interval=0)
