"""Tests for the ChainResult/SamplingResult containers."""

import numpy as np
import pytest

from repro.inference.results import ChainResult, SamplingResult


def make_chain(n_total=20, n_warmup=8, dim=2, seed=0, work=3.0):
    rng = np.random.default_rng(seed)
    return ChainResult(
        samples=rng.normal(size=(n_total, dim)),
        logps=rng.normal(size=n_total),
        work_per_iteration=np.full(n_total, work),
        n_warmup=n_warmup,
        accept_rate=0.85,
        divergences=seed,  # distinct per chain for the aggregation test
    )


@pytest.fixture
def result():
    return SamplingResult(
        model_name="toy",
        chains=[make_chain(seed=s, work=3.0 + s) for s in range(3)],
        param_names=["a", "b"],
    )


class TestChainResult:
    def test_kept_excludes_warmup(self):
        chain = make_chain(n_total=20, n_warmup=8)
        assert chain.kept.shape == (12, 2)
        assert chain.n_iterations == 20

    def test_total_work(self):
        chain = make_chain(n_total=20, work=2.0)
        assert chain.total_work == 40.0

    def test_work_through_clamps(self):
        chain = make_chain(n_total=20, n_warmup=8, work=1.0)
        assert chain.work_through(5) == 13.0       # warmup + 5
        assert chain.work_through(100) == 20.0      # clamped to total


class TestSamplingResult:
    def test_shapes(self, result):
        assert result.n_chains == 3
        assert result.n_kept == 12
        assert result.stacked().shape == (3, 12, 2)
        assert result.pooled().shape == (36, 2)

    def test_second_half_only(self, result):
        assert result.stacked(second_half_only=True).shape == (3, 6, 2)

    def test_work_aggregates(self, result):
        assert result.total_work == (3 + 4 + 5) * 20
        assert max(result.chain_work) == 100.0
        assert np.allclose(result.chain_work, [60.0, 80.0, 100.0])

    def test_divergences_summed(self, result):
        assert result.divergences == 0 + 1 + 2

    def test_accept_rates(self, result):
        assert np.allclose([c.accept_rate for c in result.chains], 0.85)

    def test_constrained_maps_draws(self, result):
        class FakeModel:
            params = []

            def __init__(self):
                from repro.models import ParameterSpec
                self.params = [ParameterSpec("a", 1), ParameterSpec("b", 1)]

            def constrain(self, x):
                return {"a": np.array([x[0]]), "b": np.array([x[1] * 2])}

        constrained = result.constrained(FakeModel())
        assert constrained["a"].shape == (36, 1)
        assert np.allclose(constrained["b"], result.pooled()[:, 1:2] * 2)

    def test_repr(self, result):
        assert "toy" in repr(result)
