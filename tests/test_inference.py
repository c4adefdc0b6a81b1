"""Tests for the samplers: adaptation, MH, HMC, NUTS, and the chain driver."""

import dataclasses

import numpy as np
import pytest

from repro.diagnostics import effective_sample_size, max_rhat
from repro.inference import (
    HMC,
    NUTS,
    MetropolisHastings,
    build_engine,
    chain_start,
    engine_names,
    run_chains,
)
from repro.inference.adaptation import DualAveraging, WelfordVariance
from repro.inference.hmc import kinetic_energy, leapfrog
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.models.transforms import Positive
from repro.serve.checkpoint import CheckpointStore
from tests.test_serve_resume import (
    N_ITERATIONS,
    N_WARMUP,
    _assert_chains_identical,
    _run_full,
    _snapshot_at,
)


class StdNormal(BayesianModel):
    """Standard normal target in `dim` dimensions (no data)."""

    name = "std-normal"

    def __init__(self, dim: int = 2):
        super().__init__()
        self._dim = dim

    @property
    def params(self):
        return [ParameterSpec("x", self._dim, init=0.0)]

    def log_joint(self, p):
        return dist.normal_lpdf(p["x"], 0.0, 1.0)


class CorrelatedNormal(BayesianModel):
    """Two-dimensional Gaussian with strong correlation."""

    name = "corr-normal"
    rho = 0.9

    @property
    def params(self):
        return [ParameterSpec("x", 2, init=0.0)]

    def log_joint(self, p):
        from repro.autodiff import ops
        x = p["x"]
        rho = self.rho
        quad = (
            ops.square(x[0]) - x[0] * x[1] * (2 * rho) + ops.square(x[1])
        ) / (1 - rho ** 2)
        return ops.sum(quad) * -0.5


class ScaleModel(BayesianModel):
    """Positive-constrained parameter to exercise transforms end to end."""

    name = "scale-model"

    def __init__(self, y):
        super().__init__()
        self.add_data(y=np.asarray(y, dtype=float))

    @property
    def params(self):
        return [ParameterSpec("sigma", 1, transform=Positive(), init=1.0)]

    def log_joint(self, p):
        return dist.normal_lpdf(self.data("y"), 0.0, p["sigma"]) + \
            dist.half_cauchy_lpdf(p["sigma"], 2.0)


class TestDualAveraging:
    def test_low_acceptance_shrinks_step(self):
        da = DualAveraging(initial_step_size=1.0, target=0.8)
        for _ in range(50):
            da.update(0.0)
        assert da.step_size < 0.1

    def test_high_acceptance_grows_step(self):
        da = DualAveraging(initial_step_size=0.1, target=0.8)
        for _ in range(50):
            da.update(1.0)
        assert da.step_size > 0.1

    def test_on_target_stays_put(self):
        da = DualAveraging(initial_step_size=0.5, target=0.8)
        for _ in range(200):
            da.update(0.8)
        assert 0.05 < da.adapted_step_size < 5.0

    def test_adapted_step_is_smoothed(self):
        da = DualAveraging(initial_step_size=0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            da.update(float(rng.uniform(0.6, 1.0)))
        assert np.isfinite(da.adapted_step_size)
        assert da.adapted_step_size > 0


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(200, 3)) * np.array([1.0, 2.0, 0.5])
        w = WelfordVariance(3)
        for row in data:
            w.update(row)
        assert np.allclose(w.variance(regularize=False), data.var(axis=0, ddof=1))
        assert np.allclose(w.mean, data.mean(axis=0))

    def test_regularization_shrinks_toward_unit(self):
        w = WelfordVariance(1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            w.update(rng.normal(size=1) * 10)
        raw = w.variance(regularize=False)
        reg = w.variance(regularize=True)
        assert reg < raw  # shrinkage with tiny n

    def test_too_few_samples_returns_ones(self):
        w = WelfordVariance(2)
        w.update(np.array([1.0, 2.0]))
        assert np.allclose(w.variance(), 1.0)

    def test_reset(self):
        w = WelfordVariance(2)
        w.update(np.ones(2))
        w.update(np.zeros(2))
        w.reset()
        assert w.count == 0
        assert np.allclose(w.mean, 0.0)


class TestLeapfrog:
    def test_energy_approximately_conserved(self):
        model = StdNormal(2)
        x = np.array([1.0, -0.5])
        p = np.array([0.3, 0.7])
        inv_mass = np.ones(2)
        logp, grad = model.logp_and_grad(x)
        h0 = -logp + kinetic_energy(p, inv_mass)
        for _ in range(100):
            x, p, logp, grad, _ = leapfrog(
                model.logp_and_grad, x, p, grad, 0.01, inv_mass
            )
        h1 = -logp + kinetic_energy(p, inv_mass)
        assert abs(h1 - h0) < 1e-3

    def test_reversibility(self):
        model = StdNormal(2)
        x0 = np.array([0.5, -1.0])
        p0 = np.array([0.2, 0.4])
        inv_mass = np.ones(2)
        _, grad0 = model.logp_and_grad(x0)
        x1, p1, _, grad1, _ = leapfrog(model.logp_and_grad, x0, p0, grad0, 0.1, inv_mass)
        # Flip momentum and step back.
        x2, p2, _, _, _ = leapfrog(model.logp_and_grad, x1, -p1, grad1, 0.1, inv_mass)
        assert np.allclose(x2, x0, atol=1e-12)
        assert np.allclose(-p2, p0, atol=1e-12)

    def test_counts_one_gradient_eval(self):
        model = StdNormal(1)
        _, grad = model.logp_and_grad(np.zeros(1))
        *_, n = leapfrog(model.logp_and_grad, np.zeros(1), np.ones(1), grad, 0.1,
                         np.ones(1))
        assert n == 1


class TestMetropolisHastings:
    def test_recovers_standard_normal(self):
        res = run_chains(
            StdNormal(1), MetropolisHastings(), n_iterations=4000, n_chains=4, seed=0
        )
        pooled = res.pooled()
        assert abs(pooled.mean()) < 0.1
        assert abs(pooled.std() - 1.0) < 0.1

    def test_acceptance_adapted_toward_target(self):
        res = run_chains(
            StdNormal(3), MetropolisHastings(), n_iterations=3000, n_chains=2, seed=0
        )
        for rate in res.accept_rates:
            assert 0.1 < rate < 0.45

    def test_work_is_one_per_iteration(self):
        res = run_chains(
            StdNormal(1), MetropolisHastings(), n_iterations=100, n_chains=2, seed=0
        )
        assert res.total_work == 200


class TestHMC:
    @pytest.mark.slow
    def test_recovers_correlated_gaussian(self):
        res = run_chains(
            CorrelatedNormal(), HMC(n_leapfrog=8), n_iterations=1500, n_chains=4,
            seed=2,
        )
        pooled = res.pooled()
        corr = np.corrcoef(pooled.T)[0, 1]
        assert abs(pooled.mean(axis=0)).max() < 0.15
        assert abs(corr - CorrelatedNormal.rho) < 0.1

    def test_work_counts_leapfrogs(self):
        res = run_chains(
            StdNormal(1), HMC(n_leapfrog=8), n_iterations=50, n_chains=1, seed=0
        )
        chain = res.chains[0]
        # 8 leapfrogs + 1 bookkeeping eval per iteration
        assert np.all(chain.work_per_iteration >= 8)

    def test_rhat_converges(self):
        res = run_chains(
            StdNormal(2), HMC(n_leapfrog=8), n_iterations=800, n_chains=4, seed=3
        )
        assert max_rhat(res.stacked()) < 1.1


class TestNUTS:
    def test_recovers_standard_normal(self):
        res = run_chains(StdNormal(2), NUTS(), n_iterations=800, n_chains=4, seed=0)
        pooled = res.pooled()
        assert abs(pooled.mean(axis=0)).max() < 0.12
        assert abs(pooled.std(axis=0) - 1.0).max() < 0.12
        assert max_rhat(res.stacked()) < 1.05

    def test_recovers_correlated_gaussian(self):
        res = run_chains(
            CorrelatedNormal(), NUTS(), n_iterations=1000, n_chains=4, seed=1
        )
        pooled = res.pooled()
        corr = np.corrcoef(pooled.T)[0, 1]
        assert abs(corr - CorrelatedNormal.rho) < 0.08

    def test_transformed_parameter_end_to_end(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0.0, 2.5, size=80)
        model = ScaleModel(y)
        res = run_chains(model, NUTS(), n_iterations=600, n_chains=4, seed=2)
        sigma = res.constrained(model)["sigma"]
        assert np.all(sigma > 0)
        assert abs(sigma.mean() - 2.5) < 0.4

    def test_variable_work_per_iteration(self):
        res = run_chains(
            CorrelatedNormal(), NUTS(), n_iterations=300, n_chains=2, seed=0
        )
        work = res.chains[0].work_per_iteration
        assert work.min() >= 1
        assert work.max() > work.min()  # tree depth varies

    def test_tree_depths_recorded_and_bounded(self):
        sampler = NUTS(max_tree_depth=6)
        res = run_chains(StdNormal(2), sampler, n_iterations=200, n_chains=1, seed=0)
        depths = res.chains[0].tree_depths
        assert depths.max() <= 6
        assert depths.min() >= 1

    def test_deterministic_given_seed(self):
        a = run_chains(StdNormal(2), NUTS(), n_iterations=100, n_chains=2, seed=7)
        b = run_chains(StdNormal(2), NUTS(), n_iterations=100, n_chains=2, seed=7)
        assert np.array_equal(a.chains[0].samples, b.chains[0].samples)
        assert np.array_equal(a.chains[1].samples, b.chains[1].samples)

    def test_different_seeds_differ(self):
        a = run_chains(StdNormal(2), NUTS(), n_iterations=100, n_chains=1, seed=7)
        b = run_chains(StdNormal(2), NUTS(), n_iterations=100, n_chains=1, seed=8)
        assert not np.array_equal(a.chains[0].samples, b.chains[0].samples)

    def test_ess_beats_mh_per_iteration(self):
        n = 1200
        nuts = run_chains(CorrelatedNormal(), NUTS(), n_iterations=n, n_chains=2,
                          seed=4)
        mh = run_chains(CorrelatedNormal(), MetropolisHastings(), n_iterations=n,
                        n_chains=2, seed=4)
        nuts_ess = effective_sample_size(nuts.stacked()[:, :, 0])
        mh_ess = effective_sample_size(mh.stacked()[:, :, 0])
        assert nuts_ess > 2 * mh_ess


class TestRunChains:
    def test_validates_iterations(self):
        with pytest.raises(ValueError, match="n_iterations"):
            run_chains(StdNormal(1), NUTS(), n_iterations=1)

    def test_validates_chains(self):
        with pytest.raises(ValueError, match="n_chains"):
            run_chains(StdNormal(1), NUTS(), n_iterations=10, n_chains=0)

    def test_result_shapes(self):
        res = run_chains(StdNormal(3), NUTS(), n_iterations=60, n_chains=2, seed=0)
        assert res.n_chains == 2
        assert res.dim == 3
        assert res.stacked().shape == (2, 30, 3)
        assert res.stacked(second_half_only=True).shape == (2, 15, 3)
        assert res.pooled().shape == (60, 3)

    def test_param_names_forwarded(self):
        res = run_chains(StdNormal(2), NUTS(), n_iterations=20, n_chains=2, seed=0)
        assert res.param_names == ["x[0]", "x[1]"]

    def test_work_through(self):
        res = run_chains(StdNormal(1), MetropolisHastings(), n_iterations=100,
                         n_chains=2, seed=0)
        chain = res.chains[0]
        assert chain.work_through(10) == chain.n_warmup + 10
        assert chain.work_through(10 ** 9) == chain.total_work

    def test_repr(self):
        res = run_chains(StdNormal(1), MetropolisHastings(), n_iterations=20,
                         n_chains=2, seed=0)
        assert "std-normal" in repr(res)


#: What every engine's StateCapture snapshot carries, and what each adds.
#: v2 checkpoints pickle this dict and ``ChainTelemetry.seed_from_resume``
#: reads it by name, so the set is a file format, not an implementation
#: detail of the shared chain scaffold.
COMMON_SNAPSHOT_KEYS = {"engine", "t", "samples", "logps", "work", "x", "logp", "rng"}
_HAMILTONIAN_KEYS = {"grad", "step", "inv_mass", "adapter", "welford", "divergences"}
ENGINE_SNAPSHOT_KEYS = {
    "mh": {"scale", "accepts"},
    "slice": {"widths"},
    "hmc": _HAMILTONIAN_KEYS | {"accepts"},
    "nuts": _HAMILTONIAN_KEYS | {"accept_stat_total", "tree_depths"},
}


class TestChainScaffold:
    @pytest.mark.parametrize("engine", sorted(ENGINE_SNAPSHOT_KEYS))
    def test_snapshot_keys_and_checkpoint_round_trip(self, engine, tmp_path):
        model = StdNormal(3)
        state = _snapshot_at(engine, model, 14)
        assert set(state) == COMMON_SNAPSHOT_KEYS | ENGINE_SNAPSHOT_KEYS[engine]
        assert state["engine"] == engine and state["t"] == 13

        path = CheckpointStore(str(tmp_path)).save_chain(
            "job", 0, samples=state["samples"], iteration=state["t"],
            n_warmup=N_WARMUP, n_iterations=N_ITERATIONS,
            logps=state["logps"], work=state["work"],
            tree_depths=state.get("tree_depths"), sampler_state=state,
        )
        restored = CheckpointStore._read(path)["sampler_state"]
        assert set(restored) == set(state)

        rng, x0 = chain_start(model, 5, 0)
        resumed = build_engine(engine).sample_chain(
            model, x0, N_ITERATIONS, rng, n_warmup=N_WARMUP, resume_state=restored
        )
        _assert_chains_identical(resumed, _run_full(engine, model), engine)

    def test_every_engine_is_a_step_machine(self):
        # One protocol: every engine's chain is a step generator, and the
        # class constant ``gradient`` says what answers its requests.
        for engine in engine_names():
            sampler = build_engine(engine)
            assert callable(sampler.sample_steps)
            assert sampler.gradient is (engine not in ("mh", "slice"))
            assert "gradient" not in {f.name for f in dataclasses.fields(sampler)}
