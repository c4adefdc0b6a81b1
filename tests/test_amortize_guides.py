"""Unit tests for the GuideStore: keys, training, persistence.

Uses the toy conjugate model from test_model_api (cheap to fit) with a tiny
ADVI budget — these tests exercise the store's caching and invalidation
semantics, not the quality of the fits.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro import batch
from repro.amortize import GuideRecord, GuideStore, guide_key
from repro.amortize.guides import model_version, shape_signature
from repro.inference.advi import ADVI, AdviResult
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.suite import load_workload
from tests.test_model_api import GaussianMeanScale


def make_model(n=40, seed=1, loc=2.0):
    rng = np.random.default_rng(seed)
    return GaussianMeanScale(rng.normal(loc, 1.5, size=n))


def tiny_store(directory=None):
    return GuideStore(directory=directory, advi=ADVI(n_iterations=40))


class VariantMeanScale(GaussianMeanScale):
    """Same family name and parameters, different density code."""

    def log_joint(self, p):
        y = self.data("y")
        return (
            dist.normal_lpdf(y, p["mu"], p["sigma"])
            + dist.normal_lpdf(p["mu"], 0.0, 1.0)  # tighter prior
            + dist.half_cauchy_lpdf(p["sigma"], 2.0)
        )


class TestGuideKey:
    def test_stable_across_instances_and_datasets(self):
        # Same family + shape + code: the guide is shared even though the
        # observed values differ — that is the amortization bet, and the
        # PSIS gate (not the key) decides per request whether it held.
        assert guide_key(make_model(seed=1)) == guide_key(make_model(seed=9))

    def test_shape_is_part_of_the_key(self):
        assert guide_key(make_model(n=40)) != guide_key(make_model(n=41))

    def test_model_code_is_part_of_the_key(self):
        base, variant = make_model(), VariantMeanScale(make_model().data("y"))
        assert model_version(base) != model_version(variant)
        assert guide_key(base) != guide_key(variant)

    def test_train_seed_is_part_of_the_key(self):
        assert guide_key(make_model(), 0) != guide_key(make_model(), 1)

    def test_shape_signature_names_every_array(self):
        assert shape_signature(make_model(n=40)) == (("y", (40,)),)


class TestTraining:
    def test_get_or_train_trains_once(self):
        store = tiny_store()
        record, trained = store.get_or_train(make_model())
        assert trained
        assert record.train_iterations == 40
        assert record.train_seconds > 0.0
        again, trained_again = store.get_or_train(make_model(seed=9))
        assert not trained_again
        assert again is record

    def test_concurrent_first_requests_train_once(self, monkeypatch):
        """Two threads asking for a missing guide at once: one pays the
        fit, the other waits for it and reuses the record."""
        store = tiny_store()
        fit, fits = store.advi.fit, []

        def slow_fit(model, rng, x0=None, evaluate=None):
            fits.append(1)
            time.sleep(0.2)  # the other caller is past the cache check
            return fit(model, rng, x0=x0, evaluate=evaluate)

        monkeypatch.setattr(store.advi, "fit", slow_fit)
        barrier = threading.Barrier(2, timeout=10)
        outcomes = []

        def request():
            barrier.wait()
            outcomes.append(store.get_or_train(make_model()))

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(fits) == 1
        assert sorted(trained for _, trained in outcomes) == [False, True]
        assert outcomes[0][0] is outcomes[1][0]

    def test_training_is_deterministic(self):
        a, _ = tiny_store().get_or_train(make_model())
        b, _ = tiny_store().get_or_train(make_model())
        assert np.array_equal(a.advi.mu, b.advi.mu)
        assert np.array_equal(a.advi.log_sigma, b.advi.log_sigma)

    def test_a_guide_does_not_depend_on_what_the_store_held(self):
        """A shape trained after another shape of its family gets the
        bits it gets in a fresh store: a guide is a function of its key."""
        store = tiny_store()
        store.get_or_train(make_model(n=40))
        after, _ = store.get_or_train(make_model(n=50))
        alone, _ = tiny_store().get_or_train(make_model(n=50))
        assert np.array_equal(after.advi.mu, alone.advi.mu)
        assert np.array_equal(after.advi.log_sigma, alone.advi.log_sigma)
        assert after.advi.elbo_trace == alone.advi.elbo_trace

    @pytest.mark.parametrize("family", ["survival", "tickets"])
    def test_a_guide_does_not_depend_on_whether_its_model_was_warm(self, family):
        """A model whose tape folds answers its first compiled call with
        the recorded trace and later calls with the tape, a few ulps
        apart: a guide fitted on a model that already evaluated has the
        bytes of one fitted on a freshly loaded model."""
        advi = ADVI(n_iterations=30)
        model = load_workload(family, scale=0.25)
        cold = GuideStore(advi=advi).train(model)
        warm = GuideStore(advi=advi).train(model)
        assert warm.advi.mu.tobytes() == cold.advi.mu.tobytes()
        assert warm.advi.log_sigma.tobytes() == cold.advi.log_sigma.tobytes()
        assert warm.advi.elbo_trace == cold.advi.elbo_trace

    def test_fresh_fit_approximates_the_posterior_location(self):
        store = GuideStore(advi=ADVI(n_iterations=600))
        record, _ = store.get_or_train(make_model(n=200, loc=2.0))
        # mu is (mean, log sigma) in unconstrained space.
        assert abs(record.advi.mu[0] - 2.0) < 0.5


class NoSeamMeanScale(GaussianMeanScale):
    """A model with no compiled seam: only the interpreted logp_and_grad."""

    logp_and_grad_fn = None
    proven_tape = None


def train_both_ways(load, n_iterations):
    """The same guide trained with the batch switch off, then on, each on
    a freshly loaded model (so each fit records and proves its own tape)."""
    fits = []
    for on in (False, True):
        store = GuideStore(advi=ADVI(n_iterations=n_iterations))
        with batch.override(on):
            fits.append(store.train(load()))
    return fits


def assert_same_guide(solo, batched):
    assert np.array_equal(solo.advi.mu, batched.advi.mu)
    assert np.array_equal(solo.advi.log_sigma, batched.advi.log_sigma)
    assert solo.advi.elbo_trace == batched.advi.elbo_trace
    assert (
        solo.advi.n_gradient_evaluations
        == batched.advi.n_gradient_evaluations
    )


class TestBatchedFits:
    """A step's Monte Carlo draws answered as one lane-batched round give
    the guide the solo path gives, bit for bit."""

    @pytest.mark.parametrize("family", ["12cities", "survival", "ad", "ode"])
    def test_batched_fit_is_bit_identical(self, family):
        n_iterations = 30
        solo, batched = train_both_ways(
            lambda: load_workload(family, scale=0.25), n_iterations
        )
        assert_same_guide(solo, batched)
        assert "batch" not in solo.metadata
        counters = batched.metadata["batch"]
        # One solo round proves the tape; every later step is one round.
        assert counters["batch_rounds"] == n_iterations - 1
        assert counters["batch_solo_calls"] == ADVI.n_mc_samples
        assert counters["batch_width"] == ADVI.n_mc_samples
        assert counters["batch_demoted_instructions"] == 0

    def test_model_without_compiled_seam_trains_solo(self):
        data = make_model().data("y")
        solo, batched = train_both_ways(lambda: NoSeamMeanScale(data), 20)
        assert_same_guide(solo, batched)
        counters = batched.metadata["batch"]
        assert counters["batch_rounds"] == 0
        assert counters["batch_solo_calls"] == 20 * ADVI.n_mc_samples

    def test_a_single_draw_per_step_is_not_batched(self):
        store = GuideStore(advi=ADVI(n_iterations=10, n_mc_samples=1))
        with batch.override(True):
            record = store.train(make_model())
        assert "batch" not in record.metadata


class TestPersistence:
    def test_round_trips_through_disk(self, tmp_path):
        store = tiny_store(directory=str(tmp_path))
        record, _ = store.get_or_train(make_model())
        reloaded = tiny_store(directory=str(tmp_path))
        got, trained = reloaded.get_or_train(make_model())
        assert not trained
        assert got.guide_id == record.guide_id
        assert np.array_equal(got.advi.mu, record.advi.mu)

    def test_writes_are_atomic(self, tmp_path):
        store = tiny_store(directory=str(tmp_path))
        store.get_or_train(make_model())
        assert list(tmp_path.glob("*.pkl"))
        assert not list(tmp_path.glob("*.tmp*"))

    def test_corrupt_guide_is_skipped_and_retrained(self, tmp_path):
        store = tiny_store(directory=str(tmp_path))
        record, _ = store.get_or_train(make_model())
        path = tmp_path / f"{record.guide_id}.pkl"
        path.write_bytes(path.read_bytes()[:10])  # torn write
        fresh = tiny_store(directory=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="guide will be retrained"):
            got, trained = fresh.get_or_train(make_model())
        assert trained
        assert np.array_equal(got.advi.mu, record.advi.mu)  # determinism

    def test_unexpected_payload_is_skipped(self, tmp_path):
        store = tiny_store(directory=str(tmp_path))
        key = store.key_for(make_model())
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"not": "a guide"}))
        with pytest.warns(RuntimeWarning, match="unexpected payload"):
            assert store.get(key) is None

    def test_injected_guides_are_served(self):
        # The seam the serve tests (and operators seeding a deployment)
        # use: put() accepts a hand-built record.
        store = GuideStore()
        model = make_model()
        advi = AdviResult(mu=np.zeros(model.dim), log_sigma=np.zeros(model.dim))
        store.put(
            GuideRecord(
                guide_id=store.key_for(model),
                family=model.name,
                advi=advi,
            )
        )
        record, trained = store.get_or_train(model)
        assert not trained
        assert record.advi is advi
        assert len(store) == 1


class TestModelVersion:
    def test_version_tracks_nested_code(self):
        class Outer(BayesianModel):
            name = "outer"

            @property
            def params(self):
                return [ParameterSpec("x", 1, init=0.0)]

            def log_joint(self, p):
                return dist.normal_lpdf(p["x"], 0.0, 1.0)

        class OuterVariant(Outer):
            def log_joint(self, p):
                return dist.normal_lpdf(p["x"], 0.0, 2.0)

        assert model_version(Outer()) != model_version(OuterVariant())

    def test_version_stable_across_instances(self):
        assert model_version(make_model(seed=1)) == model_version(
            make_model(seed=2)
        )
