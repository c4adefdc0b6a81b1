"""Unit tests for the GuideStore: keys, training, persistence, warm starts.

Uses the toy conjugate model from test_model_api (cheap to fit) with a tiny
ADVI budget — these tests exercise the store's caching and invalidation
semantics, not the quality of the fits.
"""

import pickle

import numpy as np
import pytest

from repro.amortize import GuideRecord, GuideStore, guide_key
from repro.amortize.guides import model_version, shape_signature
from repro.inference.advi import ADVI, AdviResult
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
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

    def test_training_is_deterministic(self):
        a, _ = tiny_store().get_or_train(make_model())
        b, _ = tiny_store().get_or_train(make_model())
        assert np.array_equal(a.advi.mu, b.advi.mu)
        assert np.array_equal(a.advi.log_sigma, b.advi.log_sigma)

    def test_warm_start_from_family_latest(self):
        store = tiny_store()
        first, _ = store.get_or_train(make_model(n=40))
        second, _ = store.get_or_train(make_model(n=50))
        assert second.warm_started_from == first.guide_id
        assert first.warm_started_from is None

    def test_fresh_fit_approximates_the_posterior_location(self):
        store = GuideStore(advi=ADVI(n_iterations=600))
        record, _ = store.get_or_train(make_model(n=200, loc=2.0))
        # mu is (mean, log sigma) in unconstrained space.
        assert abs(record.advi.mu[0] - 2.0) < 0.5


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
                data_shape=shape_signature(model),
                model_version=model_version(model),
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
