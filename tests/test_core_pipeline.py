"""Integration tests for SuiteRunner and the end-to-end pipeline.

Kept cheap: tiny budget fractions, two inexpensive workloads.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import SuiteRunner, evaluate_overall
from repro.suite import workload_names


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(budget_fraction=0.08, seed=5)


class TestSuiteRunner:
    def test_budget_scales_with_fraction(self, runner):
        total, warmup = runner.budget("votes")   # defaults: 1500 / 500
        assert warmup == 100   # floored: adaptation cannot be scaled away
        assert total == warmup + 80

    def test_budget_capped_by_max_kept(self, runner):
        total, warmup = runner.budget("tickets")  # defaults: 8000 / 500
        assert total - warmup == SuiteRunner.max_kept == 400  # not 600

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError, match="budget_fraction"):
            SuiteRunner(budget_fraction=0.0)

    def test_models_cached(self, runner):
        assert runner.model("votes") is runner.model("votes")

    @pytest.mark.slow
    def test_runs_cached(self, runner):
        assert runner.run("votes") is runner.run("votes")

    def test_profile_has_measured_work(self, runner):
        profile = runner.profile("votes")
        assert profile.work_per_iteration > 1.0
        assert profile.modeled_data_bytes > 0

    def test_scaled_profile_smaller(self, runner):
        full = runner.profile("votes", scale=1.0)
        quarter = runner.profile("votes", scale=0.25)
        assert quarter.modeled_data_bytes < full.modeled_data_bytes

    @pytest.mark.slow
    def test_disk_cache_roundtrip(self, tmp_path):
        a = SuiteRunner(budget_fraction=0.08, seed=5, cache_dir=str(tmp_path))
        run_a = a.run("votes")
        b = SuiteRunner(budget_fraction=0.08, seed=5, cache_dir=str(tmp_path))
        run_b = b.run("votes")
        assert np.array_equal(run_a.chains[0].samples, run_b.chains[0].samples)
        assert any(tmp_path.iterdir())

    def test_bumping_one_kind_keeps_the_others_cached(
        self, tmp_path, monkeypatch
    ):
        """A truth-format bump re-samples truths only: the profile and run
        cache paths do not move."""
        runner = SuiteRunner(cache_dir=str(tmp_path))
        key = ("votes", 1.0, 0, 6)

        def paths():
            return {
                kind: runner._cache_path(kind, key)
                for kind in ("profile", "run", "truth")
            }

        before = paths()
        monkeypatch.setitem(
            SuiteRunner.CACHE_VERSIONS, "truth",
            SuiteRunner.CACHE_VERSIONS["truth"] + 1,
        )
        after = paths()
        assert after["truth"] != before["truth"]
        assert after["profile"] == before["profile"]
        assert after["run"] == before["run"]

    def test_truncated_cache_file_is_recomputed(self, tmp_path):
        """A run killed mid-write leaves a torn pickle: a miss, not an
        exception that wedges every later run on that cache directory."""
        def fresh():
            return SuiteRunner(budget_fraction=0.08, seed=5,
                               cache_dir=str(tmp_path))

        first = fresh().profile("votes")
        (cached,) = tmp_path.glob("profile-*.pkl")
        whole = cached.read_bytes()
        cached.write_bytes(whole[:len(whole) // 2])
        with pytest.warns(RuntimeWarning, match="will be recomputed"):
            again = fresh().profile("votes")
        assert again == first
        # Overwritten in full, through a temp name that does not linger.
        assert pickle.loads(cached.read_bytes()) == first
        assert [p.name for p in tmp_path.iterdir()] == [cached.name]

    @pytest.mark.slow
    def test_fitted_predictor_classifies_tickets(self, runner):
        predictor = runner.fitted_predictor()
        tickets = runner.profile("tickets")
        votes = runner.profile("votes")
        assert predictor.predict_llc_bound(tickets.modeled_data_bytes)
        assert not predictor.predict_llc_bound(votes.modeled_data_bytes)


@pytest.mark.slow
class TestEvaluateOverall:
    def test_subset_evaluation(self, runner):
        rows = evaluate_overall(runner, names=["votes", "butterfly"])
        assert [r.name for r in rows] == ["votes", "butterfly"]
        for row in rows:
            assert row.baseline_seconds > 0
            assert row.optimized_seconds > 0
            assert row.speedup >= 0.999
            assert row.platform in ("Skylake", "Broadwell")

    def test_elision_extrapolates_to_full_budget(self, runner):
        rows = evaluate_overall(runner, names=["votes"])
        (row,) = rows
        if row.converged_iteration is not None:
            # Full kept budget for votes is 1000; savings quoted against it.
            expected = 1.0 - row.converged_iteration / 1000
            assert row.iterations_saved_fraction == pytest.approx(expected)
            assert row.speedup > 1.5


def test_workload_names_complete():
    assert len(workload_names()) == 10
