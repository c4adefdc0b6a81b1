"""Tests for the platform scheduler (Section V-B) and DSE (Section VI-B)."""

import numpy as np
import pytest

from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.core.dse import DesignSpaceExplorer
from repro.core.elision import StopRule
from repro.core.extrapolation import full_budget_works
from repro.core.predictor import LlcMissPredictor, PredictionPoint
from repro.core.scheduler import PlatformScheduler
from tests.test_arch_machine import make_profile
from tests.test_core_elision import synthetic_result


@pytest.fixture
def predictor():
    return LlcMissPredictor().fit([
        PredictionPoint("small", 5_000, 0.1),
        PredictionPoint("mid", 50_000, 0.4),
        PredictionPoint("big", 250_000, 5.0),
        PredictionPoint("huge", 460_000, 20.0),
    ])


BOUND = make_profile("bound", data_bytes=460_000, intermediate_kb=1100,
                     gather_kb=220)
BENIGN = make_profile("benign", data_bytes=5_000, intermediate_kb=20)


class TestScheduler:
    def test_llc_bound_goes_to_big_cache(self, predictor):
        scheduler = PlatformScheduler(predictor)
        assert scheduler.choose_platform(BOUND) is BROADWELL
        assert scheduler.choose_platform(BENIGN) is SKYLAKE

    def test_benign_job_faster_on_skylake(self, predictor):
        scheduler = PlatformScheduler(predictor)
        job = scheduler.schedule(BENIGN, [1000.0] * 4)
        assert job.platform is SKYLAKE
        assert job.speedup > 1.05  # frequency advantage over the baseline

    def test_bound_job_stays_on_baseline(self, predictor):
        scheduler = PlatformScheduler(predictor)
        job = scheduler.schedule(BOUND, [1000.0] * 4)
        assert job.platform is BROADWELL
        assert job.speedup == pytest.approx(1.0)

    def test_suite_average_speedup_above_one(self, predictor):
        scheduler = PlatformScheduler(predictor)
        jobs = scheduler.evaluate_suite(
            [BOUND, BENIGN, BENIGN, BENIGN],
            {p.name: [1000.0] * 4 for p in [BOUND, BENIGN]},
        )
        assert PlatformScheduler.average_speedup(jobs) > 1.05

    def test_scheduled_never_slower_than_baseline(self, predictor):
        scheduler = PlatformScheduler(predictor)
        for profile in (BOUND, BENIGN):
            job = scheduler.schedule(profile, [800.0, 900.0, 1000.0, 1100.0])
            assert job.speedup >= 0.999


class TestExtrapolation:
    def test_full_budget_scales_rates(self):
        result = synthetic_result(n_kept=400, n_warmup=100, work_scale=30.0)
        profile = make_profile()  # default budget 2000 total / 500 warmup
        works = full_budget_works(result, profile)
        # ~34.5 mean work/iter (30 + mean of 0..9) over 2000 iterations.
        for work in works:
            assert 2000 * 30 <= work <= 2000 * 40

    def test_truncation_reduces_work(self):
        result = synthetic_result()
        profile = make_profile()
        full = full_budget_works(result, profile)
        truncated = full_budget_works(result, profile, kept_iterations=100)
        assert all(t < f for t, f in zip(truncated, full))

    def test_truncation_beyond_recorded_extends_by_rate(self):
        result = synthetic_result(n_kept=100)
        profile = make_profile()
        longer = full_budget_works(result, profile, kept_iterations=1000)
        shorter = full_budget_works(result, profile, kept_iterations=100)
        assert all(l > s for l, s in zip(longer, shorter))


class TestDSE:
    @pytest.fixture
    def explorer(self):
        return DesignSpaceExplorer(
            SKYLAKE, detector=StopRule(check_interval=20)
        )

    @pytest.fixture
    def run(self):
        # Merged early in the kept draws: the stop rule judges all of them.
        return synthetic_result(n_kept=400, n_warmup=100, converge_after=20)

    @pytest.fixture
    def truth(self):
        # (chains, draws, dim), as SuiteRunner.ground_truth returns it.
        return np.random.default_rng(11).normal(size=(4, 1000, 2))

    def test_grid_covers_configurations(self, explorer, run, truth):
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        grid = explorer.select(points, "grid")
        assert len(grid) == 3 * 3 * 5  # cores x chains x fractions
        assert len(explorer.select(points, "user")) == 1

    def test_detected_points_present_when_converged(self, explorer, run, truth):
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        detected = explorer.select(points, "detected")
        assert len(detected) == 3  # one per core count
        user = explorer.select(points, "user")[0]
        assert min(p.energy_j for p in detected) < user.energy_j

    def test_oracle_is_cheapest_acceptable(self, explorer, run, truth):
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        oracle = explorer.select(points, "oracle")
        assert len(oracle) == 1
        acceptable_grid = [
            p for p in explorer.select(points, "grid") if p.acceptable()
        ]
        assert oracle[0].energy_j == min(p.energy_j for p in acceptable_grid)

    def test_oracle_beats_or_matches_detected(self, explorer, run, truth):
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        oracle = explorer.select(points, "oracle")[0]
        detected = explorer.select(points, "detected")
        assert oracle.energy_j <= min(p.energy_j for p in detected) * 1.001

    def test_no_oracle_without_ground_truth(self, explorer, run):
        points = explorer.explore(BENIGN, run)
        assert explorer.select(points, "oracle") == []

    def test_energy_saving_fraction_positive(self, explorer, run, truth):
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        saving = explorer.energy_saving_fraction(points)
        assert 0.3 < saving < 1.0

    def test_energy_saving_zero_when_unconverged(self, explorer, truth):
        run = synthetic_result(converge_after=10 ** 9)
        points = explorer.explore(BENIGN, run, ground_truth=truth)
        assert explorer.energy_saving_fraction(points) == 0.0

    def test_fewer_cores_lower_energy_for_compute_bound(self, explorer, run):
        # Same chains/iterations on fewer cores: longer but cheaper in energy
        # only when idle power is amortized; check the latency ordering.
        a = explorer.cost_point(BENIGN, run, 1, 4, 200, None)
        b = explorer.cost_point(BENIGN, run, 4, 4, 200, None)
        assert a.latency_s > b.latency_s

    def test_a_point_outside_the_band_is_not_acceptable(self, explorer, run):
        """The oracle's judge is the reference band: truth shifted by one
        sd rejects every point, and then there is no oracle."""
        shifted = np.random.default_rng(11).normal(1.0, 1.0, size=(4, 1000, 2))
        points = explorer.explore(BENIGN, run, ground_truth=shifted)
        assert not any(p.acceptable() for p in points)
        assert explorer.select(points, "oracle") == []

    def test_core_options_clamped_to_platform(self):
        explorer = DesignSpaceExplorer(SKYLAKE, core_options=(1, 2, 4, 16))
        assert explorer.core_options == [1, 2, 4]
