"""Unit tests for the repro.batch building blocks.

Covers the batched tape's masking and dead-lane semantics, the
evaluator's acquisition/fallback ladder, the module kill switch — and the
:class:`~repro.autodiff.compile.CompiledFunction` replay lock, whose
absence lets two threads sharing one tape silently corrupt each other's
gradients through the preallocated buffers.
"""

import threading

import numpy as np
import pytest

from repro import batch
from repro.autodiff import compile as tape_compile
from repro.batch.engine import BatchedEvaluator, BatchedTape
from repro.inference.chain import model_logp_and_grad
from repro.inference.stepper import drive_steps
from repro.suite.registry import load_workload
from repro.switch import Switch

SCALE = 0.25


@pytest.fixture()
def model():
    return load_workload("12cities", scale=SCALE)


def _warm_evaluator(model, width, **kwargs):
    """An evaluator driven through acquisition + calibration + validation."""
    evaluator = BatchedEvaluator(model, width, **kwargs)
    rng = np.random.default_rng(0)
    xs = {
        i: model.initial_position(rng) + 0.05 * rng.standard_normal(model.dim)
        for i in range(width)
    }
    for _ in range(8):
        evaluator.evaluate(xs)
        if evaluator.stable:
            break
    return evaluator, xs


class TestStepper:
    def test_drive_steps_matches_inline_loop(self, model):
        from repro.inference.hmc import HMC
        from repro.inference.chain import chain_start

        sampler = HMC(n_leapfrog=4)
        rng1, x1 = chain_start(model, 2, 0, 1.0)
        rng2, x2 = chain_start(model, 2, 0, 1.0)
        via_gen = drive_steps(
            sampler.sample_steps(x1, 12, rng1), model_logp_and_grad(model)
        )
        via_chain = sampler.sample_chain(model, x2, 12, rng2)
        assert np.array_equal(via_gen.samples, via_chain.samples)


class TestBatchedTape:
    def test_masking_partial_lanes(self, model):
        """Lanes absent from a call keep stale rows that must not leak
        into the lanes that are present."""
        evaluator, xs = _warm_evaluator(model, 4)
        solo = model_logp_and_grad(model)
        partial = {1: xs[1], 3: xs[3]}
        results = evaluator.evaluate(partial)
        assert set(results) == {1, 3}
        for lane, x in partial.items():
            value, grad = solo(x)
            assert results[lane][0] == value
            assert np.array_equal(results[lane][1], grad)

    def test_dead_lane_reports_neg_inf(self, model):
        evaluator, xs = _warm_evaluator(model, 3)
        bad = dict(xs)
        bad[1] = np.full(model.dim, np.nan)
        results = evaluator.evaluate(bad)
        assert results[1][0] == float("-inf")
        assert np.array_equal(results[1][1], np.zeros(model.dim))
        # Healthy lanes are untouched by the dead one.
        solo = model_logp_and_grad(model)
        for lane in (0, 2):
            value, grad = solo(xs[lane])
            assert results[lane][0] == value
            assert np.array_equal(results[lane][1], grad)

    def test_engine_vectorizes_without_demotion(self, model):
        evaluator, _ = _warm_evaluator(model, 3)
        engine = evaluator.engine
        assert engine is not None and evaluator.stable
        assert engine.n_vector > 0
        assert engine.demotions == 0

    def test_calibration_returns_solo_reference(self, model):
        """Even the very first (calibrating) evaluations must already be
        bit-identical to solo — calibration compares, never leaks."""
        evaluator = BatchedEvaluator(model, 2)
        solo = model_logp_and_grad(model)
        rng = np.random.default_rng(1)
        for _ in range(6):
            xs = {
                i: model.initial_position(rng)
                + 0.05 * rng.standard_normal(model.dim)
                for i in range(2)
            }
            results = evaluator.evaluate(xs)
            for lane, x in xs.items():
                value, grad = solo(x)
                assert results[lane][0] == value
                assert np.array_equal(results[lane][1], grad)

    def test_width_must_be_positive(self, model):
        x = model.initial_position(np.random.default_rng(0))
        assert model.proven_tape() is None  # nothing recorded yet
        model.compiled_logp_and_grad(x)
        assert model.proven_tape() is None  # on probation
        model.compiled_logp_and_grad(x)
        with pytest.raises(ValueError):
            BatchedTape(model.proven_tape(), 0)


class TestBatchedEvaluator:
    def test_solo_fallback_when_compile_disabled(self, model):
        with tape_compile.override(False):
            evaluator = BatchedEvaluator(model, 2)
            xs = {
                i: model.initial_position(np.random.default_rng(i))
                for i in range(2)
            }
            for _ in range(4):
                results = evaluator.evaluate(xs)
            assert evaluator.engine is None
            assert not evaluator.stable
            assert evaluator.stats["solo_calls"] >= 8
            solo = model_logp_and_grad(model)
            for lane, x in xs.items():
                value, grad = solo(x)
                assert results[lane][0] == value
                assert np.array_equal(results[lane][1], grad)

    def test_empty_batch(self, model):
        evaluator = BatchedEvaluator(model, 2)
        assert evaluator.evaluate({}) == {}


class TestKillSwitch:
    def test_env_spellings(self, monkeypatch):
        """One parser serves the three replay switches."""
        for name in ("REPRO_BATCH", "REPRO_COMPILED_TAPE", "REPRO_SUFFSTATS"):
            for off in ("0", "false", "OFF", "no"):
                monkeypatch.setenv(name, off)
                assert not Switch(name).enabled()
            for on in ("1", "true", "", "yes"):
                monkeypatch.setenv(name, on)
                assert Switch(name).enabled()
            monkeypatch.delenv(name)
            assert Switch(name).enabled()

    def test_override_restores(self):
        before = batch.enabled()
        with batch.override(not before):
            assert batch.enabled() is (not before)
        assert batch.enabled() is before


class TestCompiledFunctionThreadSafety:
    """Regression: concurrent replays of one tape must not alias buffers.

    Before the replay lock, this test failed intermittently (and passed
    vacuously on lucky schedules): each thread's forward/adjoint values
    were overwritten mid-replay by the other thread, returning gradients
    belonging to neither input.
    """

    def test_concurrent_replays_are_exact(self):
        model = load_workload("12cities", scale=SCALE)
        fn = model.compiled_logp_and_grad
        rng = np.random.default_rng(0)
        positions = [
            model.initial_position(rng) + 0.1 * rng.standard_normal(model.dim)
            for _ in range(8)
        ]
        # Warm: record + drain validation so threads hit the replay path.
        for x in positions:
            fn(x)
        expected = [fn(x) for x in positions]

        n_threads, n_rounds = 4, 200
        failures = []
        barrier = threading.Barrier(n_threads)

        def hammer(offset):
            barrier.wait()
            for round_index in range(n_rounds):
                index = (offset + round_index) % len(positions)
                value, grad = fn(positions[index])
                ref_value, ref_grad = expected[index]
                if value != ref_value or not np.array_equal(grad, ref_grad):
                    failures.append((offset, round_index))
                    return

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, (
            f"concurrent replays returned corrupted results: {failures}"
        )

    def test_lock_exists_and_is_reentrant(self):
        model = load_workload("disease", scale=SCALE)
        fn = model.compiled_logp_and_grad
        fn(model.initial_position(np.random.default_rng(0)))
        cf = model._compiled
        assert cf is not None and hasattr(cf, "_lock")
        with cf._lock:
            # A nested call must not deadlock (RLock): validation paths
            # can re-enter through the interpreted reference.
            fn(model.initial_position(np.random.default_rng(0)))
