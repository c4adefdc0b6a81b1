"""Unit tests for the repro.batch building blocks.

Covers the batched tape's masking and dead-lane semantics, its generated
steady-state program (against the calibration sweep and the solo tape, on
every suite workload), ``getitem`` as a vector op, the evaluator's
acquisition/fallback ladder, the module kill switch — and the
:class:`~repro.autodiff.compile.CompiledFunction` replay lock, whose
absence lets two threads sharing one tape silently corrupt each other's
gradients through the preallocated buffers.
"""

import ast
import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import batch
from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, suffstats, verify
from repro.autodiff.compile import CompiledFunction
from repro.batch import engine as engine_mod
from repro.batch.engine import BatchedEvaluator, BatchedTape
from repro.inference.chain import model_logp_and_grad
from repro.inference.stepper import drive_steps
from repro.suite.registry import load_workload, workload_names
from repro.switch import Switch
from tests.test_autodiff_ops import (
    _logsumexp_case,
    _logsumexp_pair_case,
    _mixed_pairs,
)
from tests.test_logp_value import _votes_not_positive_definite

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


WIDTH = 4
CALIBRATION_ROUNDS = verify.PROBATION["vector_instruction"]


def _proven_tape(model):
    x = model.initial_position(np.random.default_rng(0))
    for _ in range(1 + verify.PROBATION["tape"]):
        model.compiled_logp_and_grad(x)
    tape = model.proven_tape()
    assert tape is not None
    return tape


def _batch(model, rng, lanes=range(WIDTH)):
    return {
        i: model.initial_position(rng) + 0.05 * rng.standard_normal(model.dim)
        for i in lanes
    }


def _assert_bitwise(results, reference):
    """Same lanes, same value, same gradient bytes (signed zeros too)."""
    assert set(results) == set(reference)
    for lane, (value, grad) in reference.items():
        assert results[lane][0] == value
        assert results[lane][1].tobytes() == grad.tobytes()


def _solo(tape, xs):
    with np.errstate(all="ignore"):  # as the model's own solo call does
        return {
            lane: verify.or_rejection(tape.value_and_grad, x)
            for lane, x in xs.items()
        }


def _lane_ops(engine):
    return sorted(ins.name for ins in engine._instr if not ins.vector)


#: What the mixture workloads still run lane by lane: nothing. Their
#: gathers ('take') are one np.take and one np.bincount over the lanes, and
#: the 'logsumexp' over a 'stack' they marginalise with is vector too.
LANE_OPS = {
    "tickets": [],
    "butterfly": [],
    "survival": [],
}


class TestGeneratedProgram:
    """The stable replay is generated straight-line code; the interpreter
    only calibrates. Both, and the solo tape, answer alike."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_program_equals_the_calibration_sweep_and_the_solo_tape(
        self, workload
    ):
        model = load_workload(workload, scale=SCALE)
        tape = _proven_tape(model)
        engine = BatchedTape(tape, WIDTH)
        rng = np.random.default_rng(1)
        batches = [_batch(model, rng) for _ in range(CALIBRATION_ROUNDS + 1)]

        calibrated = [engine.evaluate(xs) for xs in batches[:-1]]
        assert engine._program is None  # the interpreter answered those
        # The same positions again: the first call emits the program and
        # is the one the batched-result probation checks, then it is alone.
        generated = [engine.evaluate(xs) for xs in batches[:-1]]
        assert engine._program is not None
        assert engine.stable and engine.demotions == 0
        if workload in LANE_OPS:
            assert _lane_ops(engine) == LANE_OPS[workload]
        for xs, swept, replayed in zip(batches, calibrated, generated):
            _assert_bitwise(replayed, swept)
            _assert_bitwise(replayed, _solo(tape, xs))

        # A lane subset: lanes 0 and 2 keep the rows of the last full call,
        # which must not leak into the lanes that are present.
        subset = {lane: batches[-1][lane] for lane in (1, 3)}
        _assert_bitwise(engine.evaluate(subset), _solo(tape, subset))

        # A NaN lane is rejected; its neighbours do not notice.
        poisoned = dict(batches[0])
        poisoned[2] = np.full(model.dim, np.nan)
        results = engine.evaluate(poisoned)
        assert results[2][0] == float("-inf") and not results[2][1].any()
        _assert_bitwise(results, _solo(tape, poisoned))

        if workload == "votes":
            # solve_spd runs in lane mode: a lane whose kernel raises is
            # dead for the call, inside the generated program too.
            bad = _votes_not_positive_definite(model)
            with pytest.raises(np.linalg.LinAlgError):
                tape.value_and_grad(bad)
            poisoned = dict(batches[1])
            poisoned[1] = bad
            results = engine.evaluate(poisoned)
            assert results[1][0] == float("-inf") and not results[1][1].any()
            _assert_bitwise(results, _solo(tape, poisoned))
            # The lanes run the solo schedule: its SPD group (logdet_spd
            # and every solve_spd over the covariance) is one factor per
            # live lane, one call in the program, with no member calling
            # its own lane-mode forward; the non-PD lane above died in it.
            group, = [step for step in tape.steps if len(step) > 1]
            assert engine._source.count("_spd(") == 1
            assert f"_spd(J{group[0]}, lanes, dead)" in engine._source
            assert not any(
                f"_lfwd(I{ai}," in engine._source for ai in group
            )
        assert engine.demotions == 0

    @pytest.mark.parametrize("workload", ["votes", "ode"])
    def test_building_a_batched_tape_runs_no_kernel(
        self, workload, monkeypatch
    ):
        # One fold: the batched tape reads the values the solo tape folded
        # when it was recorded, and computes none of them again.
        model = load_workload(workload, scale=SCALE)
        tape = _proven_tape(model)
        known = {s for s, value in enumerate(tape.constants) if value is not None}
        folded = set()
        for ins in tape.instructions:
            if all(s in known for s in ins.inputs):
                known.add(ins.out)
                folded.add(ins.out)
        assert folded

        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran while the batched tape was built")

        for kernel in ops.KERNELS.values():
            monkeypatch.setattr(kernel, "forward", refuse)
            if kernel.call is not None:
                monkeypatch.setattr(kernel, "call", refuse)
        engine = BatchedTape(tape, WIDTH)
        assert not any(engine._batched[s] for s in folded)
        assert not any(ins.slot in folded for ins in engine._instr)
        assert all(tape.folded[s] is not None for s in folded)

    def test_source_has_no_loop_over_instructions(self, model):
        evaluator, _ = _warm_evaluator(model, WIDTH)
        engine = evaluator.engine
        tree = ast.parse(engine._source)
        loops = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
        ]
        # Filling the input rows and collecting the results, per lane.
        assert [ast.unparse(loop.iter) for loop in loops] == ["lanes"] * 2
        # One inlined call per vector instruction — the numpy call itself
        # for a kernel declared by it, else the kernel's forward, a gather's
        # np.take — and no lane-mode one on this model.
        assert engine._source.count("_lfwd(") == engine.n_lane == 0
        calls = sum(
            engine._source.count(form)
            for form in ("\n    U", " _v, a", "_reduce(", "_take(")
        )
        assert calls == engine.n_vector

    def test_dropped_tapes_free_their_buffers_without_the_collector(self):
        """``exec`` leaves the generated function in the namespace that is
        its own globals: unless popped, a cycle through every buffer. A
        tape is built per job, so that is a job's buffers held until a
        full collection."""
        compiled = CompiledFunction(
            lambda z: ops.reduce_sum(ops.mul(ops.exp(z), 0.5))
        )
        x = np.array([0.3, -0.4, 1.1])
        for _ in range(1 + verify.PROBATION["tape"]):
            compiled(x)
        tape = compiled.proven_tape()
        engine = BatchedTape(tape, 2)
        xs = {0: x, 1: x + 0.5}
        while not engine.stable:
            engine.evaluate(xs)

        def a_buffer(function, prefix):
            return weakref.ref(next(
                value for name, value in function.__globals__.items()
                if name.startswith(prefix) and isinstance(value, np.ndarray)
            ))

        batched_buffer = a_buffer(engine._program, "V")
        solo_buffer = a_buffer(tape._call, "O")
        gc.collect()
        gc.disable()
        try:
            del engine
            assert batched_buffer() is None
            assert solo_buffer() is not None
            del tape, compiled
            assert solo_buffer() is None
        finally:
            gc.enable()


@st.composite
def _array_and_key(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    key = draw(hnp.basic_indices(shape, allow_ellipsis=True, allow_newaxis=True))
    return shape, key


def _signed(rng, shape):
    """Normal draws salted with both zeros."""
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.2] = 0.0
    values[rng.random(shape) < 0.2] = -0.0
    return values


class TestVectorGetitem:
    """``getitem`` over the whole batch is the solo kernel under a key with
    a leading all-lanes slice."""

    @settings(max_examples=150, deadline=None)
    @given(_array_and_key(), st.integers(0, 2**32 - 1))
    def test_lane_key_equals_four_solo_calls_bitwise(self, case, seed):
        shape, key = case
        rng = np.random.default_rng(seed)
        kernel = ops.KERNELS["getitem"]
        stacked = _signed(rng, (WIDTH,) + shape)
        lane_static = (engine_mod._lane_key(key),)

        value, _ = kernel.forward([stacked], lane_static, None)
        solo_values = [
            kernel.forward([stacked[i]], (key,), None)[0] for i in range(WIDTH)
        ]
        assert value.shape == (WIDTH,) + np.shape(solo_values[0])
        assert value.tobytes() == np.stack(solo_values).tobytes()

        g = _signed(rng, value.shape)
        (grad,) = kernel.backward(g, [stacked], value, None, lane_static)
        solo_grads = [
            kernel.backward(g[i], [stacked[i]], solo_values[i], None, (key,))[0]
            for i in range(WIDTH)
        ]
        assert grad.tobytes() == np.stack(solo_grads).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(_array_and_key(), st.integers(0, 2**32 - 1))
    def test_any_key_serves_its_probation_in_the_engine(self, case, seed):
        shape, key = case
        rng = np.random.default_rng(seed)
        weights = _signed(rng, np.empty(shape)[key].shape)

        def fn(z):
            picked = ops.getitem(ops.reshape(z, shape), key)
            return ops.reduce_sum(ops.mul(picked, weights))

        compiled = CompiledFunction(fn)
        size = int(np.prod(shape))
        for _ in range(1 + verify.PROBATION["tape"]):
            compiled(rng.standard_normal(size))
        tape = compiled.proven_tape()
        engine = BatchedTape(tape, WIDTH)
        for _ in range(CALIBRATION_ROUNDS + 2):
            xs = {i: _signed(rng, size) for i in range(WIDTH)}
            _assert_bitwise(engine.evaluate(xs), _solo(tape, xs))
        assert engine.stable and engine.demotions == 0
        assert "getitem" not in _lane_ops(engine)

    def test_an_off_by_one_lane_key_is_demoted_by_the_probation(
        self, model, monkeypatch
    ):
        """The model unpacks its parameter vector with five slices; shift
        the batched key of every one by one element and the instruction
        probation must catch all five, answering in lane mode meanwhile."""
        honest = BatchedTape(_proven_tape(model), WIDTH)

        def off_by_one(key):
            # The last block's shifted slice is empty: a shape error from
            # the copy, where the others merely read their neighbour.
            return (slice(None), slice(key.start + 1, key.stop + 1))

        monkeypatch.setattr(engine_mod, "_lane_key", off_by_one)
        tape = _proven_tape(model)
        engine = BatchedTape(tape, WIDTH)
        rng = np.random.default_rng(2)
        for _ in range(CALIBRATION_ROUNDS + 2):
            xs = _batch(model, rng)
            _assert_bitwise(engine.evaluate(xs), _solo(tape, xs))
        assert engine.stable
        assert engine.demotions == 5
        assert engine.n_vector == honest.n_vector - 5
        assert _lane_ops(engine).count("getitem") == 5


def _gather_tape(n, index, weights, spd=False, getitem=False):
    """A proven tape whose one gather is ``take(z[:n], index)`` (or, with
    ``getitem``, ``z[:n][(index,)]``), weighted and summed; with ``spd``,
    plus the log-det of a 2×2 matrix of ``z``'s last three entries, lane
    mode and dead on a lane whose matrix is not positive definite."""

    def fn(z):
        src = ops.getitem(z, slice(0, n))
        gathered = (
            ops.getitem(src, (index,)) if getitem else ops.take(src, index)
        )
        total = ops.reduce_sum(ops.mul(gathered, weights))
        if not spd:
            return total
        a, b, c = (ops.getitem(z, n + k) for k in range(3))
        matrix = ops.reshape(ops.stack([a, b, b, c]), (2, 2))
        return ops.add(total, ops.logdet_spd(matrix))

    compiled = CompiledFunction(fn)
    x = np.concatenate([np.linspace(-1.0, 1.0, n), [2.0, 0.3, 1.5]])
    with suffstats.override(False):  # which would fold the sum into a segment sum
        for _ in range(1 + verify.PROBATION["tape"]):
            compiled(x)
    return compiled.proven_tape(), x.size


class TestVectorGather:
    """A gather keyed by one 1-D integer array is one ``np.take`` forward
    and one ``np.bincount`` over lane-offset indices backward: per lane the
    bytes of the solo fancy index and ``np.add.at``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 24), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_scatter_equals_per_lane_add_at_bitwise(self, n, m, getitem, seed):
        rng = np.random.default_rng(seed)
        # Duplicates for sure (m may exceed n), negative indices too.
        index = rng.integers(-n, n, size=m)
        tape, _size = _gather_tape(n, index, _signed(rng, m), getitem=getitem)
        engine = BatchedTape(tape, WIDTH)
        ins, = [ins for ins in engine._instr if ins.gather is not None]
        assert ins.vector and ins.name == ("getitem" if getitem else "take")

        # Whatever rows the source buffer holds, stale or live.
        src = ins.gather[0]
        src[...] = _signed(rng, src.shape)
        engine_mod._vector_forward(ins)
        assert all(
            ins.buf[i].tobytes() == src[i][index].tobytes() for i in range(WIDTH)
        )

        # Adjoints salted with both zeros, NaNs (two payloads) and both
        # infinities; a lane whose rows are all specials is a dead one's.
        g = _signed(rng, ins.buf.shape)
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0])
        salt = rng.random(g.shape) < 0.3
        g[salt] = rng.choice(specials, size=int(salt.sum()))
        g[rng.integers(WIDTH)] = rng.choice(specials, size=g.shape[1:])
        (scattered,) = engine_mod._vector_backward(ins, g, None)
        for i in range(WIDTH):
            reference = np.zeros(n)
            with np.errstate(invalid="ignore"):
                np.add.at(reference, index, g[i])
            assert scattered[i].tobytes() == reference.tobytes()

    def test_lane_subsets_and_a_dead_lane_answer_as_solo(self):
        rng = np.random.default_rng(7)
        index = np.array([0, 3, 3, 1, -1, 2, 0, 4, 4, 4])
        weights = _signed(rng, index.shape)
        tape, size = _gather_tape(5, index, weights, spd=True)
        engine = BatchedTape(tape, WIDTH)

        def lanes(subset):
            xs = {}
            for i in subset:
                x = _signed(rng, size)
                x[-3:] = (2.0, 0.3, 1.5)
                xs[i] = x
            return xs

        for _ in range(CALIBRATION_ROUNDS + 2):
            xs = lanes(range(WIDTH))
            _assert_bitwise(engine.evaluate(xs), _solo(tape, xs))
        assert engine.stable and engine.demotions == 0
        assert "take" not in _lane_ops(engine)
        assert "_take(" in engine._source and "_bincount(" in engine._source

        for _ in range(20):
            subset = sorted(rng.choice(WIDTH, rng.integers(1, WIDTH + 1),
                                       replace=False).tolist())
            xs = lanes(subset)
            dead = subset[rng.integers(len(subset))]
            xs[dead][-3] = -1.0  # not positive definite: the lane dies
            results = engine.evaluate(xs)
            assert results[dead][0] == float("-inf")
            assert not results[dead][1].any()
            _assert_bitwise(results, _solo(tape, xs))


class TestVectorMixture:
    """``logsumexp`` and ``stack`` over the whole batch are the solo
    kernels with their axis moved past the lanes."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_logsumexp_case(), _logsumexp_pair_case()), st.integers(0, 2**32 - 1))
    @example((_mixed_pairs(64), 0), 0)
    @example((_mixed_pairs(97, (4,)), 1), 1)
    def test_shifted_axis_equals_four_solo_calls_bitwise(self, case, seed):
        """Per lane the same bytes, forward and backward — with ties,
        infinities, NaNs and all ``-inf`` slices, where some lanes take
        the kernel's direct-sum fallback and others do not."""
        a, axis = case
        rng = np.random.default_rng(seed)
        kernel = ops.KERNELS["logsumexp"]
        # Four lanes: the drawn array in each of four orders, so the lanes
        # differ but share its special values.
        stacked = np.stack([
            rng.permutation(a.ravel()).reshape(a.shape) for _ in range(WIDTH)
        ])
        lane_static = (engine_mod._shift_axis(axis, a.ndim),)

        value, _ = kernel.forward([stacked], lane_static, None)
        solo_values = [
            kernel.forward([stacked[i]], (axis,), None)[0] for i in range(WIDTH)
        ]
        assert value.tobytes() == np.stack(solo_values).tobytes()

        g = _signed(rng, value.shape)
        with np.errstate(all="ignore"):
            (grad,) = kernel.backward(g, [stacked], value, None, lane_static)
            solo_grads = [
                kernel.backward(g[i], [stacked[i]], solo_values[i], None, (axis,))[0]
                for i in range(WIDTH)
            ]
        assert grad.tobytes() == np.stack(solo_grads).tobytes()

    def test_an_off_by_one_axis_is_demoted_by_the_probation(self, monkeypatch):
        """A square ``stack`` and the ``logsumexp`` over it: shift both
        batched axes one further and each reads the other axis of a
        same-shaped operand — wrong numbers, no error. The instruction
        probation must demote both, answering in lane mode meanwhile."""
        weights = np.array([0.5, -1.0, 2.0])

        def fn(z):
            rows = ops.reshape(z, (3, 3))
            mixed = ops.stack([ops.exp(rows[0]), rows[1], ops.square(rows[2])])
            return ops.reduce_sum(ops.mul(ops.logsumexp(mixed, axis=0), weights))

        compiled = CompiledFunction(fn)
        rng = np.random.default_rng(3)
        for _ in range(1 + verify.PROBATION["tape"]):
            compiled(rng.standard_normal(9))
        tape = compiled.proven_tape()

        def run(engine):
            for _ in range(CALIBRATION_ROUNDS + 2):
                xs = {i: rng.standard_normal(9) for i in range(WIDTH)}
                _assert_bitwise(engine.evaluate(xs), _solo(tape, xs))
            assert engine.stable
            return engine

        honest = run(BatchedTape(tape, WIDTH))
        assert honest.demotions == 0 and _lane_ops(honest) == ["reshape"]

        shift = engine_mod._shift_axis
        monkeypatch.setattr(
            engine_mod, "_shift_axis", lambda axis, ndim: shift(axis, ndim) + 1
        )
        engine = run(BatchedTape(tape, WIDTH))
        assert engine.demotions == 2
        assert _lane_ops(engine) == ["logsumexp", "reshape", "stack"]


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
