"""The step-down edges of the replay ladder, through the public surface.

Interpreted trace -> plain tape -> rewritten tape -> lane-mode batch ->
vector-mode batch: every rung answers beside the rung below for its
probation calls and steps down on disagreement (docs/performance.md,
"How a fast path earns trust"); a proven tape's forward-only value
program is trusted with the tape. The identity batteries only ever see the
ladder agree; these tests make each rung disagree once — a monkeypatched
kernel or a value-dependent graph — and pin where it lands, what the
caller is handed on the rejected call (the reference's numbers) and on an
accepted one (the candidate's), and which counters move.
"""

import numpy as np
import pytest

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, suffstats, verify
from repro.autodiff.compile import CompiledFunction
from repro.autodiff.functional import value_and_grad
from repro.batch.engine import BatchedEvaluator
from repro.models.model import BayesianModel, ParameterSpec
from repro.resilience.breakers import CircuitBreaker

#: Batched rounds spent comparing every vector instruction with lane mode
#: before the whole-result check takes over (the probation table's
#: vector-instruction row).
CALIBRATION_ROUNDS = 2


class _Ladder(BayesianModel):
    """Three parameters, a handful of vector kernels, exactly one tanh."""

    name = "ladder"

    @property
    def params(self):
        return [ParameterSpec("theta", 3)]

    def log_joint(self, p):
        theta = p["theta"]
        return ops.neg(ops.reduce_sum(
            ops.add(ops.square(theta), ops.tanh(ops.mul(theta, 0.5)))
        ))


def _positions(seed, width=2):
    rng = np.random.default_rng(seed)
    return {lane: rng.normal(size=3) for lane in range(width)}


def _drive(evaluator, reference, rounds=8, before_round=None):
    """Run ``rounds`` distinct batches; every lane of every round — the
    solo, calibrating and validating ones included — must equal the
    interpreted reference bit for bit."""
    for index in range(rounds):
        if before_round is not None:
            before_round(evaluator)
        xs = _positions(index)
        results = evaluator.evaluate(xs)
        for lane, x in xs.items():
            value, grad = reference.logp_and_grad(x)
            assert results[lane][0] == value
            assert np.array_equal(results[lane][1], grad)


def _poison_batched_call(monkeypatch, op, side, armed=lambda: True):
    """Make ``op``'s kernel wrong on lane 1 of vector-mode calls only.

    Solo and lane-mode calls hand the kernel one chain's ``(3,)`` arrays;
    a vector-mode call hands it the stacked ``(B, 3)`` ones.
    """
    kernel = ops.KERNELS[op]
    real = getattr(kernel, side)

    def forward(v, static, out=None):
        value, aux = real(v, static, out)
        if np.ndim(value) == 2 and armed():
            value[1] += 1e-9
        return value, aux

    def backward(g, v, value, aux, static):
        contribs = real(g, v, value, aux, static)
        if np.ndim(g) == 2 and armed():
            first = np.array(contribs[0], copy=True)
            first[1] += 1e-9
            contribs = (first,) + tuple(contribs[1:])
        return contribs

    monkeypatch.setattr(
        kernel, side, forward if side == "forward" else backward
    )
    if side == "forward" and kernel.call is not None:
        # The generated program runs a kernel declared by its numpy call
        # as that call, not through the forward: poison it there too.
        real_call = kernel.call

        def call(*args):
            value = real_call(*args)
            if np.ndim(value) == 2 and armed():
                value[1] += 1e-9
            return value

        monkeypatch.setattr(kernel, "call", call)


@pytest.fixture()
def clean_vector_count():
    evaluator = BatchedEvaluator(_Ladder(), 2)
    _drive(evaluator, _Ladder())
    assert evaluator.stable and evaluator.engine.demotions == 0
    return evaluator.engine.n_vector


class TestVectorInstructionStepsDownToLaneMode:
    @pytest.mark.parametrize("side", ["forward", "backward"])
    def test_one_disagreeing_kernel_demotes_alone(
        self, monkeypatch, clean_vector_count, side
    ):
        _poison_batched_call(monkeypatch, "tanh", side)
        evaluator = BatchedEvaluator(_Ladder(), 2)
        _drive(evaluator, _Ladder())
        engine = evaluator.engine
        assert engine is not None and evaluator.stable
        assert engine.demotions == 1
        assert engine.n_vector == clean_vector_count - 1

    def test_whole_result_disagreement_demotes_every_instruction(
        self, monkeypatch, clean_vector_count
    ):
        """A difference that per-instruction calibration did not see (here:
        a kernel that goes wrong only once calibration is over) is caught
        by the whole-result check, which hands back the solo tape's
        numbers and leaves nothing in vector mode. The poisoned kernel is
        only ever called from the generated program — so that is what
        answered the probation call — and the program emitted after the
        demotion calls the lane pair for every instruction."""
        state = {"armed": False}
        _poison_batched_call(
            monkeypatch, "tanh", "forward", armed=lambda: state["armed"]
        )
        evaluator = BatchedEvaluator(_Ladder(), 2)

        sources = []

        def arm_after_calibration(ev):
            if ev.stats["batched_rounds"] == CALIBRATION_ROUNDS:
                assert ev.engine.demotions == 0 and not ev.stable
                state["armed"] = True
            if ev.engine is not None:
                sources.append(ev.engine._source)

        _drive(evaluator, _Ladder(), before_round=arm_after_calibration)
        engine = evaluator.engine
        assert state["armed"] and evaluator.stable
        assert engine.n_vector == 0
        assert engine.demotions == clean_vector_count
        # Nothing generated while calibrating; the vector program, which
        # the check discarded; the lane-mode one, which stays.
        nothing, discarded, kept = dict.fromkeys(sources)
        assert nothing == "" and kept == engine._source
        assert "\n    U" in discarded and "_lfwd(" not in discarded
        assert kept.count("_lfwd(") == clean_vector_count
        assert "\n    U" not in kept and "_reduce(" not in kept
        assert evaluator.counters()[
            "batch_demoted_instructions"
        ] == clean_vector_count


# -- the plain tape ------------------------------------------------------------


def _good(z):
    return ops.reduce_sum(ops.mul(ops.exp(z), 0.5))


def _value_dependent_constant(z):
    """Bakes a *value* of the input into the graph as a constant: same
    structure at every point, different numbers on replay."""
    return ops.reduce_sum(ops.mul(z, float(z.value[0])))


def _branching(z):
    """Data-dependent control flow: the graph's structure follows the sign
    of the first coordinate."""
    if z.value[0] > 0:
        return ops.reduce_sum(ops.exp(z))
    return ops.reduce_sum(ops.square(z))


def _assert_interpreted_exact(fn, got, x):
    value, grad = value_and_grad(fn, x)
    assert got[0] == value
    assert np.array_equal(got[1], grad)


class _Clock:
    now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def breaker(monkeypatch):
    """A private tape breaker on a hand-turned clock, so give-ups here
    neither see nor leave process-wide state."""
    clock = _Clock()
    fresh = CircuitBreaker(
        "compiled_tape",
        failure_threshold=tape_compile.BREAKER_THRESHOLD,
        reset_timeout=tape_compile.BREAKER_RESET_S,
        clock=clock,
    )
    monkeypatch.setattr(tape_compile, "_breaker_instance", fresh)
    fresh.clock = clock
    return fresh


@pytest.fixture(autouse=True)
def _plain_tapes():
    with suffstats.override(False):
        yield


def _give_up_once():
    compiled = CompiledFunction(_value_dependent_constant)
    compiled(np.array([0.5, 1.0]))
    with pytest.warns(RuntimeWarning, match="compiled tape disabled"):
        compiled(np.array([0.7, -1.0]))
    return compiled


class TestPlainTapeStepsDownToInterpretation:
    def test_accepted_probation_call_returns_the_tape_result(self, breaker):
        compiled = CompiledFunction(_good)
        x = np.array([0.3, -0.4, 1.1])
        compiled(x)
        assert compiled.stats["validations"] == 0
        validated = compiled(x + 0.25)
        assert compiled.stats["validations"] == 1
        _assert_interpreted_exact(_good, validated, x + 0.25)
        replayed = compiled(x + 0.25)
        assert compiled.stats["validations"] == 1
        assert replayed[0] == validated[0]
        assert np.array_equal(replayed[1], validated[1])
        assert compiled.broken is None and compiled.stats["fallbacks"] == 0

    def test_value_dependent_constant_gives_up(self, breaker):
        compiled = CompiledFunction(_value_dependent_constant)
        x0, x1 = np.array([0.5, 1.0]), np.array([0.7, -1.0])
        _assert_interpreted_exact(_value_dependent_constant, compiled(x0), x0)
        assert compiled.stats["records"] == 1
        with pytest.warns(RuntimeWarning, match="compiled tape disabled"):
            rejected = compiled(x1)
        # The rejected probation call hands back the reference's numbers.
        _assert_interpreted_exact(_value_dependent_constant, rejected, x1)
        assert compiled.broken is not None
        assert "disagrees" in compiled.broken
        for x in (x0, x1, x1 * 2.0):
            _assert_interpreted_exact(
                _value_dependent_constant, compiled(x), x
            )
        assert compiled.stats["fallbacks"] == 3
        assert compiled.stats["records"] == 1
        # One failure is on the breaker's books: two more open it.
        assert breaker.state == "closed"
        _give_up_once()
        assert breaker.state == "closed"
        _give_up_once()
        assert breaker.state == "open"

    def test_structure_change_rerecords_then_churn_gives_up(self, breaker):
        compiled = CompiledFunction(_branching)
        up, down = np.array([0.4, 0.2]), np.array([-0.4, 0.2])
        # Every call lands on the other branch than the tape in hand was
        # recorded on, so every probation call re-records.
        for call in range(tape_compile.MAX_RECORDS):
            x = up if call % 2 == 0 else down
            _assert_interpreted_exact(_branching, compiled(x), x)
            assert compiled.stats["records"] == call + 1
            assert compiled.broken is None
        with pytest.warns(RuntimeWarning, match="structure changed"):
            x = up if tape_compile.MAX_RECORDS % 2 == 0 else down
            _assert_interpreted_exact(_branching, compiled(x), x)
        assert "structure changed" in compiled.broken
        assert compiled.stats["records"] == tape_compile.MAX_RECORDS
        _assert_interpreted_exact(_branching, compiled(down), down)
        assert breaker.state == "closed"  # one give-up, not three

    def test_a_settled_branch_passes_probation_after_a_rerecord(self, breaker):
        compiled = CompiledFunction(_branching)
        up, down = np.array([0.4, 0.2]), np.array([-0.4, 0.2])
        compiled(up)
        compiled(down)  # stale: re-recorded on this branch
        assert compiled.stats["records"] == 2
        _assert_interpreted_exact(_branching, compiled(down * 2), down * 2)
        assert compiled.stats["validations"] == 2
        compiled(down * 3)
        assert compiled.stats["validations"] == 2
        assert compiled.stats["replays"] == 3

    def test_open_breaker_skips_recording_and_a_probe_closes_it(
        self, breaker
    ):
        for _ in range(tape_compile.BREAKER_THRESHOLD):
            _give_up_once()
        assert breaker.state == "open"

        x = np.array([0.3, -0.4, 1.1])
        compiled = CompiledFunction(_good)
        for _ in range(2):
            _assert_interpreted_exact(_good, compiled(x), x)
        assert compiled.stats["records"] == 0
        assert compiled.stats["fallbacks"] == 2
        assert compiled.broken is None  # not permanent for this function

        breaker.clock.now += tape_compile.BREAKER_RESET_S
        assert breaker.state == "half_open"
        _assert_interpreted_exact(_good, compiled(x), x)  # the probe records
        assert compiled.stats["records"] == 1
        # While the probe is on probation everyone else keeps interpreting.
        bystander = CompiledFunction(_good)
        bystander(x)
        assert bystander.stats["records"] == 0
        assert bystander.stats["fallbacks"] == 1
        _assert_interpreted_exact(_good, compiled(x + 1.0), x + 1.0)
        assert breaker.state == "closed"
        bystander(x)
        assert bystander.stats["records"] == 1

    def test_open_breaker_value_call_traces_forward_only(
        self, monkeypatch, breaker
    ):
        """With nothing to replay and the breaker open, ``value()`` is an
        interpreted evaluation like the gradient call's — minus the
        backward sweep nobody would read."""
        for _ in range(tape_compile.BREAKER_THRESHOLD):
            _give_up_once()
        assert breaker.state == "open"
        x = np.array([0.3, -0.4, 1.1])
        expected = value_and_grad(_good, x)[0]
        compiled = CompiledFunction(_good)
        with monkeypatch.context() as patch:
            patch.setattr(
                tape_compile.tape_mod, "backward",
                lambda *a, **k: pytest.fail("value() ran a backward sweep"),
            )
            for _ in range(2):
                assert compiled.value(x) == expected
        assert compiled.stats["fallbacks"] == 2
        assert compiled.stats["records"] == 0 and compiled.broken is None
        # The probe slot is still there for whoever records next.
        breaker.clock.now += tape_compile.BREAKER_RESET_S
        assert compiled.value(x) == expected
        assert compiled.stats["records"] == 1


# -- the value program ---------------------------------------------------------


def test_the_value_program_answers_once_the_tape_is_proven(breaker):
    """The value program is the proven tape's own forward lines: no
    probation of its own, so it answers the first value() call after the
    tape's probation, and every later one."""
    compiled = CompiledFunction(_good)
    x = np.array([0.3, -0.4, 1.1])
    # Nothing recorded, then a tape on probation: value() is the gradient
    # call's scalar and the ladder below it moves as ever.
    assert compiled.value(x) == value_and_grad(_good, x)[0]
    assert compiled.value(x + 0.25) == value_and_grad(_good, x + 0.25)[0]
    assert compiled.stats["validations"] == 1
    assert compiled.stats["value_replays"] == 0
    assert compiled.proven_tape() is not None
    for shift in (0.5, 0.75):
        assert compiled.value(x + shift) == value_and_grad(_good, x + shift)[0]
    assert compiled.stats["validations"] == 1
    assert compiled.stats["value_replays"] == 2
    assert compiled.stats["replays"] == 3


# -- the bar every rung is held to ---------------------------------------------

_NEGATIVE_NAN = np.copysign(np.nan, -1.0)
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]


class TestAgreementMeansBytes:
    """``verify.agreement``'s exact bar: bit for bit, a NaN matching any
    NaN; the tolerance bar as before."""

    def test_a_signed_zero_is_a_mismatch(self):
        assert verify.agreement(-0.0, 0.0) == verify.MISMATCH
        assert verify.agreement(
            np.array([1.5, -0.0]), np.array([1.5, 0.0])
        ) == verify.MISMATCH
        assert verify.agreement(
            np.array([1.5, -0.0]), np.array([1.5, -0.0])
        ) == verify.EXACT

    def test_any_nan_matches_any_nan(self):
        for nan in (np.nan, _NEGATIVE_NAN, _PAYLOAD_NAN):
            assert np.isnan(nan)
            assert verify.agreement(
                np.array([nan, 2.0]), np.array([np.nan, 2.0])
            ) == verify.EXACT
        assert verify.agreement(np.nan, 2.0) == verify.MISMATCH
        assert verify.agreement(2.0, np.nan) == verify.MISMATCH

    def test_a_tuple_takes_its_worst_member(self):
        grad = np.array([0.25, 0.0])
        assert verify.agreement((1.0, grad), (1.0, grad.copy())) == verify.EXACT
        assert verify.agreement(
            (1.0, grad), (1.0, np.array([0.25, -0.0]))
        ) == verify.MISMATCH
        tolerance = (1e-9, 1e-12)
        assert verify.agreement(
            (1.0, grad), (1.0 + 1e-12, grad), tolerance
        ) == verify.APPROXIMATE
        assert verify.agreement(
            (1.0 + 1e-12, grad), (1.0, np.array([0.5, 0.0])), tolerance
        ) == verify.MISMATCH

    def test_the_tolerance_bar_is_unchanged(self):
        tolerance = (1e-9, 1e-12)
        assert verify.agreement(1.0, 1.0 + 1e-12, tolerance) == verify.APPROXIMATE
        assert verify.agreement(1.0, 1.1, tolerance) == verify.MISMATCH
        # Not bit for bit, but well inside the tolerance.
        assert verify.agreement(-0.0, 0.0, tolerance) == verify.APPROXIMATE
        assert verify.agreement(np.nan, np.nan, tolerance) == verify.EXACT
        assert verify.agreement(np.nan, 1.0, tolerance) == verify.MISMATCH
        assert verify.agreement(np.inf, np.inf, tolerance) == verify.EXACT
        assert verify.agreement(np.inf, 1e308, tolerance) == verify.MISMATCH
        assert verify.agreement(-np.inf, np.inf, tolerance) == verify.MISMATCH
