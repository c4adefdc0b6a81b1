"""The step-down edges of the replay ladder, through the public surface.

Interpreted trace -> plain tape -> rewritten tape -> lane-mode batch ->
vector-mode batch, and beside a proven tape its forward-only value
program: every rung answers beside the rung below for its probation calls
and steps down on disagreement (docs/performance.md,
"How a fast path earns trust"). The identity batteries only ever see the
ladder agree; these tests make each rung disagree once — a monkeypatched
kernel or a value-dependent graph — and pin where it lands, what the
caller is handed on the rejected call (the reference's numbers) and on an
accepted one (the candidate's), and which counters move.
"""

import numpy as np
import pytest

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, suffstats
from repro.autodiff.compile import CompiledFunction
from repro.autodiff.functional import value_and_grad
from repro.batch.engine import BatchedEvaluator
from repro.models.model import BayesianModel, ParameterSpec
from repro.resilience.breakers import CircuitBreaker
from repro.telemetry import instrument
from repro.telemetry.metrics import MetricsRegistry

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
        registry = MetricsRegistry()
        labels = {"workload": "ladder"}
        evaluator = BatchedEvaluator(
            _Ladder(), 2, registry=registry, labels=labels
        )

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
        assert " = F" in discarded and "_lfwd(" not in discarded
        assert kept.count("_lfwd(") == clean_vector_count
        assert " = F" not in kept and "_reduce(" not in kept
        assert registry.counter_value(
            instrument.BATCH_DEMOTIONS, labels
        ) == clean_vector_count


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


class TestValueProgramStepsDownToTheFullReplay:
    def test_accepted_probation_call_returns_the_value_programs_result(
        self, breaker
    ):
        compiled = CompiledFunction(_good)
        x = np.array([0.3, -0.4, 1.1])
        # Nothing recorded, then a tape on probation: value() is the
        # gradient call's scalar and the ladder below it moves as ever.
        assert compiled.value(x) == value_and_grad(_good, x)[0]
        assert compiled.stats["records"] == 1
        assert compiled.value(x + 0.25) == value_and_grad(_good, x + 0.25)[0]
        assert compiled.stats["validations"] == 1
        assert compiled.stats["value_replays"] == 0
        assert compiled.proven_tape() is not None
        # The proven tape's value program answers beside its full replay...
        assert compiled.value(x + 0.5) == value_and_grad(_good, x + 0.5)[0]
        assert compiled.stats["validations"] == 2
        # ...once, and alone from then on.
        assert compiled.value(x + 0.75) == value_and_grad(_good, x + 0.75)[0]
        assert compiled.stats["validations"] == 2
        assert compiled.stats["value_replays"] == 2
        assert compiled.stats["replays"] == 3

    def test_disagreeing_value_program_steps_down_for_good(
        self, monkeypatch, breaker
    ):
        real = tape_compile.CompiledTape.value
        monkeypatch.setattr(
            tape_compile.CompiledTape, "value",
            lambda tape, x: real(tape, x) + 1e-9,
        )
        compiled = CompiledFunction(_good)
        x = np.array([0.3, -0.4, 1.1])
        compiled(x)
        compiled(x)
        tape = compiled.proven_tape()
        assert tape is not None
        with pytest.warns(RuntimeWarning, match="value-only replay demoted"):
            rejected = compiled.value(x + 0.5)
        # The rejected probation call hands back the reference's number.
        assert rejected == value_and_grad(_good, x + 0.5)[0]
        # The tape itself is untouched: still installed, still proven,
        # nothing on the breaker's books.
        assert compiled.broken is None
        assert compiled.proven_tape() is tape
        assert breaker.state == "closed"
        replays = compiled.stats["replays"]
        for shift in (0.75, 1.0):
            got = compiled.value(x + shift)
            assert got == value_and_grad(_good, x + shift)[0]
        assert compiled.stats["value_replays"] == 1
        assert compiled.stats["replays"] == replays + 2
        assert compiled.stats["fallbacks"] == 0
        _assert_interpreted_exact(_good, compiled(x + 2.0), x + 2.0)

    def test_a_rerecorded_tape_owes_a_fresh_value_probation(self, breaker):
        compiled = CompiledFunction(_branching)
        up = np.array([0.4, 0.2])
        for x in (up, up, up):
            compiled.value(x)
        assert compiled.stats["value_replays"] == 1
        assert compiled.stats["validations"] == 2
        # Another input shape installs another tape: both probations again.
        wide = np.array([0.4, 0.2, 0.1])
        for x in (wide, wide, wide, wide):
            assert compiled.value(x) == value_and_grad(_branching, x)[0]
        assert compiled.stats["records"] == 2
        assert compiled.stats["validations"] == 4
        assert compiled.stats["value_replays"] == 3
