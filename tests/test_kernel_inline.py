"""Kernels declared by their numpy call: the inline call is the forward.

A kernel registered with ``ops.register_call`` has its forward derived from
one numpy call, and the generated replays (``CompiledTape._emit_callable``,
``BatchedTape._emit_program``) emit that call inline instead of calling the
forward. The same generator folds every instruction whose operands are all
constants into a ``C`` name. None of this may move a bit:

* each declared kernel's forward, and the inline call built from its
  declaration the way the generators build it, are held byte for byte to
  the arithmetic its forward ran when it was hand-written (``div``, whose
  forward is ``a * (1/b)``, must not be declared by ``np.divide``);
* folded slots are read as constants and never computed per call;
* every suite workload's generated ``_value`` and ``_replay`` are
  interpretation bit for bit.

The ``slow`` variants run the same checks with more examples and points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops
from repro.autodiff.compile import CompiledTape
from repro.autodiff.tape import constant
from repro.suite.registry import load_workload, workload_names


def _unary(fn):
    return lambda v, s, out: fn(v[0], out=out)


def _binary(fn):
    return lambda v, s, out: fn(v[0], v[1], out=out)


#: Each kernel's forward value as it was written by hand before kernels
#: were declared by their call. ``div`` is here as the one it must not be.
HAND_WRITTEN = {
    "add": _binary(np.add),
    "sub": _binary(np.subtract),
    "mul": _binary(np.multiply),
    "div": lambda v, s, out: np.multiply(v[0], 1.0 / v[1], out=out),
    "neg": _unary(np.negative),
    "power": lambda v, s, out: np.power(v[0], s[0], out=out),
    "square": lambda v, s, out: np.multiply(v[0], v[0], out=out),
    "absolute": _unary(np.absolute),
    "exp": _unary(np.exp),
    "log": _unary(np.log),
    "log1p": _unary(np.log1p),
    "expm1": _unary(np.expm1),
    "sqrt": _unary(np.sqrt),
    "sin": _unary(np.sin),
    "cos": _unary(np.cos),
    "tanh": _unary(np.tanh),
    "arctan": _unary(np.arctan),
    "sigmoid": _unary(sps.expit),
    "lgamma": _unary(sps.gammaln),
    "erf": _unary(sps.erf),
    "normal_cdf": _unary(sps.ndtr),
    "reduce_sum": lambda v, s, out: np.sum(v[0], axis=s[0], out=out),
}

BINARY = ("add", "sub", "mul", "div")
DECLARED = sorted(set(HAND_WRITTEN) - {"div"})

# -- operands -----------------------------------------------------------------

SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, 1e300)
ELEMENT = st.one_of(
    st.floats(-50, 50, allow_nan=False),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL),
)
SHAPES = st.sampled_from([(), (1,), (3,), (2, 3), (4, 1)])


def _array(shape):
    size = int(np.prod(shape, dtype=int))
    return st.lists(ELEMENT, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=float).reshape(shape)
    )


@st.composite
def cases(draw):
    """``(name, values, static)`` for one kernel of :data:`HAND_WRITTEN`:
    0-d and broadcasting operands, a recorded constant as one operand of a
    binary op, one array passed twice, and ``reduce_sum`` over every axis
    or one."""
    name = draw(st.sampled_from(sorted(HAND_WRITTEN)))
    shape = draw(SHAPES)
    x = draw(_array(shape))
    if name in BINARY:
        kind = draw(st.sampled_from(["array", "broadcast", "constant", "same"]))
        if kind == "same":
            return name, (x, x), ()
        if kind == "constant":
            y = constant(draw(ELEMENT)).value
        else:
            y = draw(_array(shape if kind == "array" else shape[-1:]))
        return name, draw(st.permutations([x, y])), ()
    if name == "power":
        return name, (x,), (draw(st.sampled_from([2.0, 3, 0.5, -1.0, 1.5, 0.0])),)
    if name == "reduce_sum":
        axes = [None] + [a for a in range(-len(shape), len(shape))]
        return name, (x,), (draw(st.sampled_from(axes)),)
    return name, (x,), ()


def _same(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _inline(kernel, values, static, out):
    """The call a generated replay emits for ``kernel``, run from source."""
    names = [f"x{k}" for k in range(len(values))]
    env = dict(zip(names, values), U=kernel.call, S=static, O=out)
    args = kernel.inline_args(names, [f"S[{i}]" for i in range(len(static))])
    return eval(f"U({args}, O)", env)


def _check(name, values, static) -> None:
    kernel = ops.KERNELS[name]
    with np.errstate(all="ignore"):
        shape = np.shape(HAND_WRITTEN[name](values, static, None))
        for buffered in (False, True):
            outs = [np.empty(shape) if buffered else None for _ in range(3)]
            want = HAND_WRITTEN[name](values, static, outs[0])
            value, aux = kernel.forward(values, static, outs[1])
            _same(value, want)
            if kernel.call is None:
                continue
            assert aux is None
            _same(_inline(kernel, values, static, outs[2]), want)
            if buffered:
                assert value is outs[1]


def test_declared_kernels_are_the_hand_written_ufunc_forwards():
    declared = sorted(
        name for name, kernel in ops.KERNELS.items() if kernel.call is not None
    )
    assert declared == DECLARED
    assert all(ops.KERNELS[name].out_safe for name in DECLARED)


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_inline_call_is_the_hand_written_forward(case):
    _check(*case)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(case=cases())
def test_inline_call_is_the_hand_written_forward_at_length(case):
    _check(*case)


FIXED = [
    (name, ()) for name in sorted(HAND_WRITTEN)
    if name not in ("power", "reduce_sum")
] + [("power", (1.5,))] + [("reduce_sum", (axis,)) for axis in (None, 0, 1, -1)]


@pytest.mark.parametrize(
    "name, static", FIXED, ids=[f"{name}{static}" for name, static in FIXED]
)
def test_every_kernel_on_a_fixed_matrix(name, static):
    # Hypothesis may not draw every kernel and axis in a short run.
    x = np.array([[0.5, -2.0, np.nan], [np.inf, 3.0, -0.0]])
    values = (x, x[::-1] + 0.25) if name in BINARY else (x,)
    _check(name, values, static)


# -- constant folding ---------------------------------------------------------

def _folded(tape: CompiledTape) -> dict:
    """Instruction index -> out slot of every instruction the generator
    folds: all-constant operands, outside an SPD group."""
    known = {s for s, value in enumerate(tape.constants) if value is not None}
    grouped = {
        ai for step in tape_compile._schedule(tape) if len(step) > 1
        for ai in step
    }
    folded = {}
    for ai, ins in enumerate(tape.instructions):
        if ai not in grouped and all(s in known for s in ins.inputs):
            known.add(ins.out)
            folded[ai] = ins.out
    return folded


def _interpret(fn, x):
    leaf, root = tape_compile._trace(fn, x)
    return tape_compile._reference_from_trace(leaf, root, x)


def _assert_replays_interpretation(fn, tape, x) -> None:
    want_value, want_grad = _interpret(fn, x)
    value, grad = tape.value_and_grad(x)
    _same(value, want_value)
    _same(grad, want_grad)
    _same(tape.value(x), want_value)


def test_folded_slots_are_constants_not_calls():
    a, b = np.array([0.5, 1.5, -2.0]), np.array([2.0, 0.25, 1.0])

    def fn(x):
        scale = ops.exp(ops.add(constant(a), constant(b)))  # folded
        shift = ops.reduce_sum(ops.square(constant(b)))  # folded, twice
        norm = ops.div(shift, 3.0)  # folded: not declared by its call
        y = ops.mul(ops.power(ops.sub(x, norm), 2.0), scale)
        return ops.add(ops.reduce_sum(ops.log1p(ops.square(y))), ops.sin(shift))

    x = np.array([0.3, -1.2, 2.5])
    leaf, root = tape_compile._trace(fn, x)
    tape = CompiledTape(root, leaf)
    folded = _folded(tape)
    # Five of them — add, exp, square, reduce_sum, div — plus the sin of
    # a folded slot.
    assert len(folded) == 6
    assert tape.n_instructions == 13  # the published program keeps them
    source = tape._source
    for ai, slot in folded.items():
        assert f"U{ai}(" not in source and f"F{ai}(" not in source
        assert f"v{slot} " not in source
    consumed = {
        s for ai, ins in enumerate(tape.instructions) if ai not in folded
        for s in ins.inputs if s in set(folded.values())
    }
    assert consumed and all(f"C{s}" in source for s in consumed)
    for point in (x, -x, np.array([np.nan, 0.0, 1e300])):
        with np.errstate(all="ignore"):
            _assert_replays_interpretation(fn, tape, point)


def test_votes_folds_its_constant_subtrees():
    model = load_workload("votes", scale=0.25)
    x = model.initial_position(np.random.default_rng(0))
    leaf, root = tape_compile._trace(model._logp_var, x)
    tape = CompiledTape(root, leaf)
    folded = _folded(tape)
    assert len(folded) == 8
    assert not any(f"U{ai}(" in tape._source for ai in folded)


# -- every workload ----------------------------------------------------------

def _workload_points(name, count):
    model = load_workload(name, scale=0.25)
    rng = np.random.default_rng(7)
    x = model.initial_position(rng)
    leaf, root = tape_compile._trace(model._logp_var, x)
    tape = CompiledTape(root, leaf)
    points = [x] + [
        x + rng.normal(scale=0.5, size=x.shape) for _ in range(count - 1)
    ]
    return model, tape, points


@pytest.mark.parametrize("name", workload_names())
def test_workload_replays_are_interpretation(name):
    model, tape, points = _workload_points(name, 3)
    for x in points:
        _assert_replays_interpretation(model._logp_var, tape, x)


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_workload_replays_are_interpretation_at_length(name):
    model, tape, points = _workload_points(name, 40)
    for x in points:
        _assert_replays_interpretation(model._logp_var, tape, x)
