"""Declared adjoints: the inline expression is the backward.

A kernel whose adjoints are elementwise expressions declares them in
``ops.py`` (``mul`` is ``("g * x1", "g * x0")``); its backward is derived
from that text, and the generated backward sweeps (``_emit_callable``'s
``_replay``, ``BatchedTape._emit_program``) emit the same text inline, with
each unbroadcast and each adjoint's presence fixed when the program is
generated. ``getitem`` under a basic key scatters with ``np.add`` into the
key's view of zeros instead of ``np.add.at``. None of this may move a bit:

* each derived backward, and each adjoint as the generators inline it, is
  held byte for byte to the backward that was written by hand before
  adjoints were declared (copied below as the reference);
* the reductions fixed at generation time are held byte for byte to
  ``_unbroadcast`` and ``_unbroadcast_lanes`` over generated shape pairs;
* the ``getitem`` scatter is held byte for byte to ``np.add.at``, ``-0.0``
  and NaN payloads included, in the kernel and in a generated program;
* every suite workload's batched program (lane subsets, a dead lane) and
  solo ``_replay`` are interpretation bit for bit, with no declared
  backward called through its kernel.

The ``slow`` variants run the same checks with more examples and points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as sps

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, verify
from repro.autodiff.compile import CompiledFunction, CompiledTape
from repro.autodiff.tape import _unbroadcast
from repro.batch.engine import BatchedTape, _lane_key, _unbroadcast_lanes
from repro.suite.registry import load_workload, workload_names
from tests.test_logp_value import _votes_not_positive_definite

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

#: Each declared kernel's backward as it was written by hand, arguments
#: ``(g, values, value, aux, static)``.
HAND_WRITTEN = {
    "add": lambda g, v, y, a, s: (g, g),
    "sub": lambda g, v, y, a, s: (g, -g),
    "mul": lambda g, v, y, a, s: (g * v[1], g * v[0]),
    "div": lambda g, v, y, a, s: (g * a, -g * v[0] * a * a),
    "neg": lambda g, v, y, a, s: (-g,),
    "power": lambda g, v, y, a, s: (g * s[0] * v[0] ** (s[0] - 1.0),),
    "square": lambda g, v, y, a, s: (g * 2.0 * v[0],),
    "absolute": lambda g, v, y, a, s: (g * np.sign(v[0]),),
    "exp": lambda g, v, y, a, s: (g * y,),
    "log": lambda g, v, y, a, s: (g / v[0],),
    "log1p": lambda g, v, y, a, s: (g / (1.0 + v[0]),),
    "expm1": lambda g, v, y, a, s: (g * (y + 1.0),),
    "sqrt": lambda g, v, y, a, s: (g * 0.5 / y,),
    "sin": lambda g, v, y, a, s: (g * np.cos(v[0]),),
    "cos": lambda g, v, y, a, s: (-g * np.sin(v[0]),),
    "tanh": lambda g, v, y, a, s: (g * (1.0 - y * y),),
    "sigmoid": lambda g, v, y, a, s: (g * y * (1.0 - y),),
    "softplus": lambda g, v, y, a, s: (g * a,),
    "log_sigmoid": lambda g, v, y, a, s: (g * a,),
    "lgamma": lambda g, v, y, a, s: (g * sps.digamma(v[0]),),
    "erf": lambda g, v, y, a, s: (
        g * _TWO_OVER_SQRT_PI * np.exp(-v[0] * v[0]),
    ),
    "normal_cdf": lambda g, v, y, a, s: (
        g * _INV_SQRT_2PI * np.exp(-0.5 * v[0] * v[0]),
    ),
    "arctan": lambda g, v, y, a, s: (g / (1.0 + v[0] * v[0]),),
    "clip_min": lambda g, v, y, a, s: (g * a,),
    "where": lambda g, v, y, a, s: (
        np.where(s[0], g, 0.0), np.where(s[0], 0.0, g),
    ),
    "dot": lambda g, v, y, a, s: (g * v[1], g * v[0]),
}

BINARY = ("add", "sub", "mul", "div")

# -- operands -----------------------------------------------------------------

SPECIAL = (
    np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, 1e300,
    5e-324, -2.5e-310,  # subnormals
)
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
    """``(name, values, static, g)`` for one kernel of :data:`HAND_WRITTEN`:
    0-d and broadcasting operands, a recorded constant as one operand of a
    binary op, one array passed twice, and an output adjoint ``g`` with
    the same special values."""
    name = draw(st.sampled_from(sorted(HAND_WRITTEN)))
    shape = draw(SHAPES)
    x = draw(_array(shape))
    static = ()
    if name in BINARY or name == "where":
        kind = draw(st.sampled_from(["array", "broadcast", "constant", "same"]))
        if kind == "same":
            values = (x, x)
        else:
            if kind == "constant":
                y = np.asarray(draw(ELEMENT), dtype=float)
            else:
                y = draw(_array(shape if kind == "array" else shape[-1:]))
            values = tuple(draw(st.permutations([x, y])))
        if name == "where":
            cond_shape = draw(st.sampled_from([(), shape]))
            static = (draw(hnp.arrays(bool, cond_shape)),)
    elif name == "dot":
        n = draw(st.integers(1, 4))
        values = (draw(_array((n,))), draw(_array((n,))))
    else:
        values = (x,)
        if name == "power":
            static = (draw(st.sampled_from([2.0, 3, 0.5, -1.0, 1.5, 0.0])),)
        elif name == "clip_min":
            static = (draw(st.sampled_from([0.0, -1.0, 1e-6])),)
    with np.errstate(all="ignore"):
        out_shape = np.shape(ops.KERNELS[name].forward(values, static)[0])
    return name, values, static, draw(_array(out_shape))


def _same(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _inline(kernel, k, g, values, value, aux, static):
    """Adjoint ``k`` as a generated sweep emits it, on names of its own."""
    names = {"g": "g9", "y": "V9", "a": "a7"}
    names.update((f"x{i}", f"P7_{i}") for i in range(len(values)))
    names.update((f"s{i}", f"S7_{i}") for i in range(len(static)))
    env = dict(ops.ADJOINT_GLOBALS, g9=g, V9=value, a7=aux)
    env.update((f"P7_{i}", v) for i, v in enumerate(values))
    env.update((f"S7_{i}", s) for i, s in enumerate(static))
    return eval(ops.adjoint_source(kernel.adjoints[k], names.__getitem__), env)


def _check(name, values, static, g) -> None:
    kernel = ops.KERNELS[name]
    with np.errstate(all="ignore"):
        value, aux = kernel.forward(values, static)
        want = HAND_WRITTEN[name](g, values, value, aux, static)
        got = kernel.backward(g, values, value, aux, static)
        assert type(got) is tuple and len(got) == len(want) == len(values)
        for k, (mine, theirs) in enumerate(zip(got, want)):
            _same(mine, theirs)
            _same(_inline(kernel, k, g, values, value, aux, static), theirs)


def test_declared_adjoints_are_pinned():
    declared = sorted(
        name for name, kernel in ops.KERNELS.items()
        if kernel.adjoints is not None
    )
    assert declared == sorted(HAND_WRITTEN)
    for name in declared:
        adjoints = ops.KERNELS[name].adjoints
        assert all("g" in ops.adjoint_names(e) for e in adjoints)
        if ops.KERNELS[name].call is not None:
            # A kernel declared by its numpy call hands its backward no aux.
            assert not any("a" in ops.adjoint_names(e) for e in adjoints)
    assert ops.KERNELS["mul"].adjoints == ("g * x1", "g * x0")
    assert ops.KERNELS["div"].adjoints == ("g * a", "-g * x0 * a * a")


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_derived_backward_is_the_hand_written_one(case):
    _check(*case)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(case=cases())
def test_derived_backward_is_the_hand_written_one_at_length(case):
    _check(*case)


FIXED_STATIC = {"power": (1.5,), "clip_min": (0.0,)}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_every_declared_kernel_on_a_fixed_matrix(name):
    # Hypothesis may not draw every kernel in a short run.
    x = np.array([[0.5, -2.0, np.nan], [np.inf, 3.0, -0.0]])
    other = x[::-1] * 1.75 + 5e-324
    g = np.array([[1.25, -0.0, 3.0], [2.0 ** -1070, np.nan, -7.5]])
    if name == "dot":
        values, g = (x[0], other[1]), np.asarray(-0.75)
    elif name in BINARY or name == "where":
        values = (x, other)
    else:
        values = (x,)
    static = FIXED_STATIC.get(name, ())
    if name == "where":
        static = (np.array([True, False, True]),)
    _check(name, values, static, g)


# -- reductions fixed at generation time ---------------------------------------

@st.composite
def shape_pairs(draw):
    """``(grad shape, target shape)``: the target broadcast up by leading
    axes and by size-1 axes grown."""
    target = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    grown = tuple(
        draw(st.integers(1, 3)) if n == 1 else n for n in target
    )
    return lead + grown, target


def _fixed(src_shape, target, grad, lead):
    src = tape_compile._unbroadcast_source("c", src_shape, target, lead)
    return eval(src, {"_sum": np.add.reduce, "c": grad})


def _check_reductions(pair, seed) -> None:
    shape, target = pair
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal((3,) + shape) * 10.0 ** rng.integers(-3, 4)
    grad.flat[rng.integers(grad.size)] = -0.0
    # One lane, as the solo replay unbroadcasts.
    solo = np.array(grad[0])
    _same(_fixed(shape, target, solo, 0), _unbroadcast(solo, target))
    # Over the lanes, as the batched program does.
    _same(
        _fixed((3,) + shape, (3,) + target, grad, 1),
        _unbroadcast_lanes(grad, target),
    )


@settings(max_examples=300, deadline=None)
@given(pair=shape_pairs(), seed=st.integers(0, 2**32 - 1))
def test_fixed_reductions_are_the_runtime_unbroadcast(pair, seed):
    _check_reductions(pair, seed)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(pair=shape_pairs(), seed=st.integers(0, 2**32 - 1))
def test_fixed_reductions_are_the_runtime_unbroadcast_at_length(pair, seed):
    _check_reductions(pair, seed)


# -- the getitem scatter ---------------------------------------------------------

#: Quiet NaNs of both signs with payloads, as bytes would carry them.
PAYLOADS = np.array(
    [0x7FF8000000000123, 0xFFF80000DEADBEEF], dtype=np.uint64
).view(float)


@st.composite
def scatters(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    key = draw(hnp.basic_indices(shape, allow_ellipsis=True, allow_newaxis=True))
    return shape, key, draw(st.integers(0, 2**32 - 1))


def _adjoint(rng, shape):
    """Normal draws salted with both zeros and NaN payloads."""
    g = rng.standard_normal(shape)
    pick = rng.random(shape)
    g[pick < 0.3] = -0.0
    g[(pick >= 0.3) & (pick < 0.4)] = 0.0
    g[pick >= 0.9] = rng.choice(PAYLOADS, size=int((pick >= 0.9).sum()))
    return g


def _add_at(x, key, g):
    grad = np.zeros_like(x)
    np.add.at(grad, key, g)
    return grad


def _check_scatter(shape, key, seed) -> None:
    assert ops.basic_key(key)
    rng = np.random.default_rng(seed)
    kernel = ops.KERNELS["getitem"]
    x = rng.standard_normal(shape)
    value = kernel.forward([x], (key,))[0]
    g = _adjoint(rng, np.shape(value))
    (grad,) = kernel.backward(g, [x], value, None, (key,))
    _same(grad, _add_at(x, key, g))
    # Over the lanes, under the key the batched program scatters with.
    stacked = rng.standard_normal((3,) + shape)
    lane_key = _lane_key(key)
    g = _adjoint(rng, np.shape(stacked[lane_key]))
    (grad,) = kernel.backward(g, [stacked], stacked[lane_key], None, (lane_key,))
    _same(grad, _add_at(stacked, lane_key, g))


@settings(max_examples=300, deadline=None)
@given(case=scatters())
def test_getitem_scatter_is_add_at(case):
    _check_scatter(*case)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(case=scatters())
def test_getitem_scatter_is_add_at_at_length(case):
    _check_scatter(*case)


def test_keys_holding_arrays_keep_add_at():
    assert not ops.basic_key((slice(None), np.array([0, 0, 1])))
    assert not ops.basic_key(True)
    assert ops.basic_key((Ellipsis, None, -1, slice(None, None, -2)))
    x = np.zeros((3, 4))
    key = (slice(None), np.array([1, 1, 3]))
    g = np.ones((3, 3))
    (grad,) = ops.KERNELS["getitem"].backward(g, [x], x[key], None, (key,))
    _same(grad, _add_at(x, key, g))
    assert grad[0, 1] == 2.0  # the repeated index sums


def _interpret(fn, x):
    leaf, root = tape_compile._trace(fn, x)
    return tape_compile._reference_from_trace(leaf, root, x)


def _interpreted(fn, x):
    """Interpretation with the solo path's rejection semantics."""
    with np.errstate(all="ignore"):
        return verify.or_rejection(lambda z: _interpret(fn, z), x)


def _assert_lanes_interpret(fn, results, xs) -> None:
    assert set(results) == set(xs)
    for lane, x in xs.items():
        value, grad = _interpreted(fn, x)
        _same(np.float64(results[lane][0]), np.float64(value))
        _same(results[lane][1], grad)


def _settled(tape, xs) -> BatchedTape:
    """A batched tape driven past both probations on ``xs``; every
    instruction that started vector is still vector."""
    engine = BatchedTape(tape, len(xs))
    while not engine.stable:
        engine.evaluate(xs)
    assert engine.demotions == 0
    return engine


def test_getitem_scatter_in_the_program_keeps_signed_zeros():
    """``-0.0`` weights make ``-0.0`` adjoints reach the scatter: ``0.0 +
    -0.0`` is ``0.0``, where writing the adjoint would keep ``-0.0``."""
    weights = np.array([-0.0, 2.0, -0.0, 3.0, -0.0, 1.5])

    def fn(z):
        picked = ops.getitem(ops.reshape(z, (2, 4)), (slice(None), slice(1, 4)))
        return ops.reduce_sum(ops.mul(ops.reshape(picked, (6,)), weights))

    compiled = CompiledFunction(fn)
    rng = np.random.default_rng(3)
    for _ in range(1 + verify.PROBATION["tape"]):
        compiled(rng.standard_normal(8))
    tape = compiled.proven_tape()
    xs = {i: rng.standard_normal(8) for i in range(3)}
    engine = _settled(tape, xs)
    assert "_z[K" in engine._source
    results = engine.evaluate(xs)
    _assert_lanes_interpret(fn, results, xs)
    grad = _interpret(fn, xs[0])[1]
    assert np.isfinite(grad).all() and not np.signbit(grad).any()


# -- every workload ----------------------------------------------------------

WIDTH = 4


def _declared_calls(tape, source, instructions):
    """The declared instructions ``source`` still calls a backward for."""
    return [
        ai for ai in instructions
        if tape.instructions[ai].kernel.adjoints is not None
        and f"B{ai}(" in source
    ]


def _check_workload(name, rounds) -> None:
    model = load_workload(name, scale=0.25)
    fn = model._logp_var
    rng = np.random.default_rng(11)
    x = model.initial_position(rng)
    leaf, root = tape_compile._trace(fn, x)
    tape = CompiledTape(root, leaf)

    def batch(lanes=range(WIDTH), spread=0.3):
        return {i: x + rng.normal(scale=spread, size=x.shape) for i in lanes}

    # The solo replay.
    with np.errstate(all="ignore"):
        for point in [x] + list(batch().values()):
            value, grad = tape.value_and_grad(point)
            want_value, want_grad = _interpret(fn, point)
            _same(value, want_value)
            _same(grad, want_grad)
    assert not _declared_calls(tape, tape._source, range(tape.n_instructions))

    # The batched program, once both probations are served.
    engine = _settled(tape, batch())
    vector = [ins.ai for ins in engine._bwd if ins.vector]
    assert not _declared_calls(tape, engine._source, vector)
    for index in range(rounds):
        lanes = sorted(rng.choice(WIDTH, rng.integers(1, WIDTH + 1), False))
        xs = batch(lanes, spread=0.3 + index % 3)
        if index % 2:
            # A dead lane: linear algebra raises in it, or NaN reaches
            # the root.
            dead = lanes[-1]
            xs[dead] = (
                _votes_not_positive_definite(model) if name == "votes"
                else np.full(x.shape, np.nan)
            )
        with np.errstate(all="ignore"):
            results = engine.evaluate(xs)
        _assert_lanes_interpret(fn, results, xs)
    assert engine.demotions == 0


@pytest.mark.parametrize("name", workload_names())
def test_workload_programs_are_interpretation(name):
    _check_workload(name, rounds=4)


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_workload_programs_are_interpretation_at_length(name):
    _check_workload(name, rounds=40)
