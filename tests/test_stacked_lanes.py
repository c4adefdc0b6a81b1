"""Stacked lane kernels: one LAPACK/BLAS call over the lanes, same bytes.

The batched engine runs an SPD group for every live lane from one stacked
factor (``engine._lane_group`` over ``ops.spd_lanes_forward``) and ``dot``
and ``matvec`` as one stacked ``matmul`` (``ops.LANE_PRODUCTS``). These
tests hold each to the per-lane solo kernels byte for byte over generated
sizes, lane counts and right-hand sides, with lanes whose matrix is not
positive definite mixed in: such a lane makes the stacked factor raise, and
the group must then find exactly the lanes the per-lane loop finds dead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import ops
from repro.batch import engine as engine_mod

SPD_OPS = ("solve_spd", "logdet_spd", "quadratic_form_inv")


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class _Member:
    """The parts of an engine instruction an SPD group writes."""

    def __init__(self, name, n, width) -> None:
        self.name = name
        self.buf = np.full((width,) + ((n,) if name == "solve_spd" else ()), 7.0)
        self.orow = engine_mod._lane_rows(self.buf)
        self.aux_rows = [None] * width


def _row(operand, i):
    array, batched = operand
    return array[i] if batched else array


def _spd(rng, n):
    base = rng.normal(size=(n, n))
    return base @ base.T + n * np.eye(n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    width=st.integers(1, 6),
    names=st.lists(st.sampled_from(SPD_OPS), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_spd_group_is_the_lane_loop_byte_for_byte(
    n, width, names, seed, data
):
    rng = np.random.default_rng(seed)
    non_pd = data.draw(st.sets(st.integers(0, width - 1)), label="non_pd")
    lanes = sorted(data.draw(
        st.sets(st.integers(0, width - 1), min_size=1), label="lanes",
    ))
    shared_matrix = data.draw(st.booleans(), label="shared_matrix")
    # A lane outside the cone gets the negated matrix: negative definite.
    if shared_matrix:
        k = _spd(rng, n) * (-1.0 if non_pd else 1.0)
        matrix = (k, False)
        non_pd = set(range(width)) if non_pd else set()
    else:
        k = np.stack([_spd(rng, n) for _ in range(width)])
        for i in non_pd:
            k[i] = -k[i]
        matrix = (k, True)
    rhs = []
    for name in names:
        if name == "logdet_spd":
            rhs.append(None)
        elif name == "quadratic_form_inv" or data.draw(st.booleans(), label="shared_rhs"):
            rhs.append((rng.normal(size=n), False))
        else:
            rhs.append((rng.normal(size=(width, n)), True))

    members = [_Member(name, n, width) for name in names]
    dead = set()
    engine_mod._lane_group((members, tuple(names), matrix, rhs), lanes, dead)
    # The per-lane kernels: one group forward per lane, alone.
    looped = set()
    for i in lanes:
        try:
            answers = ops.spd_group_forward(
                _row(matrix, i), tuple(names),
                [None if y is None else _row(y, i) for y in rhs],
            )
        except np.linalg.LinAlgError:
            looped.add(i)
            continue
        for member, (value, aux) in zip(members, answers):
            assert _bytes(member.orow[i]) == _bytes(value), member.name
            assert _bytes(member.aux_rows[i]) == _bytes(aux), member.name
    assert dead == looped == non_pd & set(lanes)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    width=st.integers(1, 6),
    shared=st.sampled_from(["none", "first", "second"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_products_are_the_solo_kernels_byte_for_byte(
    n, m, width, shared, seed
):
    rng = np.random.default_rng(seed)
    cases = {
        "dot": ((n,), (n,), ()),
        "matvec": ((m, n), (n,), (m,)),
    }
    for op, (shape0, shape1, out_shape) in cases.items():
        operands = [
            rng.normal(size=shape) if shared == which
            else rng.normal(size=(width,) + shape)
            for which, shape in (("first", shape0), ("second", shape1))
        ]
        views, adjoint = ops.LANE_PRODUCTS[op]
        out = np.empty((width,) + out_shape)
        np.matmul(*views(*operands, out))
        g = rng.normal(size=(width,) + out_shape)
        contributions = [adjoint(g, operands, k) for k in (0, 1)]
        kernel = ops.KERNELS[op]
        for i in range(width):
            row = [a if a.ndim == len(s) else a[i]
                   for a, s in zip(operands, (shape0, shape1))]
            value, aux = kernel.forward(row, (), None)
            assert _bytes(out[i]) == _bytes(value), op
            want = kernel.backward(g[i], row, value, aux, ())
            for k, c in enumerate(contributions):
                assert _bytes(c[i]) == _bytes(want[k]), (op, k)
