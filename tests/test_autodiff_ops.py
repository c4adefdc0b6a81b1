"""Gradient checks for every differentiable op, including hypothesis sweeps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from repro.autodiff import check_grad, ops, value_and_grad

finite_vectors = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=6),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def positive_vector(n=4, lo=0.2, hi=3.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=n)


class TestArithmetic:
    def test_add_sub_mul_div(self):
        x = np.array([1.5, -0.5, 2.0])

        def f(v):
            return ops.sum((v + 2.0) * (v - 1.0) / (v * v + 3.0))

        assert check_grad(f, x)

    def test_rsub_rdiv_operators(self):
        def f(v):
            return ops.sum(3.0 - v) + ops.sum(2.0 / (v + 5.0))

        assert check_grad(f, np.array([1.0, 2.0]))

    def test_neg_pow_square_abs(self):
        def f(v):
            return ops.sum(-(v ** 3.0)) + ops.sum(ops.square(v)) + ops.sum(
                ops.absolute(v)
            )

        assert check_grad(f, np.array([1.5, 2.5, 0.5]))

    @given(finite_vectors)
    @settings(max_examples=25, deadline=None)
    def test_polynomial_grad_matches_fd(self, x):
        def f(v):
            return ops.sum(v * v * 0.5 + v * 3.0)

        _, g = value_and_grad(f, x)
        assert np.allclose(g, x + 3.0, atol=1e-8)


class TestTranscendentals:
    @pytest.mark.parametrize(
        "op",
        [ops.exp, ops.tanh, ops.sin, ops.cos, ops.sigmoid, ops.softplus,
         ops.log_sigmoid, ops.erf, ops.normal_cdf, ops.arctan],
    )
    def test_unary_anywhere(self, op):
        def f(v):
            return ops.sum(op(v))

        assert check_grad(f, np.array([-1.2, 0.0, 0.7, 2.3]))

    @pytest.mark.parametrize("op", [ops.log, ops.sqrt, ops.log1p, ops.lgamma])
    def test_unary_positive_domain(self, op):
        def f(v):
            return ops.sum(op(v))

        assert check_grad(f, positive_vector())

    def test_expm1(self):
        assert check_grad(lambda v: ops.sum(ops.expm1(v)), np.array([-0.5, 0.3]))

    def test_sigmoid_extreme_values_stable(self):
        v, g = value_and_grad(
            lambda x: ops.sum(ops.log_sigmoid(x)), np.array([-800.0, 800.0])
        )
        assert np.isfinite(v)
        assert np.all(np.isfinite(g))

    def test_softplus_matches_log1pexp(self):
        x = np.array([-2.0, 0.0, 3.0])
        v, _ = value_and_grad(lambda t: ops.sum(ops.softplus(t)), x)
        assert np.isclose(v, np.log1p(np.exp(x)).sum())


class TestReductions:
    def test_sum_all(self):
        assert check_grad(lambda v: ops.sum(v * v), np.array([1.0, -2.0, 3.0]))

    def test_sum_axis(self):
        def f(v):
            m = ops.reshape(v, (2, 3))
            col = ops.sum(m, axis=0)
            return ops.dot(col, col)

        assert check_grad(f, np.arange(6.0) + 1.0)

    def test_mean(self):
        _, g = value_and_grad(lambda v: ops.mean(v), np.ones(5))
        assert np.allclose(g, 0.2)

    def test_logsumexp_flat(self):
        assert check_grad(lambda v: ops.logsumexp(v), np.array([0.1, 1.0, -2.0]))

    def test_logsumexp_axis(self):
        def f(v):
            m = ops.reshape(v, (2, 2))
            return ops.sum(ops.logsumexp(m, axis=1))

        assert check_grad(f, np.array([0.1, 1.0, -2.0, 0.5]))

    def test_logsumexp_large_values_stable(self):
        v, g = value_and_grad(lambda x: ops.logsumexp(x), np.array([1000.0, 1000.0]))
        assert np.isclose(v, 1000.0 + np.log(2.0))
        assert np.allclose(g, 0.5)


class TestLinearAlgebra:
    def test_dot(self):
        def f(v):
            return ops.dot(v, np.array([1.0, 2.0, 3.0]))

        _, g = value_and_grad(f, np.zeros(3))
        assert np.allclose(g, [1.0, 2.0, 3.0])

    def test_matvec_both_sides(self):
        m0 = np.array([[1.0, 2.0], [3.0, 4.0]])

        def f(v):
            m = ops.reshape(v[:4], (2, 2))
            return ops.sum(ops.matvec(m, v[4:]) * np.array([1.0, -1.0]))

        assert check_grad(f, np.array([1.0, 2.0, 3.0, 4.0, 0.5, -0.5]))
        del m0

    def test_matmul(self):
        def f(v):
            a = ops.reshape(v[:4], (2, 2))
            b = ops.reshape(v[4:], (2, 2))
            return ops.sum(ops.matmul(a, b))

        assert check_grad(f, np.arange(8.0) + 1.0)

    def test_matmul_operator_dispatch(self):
        from repro.autodiff import var

        a = var(np.array([[1.0, 0.0], [0.0, 2.0]]))
        v = var(np.array([3.0, 4.0]))
        assert np.allclose((a @ v).value, [3.0, 8.0])
        assert np.isclose((v @ v).value, 25.0)

    def test_outer(self):
        def f(v):
            return ops.sum(ops.outer(v, v) * np.arange(9.0).reshape(3, 3))

        assert check_grad(f, np.array([1.0, -1.0, 0.5]))

    def test_quadratic_form_inv(self):
        y = np.array([1.0, 2.0, 3.0])

        def f(v):
            k = ops.outer(v, v) * 0.1 + ops.constant(np.eye(3) * 2.0)
            return ops.quadratic_form_inv(k, y)

        assert check_grad(f, np.array([0.5, -0.4, 0.8]))

    def test_logdet_spd(self):
        def f(v):
            k = ops.outer(v, v) * 0.1 + ops.constant(np.eye(3) * 2.0)
            return ops.logdet_spd(k)

        assert check_grad(f, np.array([0.5, -0.4, 0.8]))

    def test_logdet_value(self):
        v, _ = value_and_grad(
            lambda x: ops.logdet_spd(ops.constant(np.diag([2.0, 3.0])) + x[0] * 0.0),
            np.array([0.0]),
        )
        assert np.isclose(v, np.log(6.0))

    def test_solve_spd(self):
        def f(v):
            k = ops.outer(v, v) * 0.1 + ops.constant(np.eye(3) * 2.0)
            sol = ops.solve_spd(k, v * 2.0)
            return ops.dot(sol, np.array([1.0, 2.0, 3.0]))

        assert check_grad(f, np.array([0.5, -0.4, 0.8]))

    def test_cholesky_lower(self):
        def f(v):
            k = ops.outer(v, v) * 0.05 + ops.constant(np.eye(3))
            chol = ops.cholesky_lower(k)
            return ops.sum(ops.matvec(chol, ops.constant(np.array([1.0, 2.0, 3.0]))))

        assert check_grad(f, np.array([0.4, 0.2, -0.6]))

    def test_cholesky_value(self):
        k = np.array([[4.0, 2.0], [2.0, 5.0]])
        v, _ = value_and_grad(
            lambda x: ops.sum(ops.cholesky_lower(ops.constant(k)) * 0.0 + x[0] * 0.0)
            + ops.getitem(ops.cholesky_lower(ops.constant(k)), (0, 0)),
            np.array([0.0]),
        )
        assert np.isclose(v, 2.0)


class TestShaping:
    def test_reshape_roundtrip(self):
        def f(v):
            return ops.sum(ops.reshape(ops.reshape(v, (2, 3)), (6,)) * v)

        assert check_grad(f, np.arange(6.0))

    def test_take_with_duplicates(self):
        idx = np.array([0, 0, 1, 2, 2, 2])

        def f(v):
            return ops.sum(ops.take(v, idx) * np.arange(6.0))

        assert check_grad(f, np.array([1.0, 2.0, 3.0]))

    def test_getitem_scalar_index(self):
        _, g = value_and_grad(lambda v: v[1] * 3.0, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(g, [0.0, 3.0, 0.0])

    def test_getitem_slice(self):
        def f(v):
            return ops.sum(v[1:3] * np.array([2.0, 4.0]))

        _, g = value_and_grad(f, np.arange(4.0))
        assert np.allclose(g, [0.0, 2.0, 4.0, 0.0])

    def test_concat(self):
        def f(v):
            joined = ops.concat([v[:2] * 2.0, v[2:] * 3.0])
            return ops.dot(joined, np.arange(4.0) + 1.0)

        assert check_grad(f, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_stack_scalars(self):
        def f(v):
            stacked = ops.stack([v[0] * 2.0, v[1] * v[1], v[0] * v[1]])
            return ops.dot(stacked, np.array([1.0, 2.0, 3.0]))

        assert check_grad(f, np.array([1.5, -0.5]))

    def test_cumsum(self):
        def f(v):
            return ops.dot(ops.cumsum(v), np.array([1.0, 2.0, 3.0]))

        _, g = value_and_grad(f, np.zeros(3))
        # d/dv_i sum_j w_j * cumsum_j = sum_{j>=i} w_j
        assert np.allclose(g, [6.0, 5.0, 3.0])

    def test_where(self):
        cond = np.array([True, False, True])

        def f(v):
            return ops.sum(ops.where(cond, ops.square(v), ops.exp(v)))

        assert check_grad(f, np.array([1.0, 0.5, -1.0]))

    def test_clip_min_gradient_masked(self):
        _, g = value_and_grad(
            lambda v: ops.sum(ops.clip_min(v, 0.0)), np.array([-1.0, 2.0])
        )
        assert np.allclose(g, [0.0, 1.0])


class TestHypothesisGradProperties:
    @given(finite_vectors)
    @settings(max_examples=20, deadline=None)
    def test_tanh_chain(self, x):
        def f(v):
            return ops.sum(ops.tanh(v * 0.5 + 0.1))

        assert check_grad(f, x, rtol=1e-3, atol=1e-5)

    @given(finite_vectors)
    @settings(max_examples=20, deadline=None)
    def test_logsumexp_translation_invariance_of_grad(self, x):
        _, g1 = value_and_grad(lambda v: ops.logsumexp(v), x)
        _, g2 = value_and_grad(lambda v: ops.logsumexp(v), x + 7.0)
        assert np.allclose(g1, g2, atol=1e-10)
        assert np.isclose(g1.sum(), 1.0)


_INF = float("inf")
#: NaNs with the sign bit set and with a payload: where the result is not
#: finite only scipy's own direct sum gives back the same NaN bits.
_NANS = [float("nan"), -float("nan"), float(np.uint64(0x7FF8000000000123).view(float))]


@st.composite
def _logsumexp_case(draw):
    """An array of rank 0-3 and an axis (None, positive or negative).

    Its elements come from a pool of at most four values, so ties at the
    max and slices that are all ``-inf`` are common; pool values reach
    ``±750``, so the shifted terms underflow to denormals (below
    ``exp(-708)``) and to zero.
    """
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4))
    value = st.one_of(
        st.floats(min_value=-750.0, max_value=750.0),
        st.sampled_from([_INF, -_INF, 0.0, -0.0] + _NANS),
    )
    pool = draw(st.lists(value, min_size=1, max_size=4))
    a = draw(hnp.arrays(float, shape, elements=st.sampled_from(pool)))
    axes = [None] + list(range(-len(shape), len(shape)))
    return a, draw(st.sampled_from(axes))


class TestLogsumexpKernel:
    """The ``logsumexp`` kernel is scipy's arithmetic in plain numpy; the
    scipy call it replaced is the reference, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_logsumexp_case())
    @example((np.array([0.0, -720.0, -740.0, -800.0]), None))
    @example((np.array([[-_INF, -_INF], [1.0, -_INF]]), 1))
    @example((np.array([[3.0, 3.0, 1.0], [_INF, 2.0, _INF]]), -1))
    @example((np.array([[float("nan"), 0.0], [-0.0, 0.0]]), 0))
    @example((np.array(-_INF), None))
    def test_equals_scipy_bytewise(self, case):
        a, axis = case
        with np.errstate(all="ignore"):
            expected = scipy_logsumexp(a, axis=axis)
        got, _aux = ops.KERNELS["logsumexp"].forward([a], (axis,))
        assert type(got) is type(expected)
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
