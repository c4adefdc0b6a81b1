"""Property-based finite-difference verification of every autodiff kernel.

For each primitive registered in :data:`repro.autodiff.ops.KERNELS` there is
a scalar-valued builder that exercises it from a flat input vector. The
analytic reverse-mode gradient is checked against central finite differences
at randomized points — in *interpreted* mode (graph of closures) and in
*compiled* mode (tape replay), so both execution paths of the same kernel
are covered. A coverage assertion fails the suite the moment someone
registers a kernel without adding a builder here.

A third battery drives finite differences through *rewritten* tapes: every
kernel the sufficient-statistics pass can touch
(:data:`repro.autodiff.suffstats.REDUCIBLE_KERNELS`) gets a builder whose
graph actually folds, so the gradient of the reassociated form — segment
sums, absorbed constants, precomputed Gram matrices — is FD-verified too.
Its own coverage assertion keeps the set in sync with the rewriter.
"""

import zlib

import numpy as np
import pytest

from repro.autodiff import ops, suffstats
from repro.autodiff.compile import CompiledFunction
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tape import Var, constant
from repro.suite.odes import FribergKarlsson, ode_solution_op  # registers ode_solution

# -----------------------------------------------------------------------------
# One scalar builder per kernel: name -> (input_dim, fn(Var) -> scalar Var).
# Builders keep inputs away from non-smooth points (|x|, clip thresholds)
# so central differences are valid.
# -----------------------------------------------------------------------------

_SYSTEM = FribergKarlsson()
_T_EVAL = np.array([0.0, 0.5, 1.0, 2.0])
_S0 = np.zeros((6, 6))
_S0[1:6, 3] = 1.0


def _y0_from_theta(theta):
    return _SYSTEM.initial_state(80.0, float(theta[3]))


def _ode_case(x):
    # Map the unconstrained input to strictly positive parameters around the
    # model's plausible values so the integration stays well-behaved.
    theta = ops.exp(x * 0.1) * constant(
        np.array([10.0, 35.0, 90.0, 5.0, 0.2, 0.2])
    )
    solution = ode_solution_op(
        _SYSTEM.rhs, _SYSTEM.jac_y, _SYSTEM.jac_theta,
        _y0_from_theta, _T_EVAL, theta, steps_per_interval=2, s0=_S0,
    )
    return ops.sum(ops.log(ops.clip_min(solution[1:, :], 1e-8)))


def _spd(x, n):
    """A differentiable SPD matrix built from the first n*n inputs."""
    m = ops.reshape(x[: n * n], (n, n))
    return ops.matmul(m, ops.transpose(m)) + constant(np.eye(n) * float(n))


CASES = {
    "add": (4, lambda x: ops.sum(ops.add(x[:2], x[2:]))),
    "sub": (4, lambda x: ops.sum(ops.sub(x[:2], x[2:]))),
    "mul": (4, lambda x: ops.sum(ops.mul(x[:2], x[2:]))),
    "div": (4, lambda x: ops.sum(ops.div(x[:2], ops.exp(x[2:])))),
    "neg": (3, lambda x: ops.sum(ops.neg(x))),
    "power": (3, lambda x: ops.sum(ops.power(ops.exp(x), 2.5))),
    "square": (3, lambda x: ops.sum(ops.square(x))),
    "absolute": (3, lambda x: ops.sum(ops.absolute(x + 10.0))),
    "exp": (3, lambda x: ops.sum(ops.exp(x))),
    "log": (3, lambda x: ops.sum(ops.log(ops.exp(x) + 1.0))),
    "log1p": (3, lambda x: ops.sum(ops.log1p(ops.exp(x)))),
    "expm1": (3, lambda x: ops.sum(ops.expm1(x))),
    "sqrt": (3, lambda x: ops.sum(ops.sqrt(ops.exp(x) + 1.0))),
    "sin": (3, lambda x: ops.sum(ops.sin(x))),
    "cos": (3, lambda x: ops.sum(ops.cos(x))),
    "tanh": (3, lambda x: ops.sum(ops.tanh(x))),
    "sigmoid": (3, lambda x: ops.sum(ops.sigmoid(x))),
    "softplus": (3, lambda x: ops.sum(ops.softplus(x))),
    "log_sigmoid": (3, lambda x: ops.sum(ops.log_sigmoid(x))),
    "lgamma": (3, lambda x: ops.sum(ops.lgamma(ops.exp(x) + 0.5))),
    "erf": (3, lambda x: ops.sum(ops.erf(x))),
    "normal_cdf": (3, lambda x: ops.sum(ops.normal_cdf(x))),
    "arctan": (3, lambda x: ops.sum(ops.arctan(x))),
    "reduce_sum": (
        6,
        lambda x: ops.sum(
            ops.square(ops.reduce_sum(ops.reshape(x, (2, 3)), axis=0))
        ),
    ),
    "logsumexp": (4, lambda x: ops.logsumexp(x)),
    "dot": (6, lambda x: ops.dot(x[:3], x[3:])),
    "matvec": (
        6,
        lambda x: ops.sum(ops.matvec(ops.reshape(x[:4], (2, 2)), x[4:])),
    ),
    "matmul": (
        8,
        lambda x: ops.sum(
            ops.matmul(ops.reshape(x[:4], (2, 2)), ops.reshape(x[4:], (2, 2)))
        ),
    ),
    "reshape": (6, lambda x: ops.sum(ops.square(ops.reshape(x, (3, 2))))),
    "take": (5, lambda x: ops.sum(ops.take(x, np.array([0, 2, 2, 4])))),
    "getitem": (6, lambda x: ops.sum(ops.square(x[1:5]))),
    "concat": (4, lambda x: ops.sum(ops.square(ops.concat([x[:2], x[2:]])))),
    "stack": (4, lambda x: ops.sum(ops.square(ops.stack([x[:2], x[2:]])))),
    "cumsum": (4, lambda x: ops.sum(ops.square(ops.cumsum(x)))),
    "outer": (5, lambda x: ops.sum(ops.outer(x[:2], x[2:]))),
    "transpose": (
        6,
        lambda x: ops.sum(
            ops.matmul(constant(np.ones((2, 3))) * 0.5 + 1.0,
                       ops.transpose(ops.reshape(x, (2, 3))))
        ),
    ),
    "where": (
        4,
        lambda x: ops.sum(
            ops.where(np.array([True, False, True, False]), ops.exp(x), x * 3.0)
        ),
    ),
    "clip_min": (4, lambda x: ops.sum(ops.clip_min(x + 10.0, 0.5))),
    "quadratic_form_inv": (
        9,
        lambda x: ops.quadratic_form_inv(
            _spd(x, 3), np.array([0.3, -0.7, 1.1])
        ),
    ),
    "logdet_spd": (9, lambda x: ops.logdet_spd(_spd(x, 3))),
    "solve_spd": (
        12,
        lambda x: ops.sum(ops.solve_spd(_spd(x, 3), x[9:])),
    ),
    "cholesky_lower": (
        9,
        lambda x: ops.sum(ops.cholesky_lower(_spd(x, 3))),
    ),
    "ode_solution": (6, _ode_case),
}


def test_every_kernel_has_a_gradcheck_case():
    missing = set(ops.KERNELS) - set(CASES)
    assert not missing, (
        f"kernels without a finite-difference case: {sorted(missing)} — "
        "add builders to tests/test_autodiff_gradcheck.py"
    )


def _finite_difference(evaluate, x, eps):
    fd = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = eps
        hi, _ = evaluate(x + bump)
        lo, _ = evaluate(x - bump)
        fd[i] = (hi - lo) / (2.0 * eps)
    return fd


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
@pytest.mark.parametrize("name", sorted(CASES), ids=str)
def test_kernel_gradient_matches_finite_differences(name, mode, seed):
    dim, fn = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()) * 7919 + seed)
    x = rng.normal(scale=0.7, size=dim)

    if mode == "interpreted":
        evaluate = lambda p: value_and_grad(fn, p)  # noqa: E731
    else:
        compiled = CompiledFunction(fn)
        compiled(x)  # record
        evaluate = compiled
        assert compiled.broken is None, (
            f"{name}: tape did not compile ({compiled.broken})"
        )

    value, grad = evaluate(x)
    assert np.isfinite(value)
    eps = 1e-5 if name == "ode_solution" else 1e-6
    fd = _finite_difference(evaluate, x, eps)
    assert np.allclose(grad, fd, rtol=5e-4, atol=5e-6), (
        f"{name} [{mode}]: analytic gradient disagrees with central "
        f"differences\nanalytic={grad}\nfd={fd}"
    )

    if mode == "compiled":
        assert evaluate.stats["replays"] > 0
        assert evaluate.stats["fallbacks"] == 0


# -----------------------------------------------------------------------------
# Rewritten-tape cases: one builder per kernel the suffstats pass rewrites.
# Every builder's graph must actually fold (asserted per-test), so the FD
# check runs through the reassociated tape rather than the plain one.
# -----------------------------------------------------------------------------

#: 16 observations gathered from a 4-wide parameter base — oversampled
#: enough that the segment-sum fold always pays.
_IDX16 = np.tile(np.arange(4), 4)
_W16 = np.linspace(0.25, 2.0, 16)
_Y16 = np.linspace(-1.5, 2.0, 16)
_M12 = np.linspace(-1.0, 1.0, 36).reshape(12, 3)

#: 12 gathers over a 3-wide base, for the unary-commute builders.
_GIDX = np.tile(np.arange(3), 4)
_GW = np.linspace(0.3, 1.8, 12)


def _commute_case(unary, base=None):
    """Σ w ⊙ f(take(base(x), idx)): f commutes into the gather and the
    gather folds to a segment sum, so the rewritten tape applies ``f`` to
    the 3-wide base instead of the 12-wide gathered array."""
    def build(x):
        b = x if base is None else base(x)
        return ops.reduce_sum(
            ops.mul(constant(_GW), unary(ops.take(b, _GIDX)))
        )
    return (3, build)


def _pos(x):
    """A strictly positive 1-D base for partial-domain kernels."""
    return ops.add(ops.exp(x), 0.5)


def _shifted(x):
    """A base far from |·| and clip kinks so central differences hold."""
    return ops.add(x, 10.0)


REWRITTEN_CASES = {
    # structural kernels
    "reduce_sum": (1, lambda x: ops.neg(ops.reduce_sum(ops.square(
        ops.sub(constant(_Y16), ops.take(x, np.zeros(16, dtype=np.int64)))
    )))),
    "add": (4, lambda x: ops.reduce_sum(
        ops.add(ops.take(x, _IDX16), constant(_Y16))
    )),
    "sub": (4, lambda x: ops.reduce_sum(ops.square(
        ops.sub(constant(_Y16), ops.take(x, _IDX16))
    ))),
    "mul": (4, lambda x: ops.reduce_sum(
        ops.mul(constant(_Y16), ops.take(x, _IDX16))
    )),
    "div": (4, lambda x: ops.reduce_sum(
        ops.div(ops.take(x, _IDX16), constant(np.abs(_Y16) + 1.0))
    )),
    "take": (4, lambda x: ops.reduce_sum(
        ops.mul(constant(_W16), ops.take(x, _IDX16))
    )),
    "getitem": (6, lambda x: ops.reduce_sum(ops.square(
        ops.sub(constant(_Y16), ops.take(x[1:5], _IDX16))
    ))),
    "matvec": (3, lambda x: ops.reduce_sum(
        ops.matvec(constant(_M12), x)
    )),
    # the regression quadratic form: its rewrite *emits* dot(v, Gram @ v)
    "dot": (3, lambda x: ops.reduce_sum(ops.square(
        ops.sub(constant(np.linspace(0.5, 1.5, 12)),
                ops.matvec(constant(_M12), x))
    ))),
    # unary kernels commuted into the gather (total-domain)
    "neg": _commute_case(ops.neg),
    "square": _commute_case(ops.square),
    "absolute": _commute_case(ops.absolute, base=_shifted),
    "exp": _commute_case(ops.exp),
    "expm1": _commute_case(ops.expm1),
    "sin": _commute_case(ops.sin),
    "cos": _commute_case(ops.cos),
    "tanh": _commute_case(ops.tanh),
    "arctan": _commute_case(ops.arctan),
    "sigmoid": _commute_case(ops.sigmoid),
    "softplus": _commute_case(ops.softplus),
    "log_sigmoid": _commute_case(ops.log_sigmoid),
    "erf": _commute_case(ops.erf),
    "normal_cdf": _commute_case(ops.normal_cdf),
    "clip_min": _commute_case(lambda a: ops.clip_min(a, 0.5), base=_shifted),
    # partial-domain kernels: positive base, gather covers every entry
    "log": _commute_case(ops.log, base=_pos),
    "log1p": _commute_case(ops.log1p, base=_pos),
    "sqrt": _commute_case(ops.sqrt, base=_pos),
    "lgamma": _commute_case(ops.lgamma, base=_pos),
    "power": _commute_case(lambda a: ops.power(a, 2.5), base=_pos),
}


def test_every_reducible_kernel_has_a_rewritten_case():
    missing = suffstats.REDUCIBLE_KERNELS - set(REWRITTEN_CASES)
    assert not missing, (
        f"rewrite-eligible kernels without a rewritten-tape FD case: "
        f"{sorted(missing)} — add builders to REWRITTEN_CASES"
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(REWRITTEN_CASES), ids=str)
def test_rewritten_tape_gradient_matches_finite_differences(name, seed):
    dim, fn = REWRITTEN_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()) * 6151 + seed)
    x = rng.normal(scale=0.7, size=dim)

    with suffstats.override(True), suffstats.force_override(True):
        compiled = CompiledFunction(fn)
        compiled(x)  # record (and rewrite)
    assert compiled.broken is None, (
        f"{name}: rewritten tape did not compile ({compiled.broken})"
    )
    assert compiled.stats["suffstats_active"] == 1, (
        f"{name}: builder did not trigger the rewrite — the FD check would "
        f"run the plain tape (stats={compiled.stats})"
    )
    assert compiled.stats["suffstats_folded_ops"] > 0

    value, grad = compiled(x)
    assert np.isfinite(value)
    fd = _finite_difference(compiled, x, 1e-6)
    assert np.allclose(grad, fd, rtol=5e-4, atol=5e-6), (
        f"{name} [rewritten]: analytic gradient disagrees with central "
        f"differences\nanalytic={grad}\nfd={fd}"
    )
    assert compiled.stats["fallbacks"] == 0
    # The probation call did not step down: the FD check above ran on the
    # rewritten tape.
    assert compiled.stats["suffstats_active"] == 1
    assert compiled.stats["suffstats_demotions"] == 0
