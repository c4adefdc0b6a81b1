"""Differentiable operations on :class:`~repro.autodiff.tape.Var` nodes.

Every public function accepts ``Var`` or plain numeric inputs (promoted to
constants) and returns a ``Var`` whose ``backward_fn`` implements the exact
vector-Jacobian product. Broadcasting follows numpy semantics; the tape layer
un-broadcasts adjoints back to parent shapes.

Primitives are defined as *kernels* — a pure forward function and a pure
backward function registered in :data:`KERNELS` — and every ``Var`` records
which kernel produced it (``Var.op`` / ``Var.op_static``). The interpreted
path (graph of closures, this module) and the compiled replay paths
(:mod:`repro.autodiff.compile`, :mod:`repro.batch.engine`) both execute
these same kernels, so compiled evaluation is bit-identical to interpreted
evaluation by construction, not by tolerance. The one shared-work variant,
:func:`spd_group_forward`, returns bitwise what its members' forwards do.

Kernel contract::

    forward(values, static, out=None) -> (value, aux)
    backward(g, values, value, aux, static) -> tuple of contributions

``values`` are the parents' numpy values (in parent order), ``static`` the
non-differentiated arguments captured at call time, ``aux`` whatever forward
intermediates the backward pass wants to reuse. Kernels flagged ``out_safe``
may write their result into a preallocated ``out`` buffer (same ufunc call,
same rounding — only the destination differs); the interpreted path always
passes ``out=None``. A backward returns one array contribution per parent,
never ``None``, so a generated sweep knows at generation time which
adjoints are set.

A kernel whose adjoints are elementwise expressions declares them in place
of a backward: one per operand, over ``g`` (the output's adjoint), ``x0,
x1, ...`` (the operands), ``y`` (the output), ``a`` (the aux) and ``s0, s1,
...`` (the static arguments), with :data:`ADJOINT_GLOBALS` in scope —
``mul`` is ``("g * x1", "g * x0")``. Its backward is derived from that text
and the generated backward sweeps emit the same text inline
(:func:`adjoint_source`): one arithmetic everywhere. Every adjoint reads
``g`` and ``a`` broadcasts to the output, so an adjoint's shape is the
broadcast of the shapes it reads besides ``a``.

A kernel whose forward is one numpy call is declared by that call
(:func:`register_call`): ``call(*values, out)``, or ``call(*operands(values,
static), out)`` where the arguments are arranged (``square`` passes its
operand twice, ``power`` adds its exponent, ``reduce_sum`` its axis), with
``aux=None``. Its forward is derived from the declaration, and the
generated replays emit the same call inline (:meth:`OpKernel.inline_args`)
instead of calling the forward — one arithmetic either way. ``div`` is not
one of them: its forward is ``a * (1/b)``, which is not bitwise
``np.divide``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as sps

from repro.autodiff.tape import Var, constant

ArrayLike = Union[float, int, np.ndarray, Var]


def _as_var(x: ArrayLike) -> Var:
    if isinstance(x, Var):
        return x
    return constant(x)


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

class OpKernel:
    """One differentiable primitive: paired forward/backward numpy kernels.

    ``call`` and ``operands`` are set on a kernel declared by its numpy call
    (:func:`register_call`), ``None`` on every other; ``adjoints`` on a
    kernel whose backward is declared by its adjoint expressions.
    """

    __slots__ = (
        "name", "forward", "backward", "out_safe", "call", "operands",
        "adjoints",
    )

    def __init__(
        self,
        name: str,
        forward: Callable,
        backward: Callable,
        out_safe: bool = False,
    ) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward
        self.out_safe = out_safe
        self.call: Optional[Callable] = None
        self.operands: Optional[Callable] = None
        self.adjoints: Optional[Tuple[str, ...]] = None

    def inline_args(self, values: Sequence[str], static: Sequence[str]) -> str:
        """Source for ``call``'s arguments before ``out``, given source
        names for the operands and for the items of ``static``."""
        args = values if self.operands is None else self.operands(values, static)
        return ", ".join(map(str, args))

    def __repr__(self) -> str:
        return f"OpKernel({self.name!r}, out_safe={self.out_safe})"


#: name -> kernel; shared by the interpreted and compiled execution paths.
KERNELS: Dict[str, OpKernel] = {}

#: What a declared adjoint may read besides its own names.
ADJOINT_GLOBALS = {
    "np": np,
    "sps": sps,
    "TWO_OVER_SQRT_PI": 2.0 / np.sqrt(np.pi),
    "INV_SQRT_2PI": 1.0 / np.sqrt(2.0 * np.pi),
}

# A declared adjoint's own names, not preceded by an attribute dot.
_ADJOINT_NAME = re.compile(r"(?<![\w.])(g|y|a|[xs]\d+)(?!\w)")


def adjoint_names(expr: str) -> frozenset:
    """The names of the declared adjoint ``expr`` reads: ``g``, ``y``,
    ``a``, ``x<i>`` and ``s<i>``."""
    return frozenset(_ADJOINT_NAME.findall(expr))


def adjoint_source(expr: str, rename: Callable[[str], str]) -> str:
    """``expr`` with each of its names replaced by ``rename(name)``, the
    source that holds that value where the expression is emitted."""
    return _ADJOINT_NAME.sub(lambda match: rename(match.group(1)), expr)


def _derived_backward(adjoints: Tuple[str, ...]) -> Callable:
    """The backward kernel that returns ``adjoints``."""
    def rename(name):  # x<i> is v[i] and s<i> is s[i]; g, y, a are as named
        return f"{name[0].replace('x', 'v')}[{name[1:]}]" if name[1:] else name
    body = "".join(f"{adjoint_source(e, rename)}, " for e in adjoints)
    return eval(f"lambda g, v, y, a, s: ({body})", dict(ADJOINT_GLOBALS))


def register_kernel(
    name: str,
    forward: Callable,
    backward: Union[Callable, Tuple[str, ...]],
    out_safe: bool = False,
) -> OpKernel:
    """Register a primitive so both execution paths can run it by name.

    ``backward`` is the backward kernel, or the kernel's adjoints declared
    as expressions, one per operand, from which it is derived.
    """
    if name in KERNELS:
        raise ValueError(f"kernel {name!r} already registered")
    adjoints = backward if isinstance(backward, tuple) else None
    if adjoints is not None:
        if not all("g" in adjoint_names(e) for e in adjoints):
            raise ValueError(f"kernel {name!r}: every adjoint must read g")
        backward = _derived_backward(adjoints)
    kernel = OpKernel(name, forward, backward, out_safe)
    kernel.adjoints = adjoints
    KERNELS[name] = kernel
    return kernel


def register_call(
    name: str,
    call: Callable,
    backward: Union[Callable, Tuple[str, ...]],
    operands: Optional[Callable] = None,
) -> OpKernel:
    """Register a primitive whose forward is the one numpy call ``call``.

    The forward is ``call(*values, out)``, or ``call(*operands(values,
    static), out)`` when the arguments are arranged, and hands its backward
    no aux. A generated replay emits that call itself, passing
    ``operands`` source names where the forward passes values.
    """
    if operands is None:
        def forward(v, static, out=None):
            return call(*v, out), None
    else:
        def forward(v, static, out=None):
            return call(*operands(v, static), out), None
    kernel = register_kernel(name, forward, backward, out_safe=True)
    kernel.call, kernel.operands = call, operands
    return kernel


def apply_kernel(
    name: str,
    parents: Sequence[Var],
    static: tuple = (),
    tag: Optional[str] = None,
) -> Var:
    """Run a registered kernel in interpreted mode, producing a graph node.

    The node remembers ``(name, static)`` so the compiled-tape recorder can
    re-dispatch to the identical kernel during replay.
    """
    kernel = KERNELS[name]
    values = tuple(p.value for p in parents)
    value, aux = kernel.forward(values, static, None)
    node = Var(value, parents)
    out_value = node.value
    backward = kernel.backward
    node.backward_fn = lambda g: backward(g, values, out_value, aux, static)
    node.op = name
    node.op_static = static
    if tag is not None:
        node.tag = tag
    return node


_apply = apply_kernel


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

register_call("add", np.add, ("g", "g"))


def add(a: ArrayLike, b: ArrayLike) -> Var:
    return _apply("add", (_as_var(a), _as_var(b)))


register_call("sub", np.subtract, ("g", "-g"))


def sub(a: ArrayLike, b: ArrayLike) -> Var:
    return _apply("sub", (_as_var(a), _as_var(b)))


register_call("mul", np.multiply, ("g * x1", "g * x0"))


def mul(a: ArrayLike, b: ArrayLike) -> Var:
    return _apply("mul", (_as_var(a), _as_var(b)))


def _div_fwd(v, static, out=None):
    # a * (1/b), matching the historical tape semantics exactly (this is
    # not bitwise the same as a/b, so it must stay a*(1/b) on both paths).
    inv = 1.0 / v[1]
    return np.multiply(v[0], inv, out=out), inv


register_kernel("div", _div_fwd, ("g * a", "-g * x0 * a * a"), out_safe=True)


def div(a: ArrayLike, b: ArrayLike) -> Var:
    return _apply("div", (_as_var(a), _as_var(b)))


register_call("neg", np.negative, ("-g",))


def neg(a: ArrayLike) -> Var:
    return _apply("neg", (_as_var(a),))


register_call(
    "power", np.power, ("g * s0 * x0 ** (s0 - 1.0)",), lambda v, s: (v[0], s[0])
)


def power(a: ArrayLike, exponent: float) -> Var:
    """``a ** exponent`` for a constant (non-differentiated) exponent."""
    return _apply("power", (_as_var(a),), (exponent,))


register_call("square", np.multiply, ("g * 2.0 * x0",), lambda v, s: (v[0], v[0]))


def square(a: ArrayLike) -> Var:
    return _apply("square", (_as_var(a),))


register_call("absolute", np.absolute, ("g * np.sign(x0)",))


def absolute(a: ArrayLike) -> Var:
    return _apply("absolute", (_as_var(a),))


# ---------------------------------------------------------------------------
# Elementwise transcendentals
# ---------------------------------------------------------------------------

register_call("exp", np.exp, ("g * y",))


def exp(a: ArrayLike) -> Var:
    return _apply("exp", (_as_var(a),))


register_call("log", np.log, ("g / x0",))


def log(a: ArrayLike) -> Var:
    return _apply("log", (_as_var(a),))


register_call("log1p", np.log1p, ("g / (1.0 + x0)",))


def log1p(a: ArrayLike) -> Var:
    return _apply("log1p", (_as_var(a),))


register_call("expm1", np.expm1, ("g * (y + 1.0)",))


def expm1(a: ArrayLike) -> Var:
    return _apply("expm1", (_as_var(a),))


register_call("sqrt", np.sqrt, ("g * 0.5 / y",))


def sqrt(a: ArrayLike) -> Var:
    return _apply("sqrt", (_as_var(a),))


register_call("sin", np.sin, ("g * np.cos(x0)",))


def sin(a: ArrayLike) -> Var:
    return _apply("sin", (_as_var(a),))


register_call("cos", np.cos, ("-g * np.sin(x0)",))


def cos(a: ArrayLike) -> Var:
    return _apply("cos", (_as_var(a),))


register_call("tanh", np.tanh, ("g * (1.0 - y * y)",))


def tanh(a: ArrayLike) -> Var:
    return _apply("tanh", (_as_var(a),))


register_call("sigmoid", sps.expit, ("g * y * (1.0 - y)",))


def sigmoid(a: ArrayLike) -> Var:
    """Numerically stable logistic function."""
    return _apply("sigmoid", (_as_var(a),))


def _softplus_fwd(v, static, out=None):
    value = np.logaddexp(0.0, v[0], out=out)
    return value, sps.expit(v[0])


register_kernel("softplus", _softplus_fwd, ("g * a",), out_safe=True)


def softplus(a: ArrayLike) -> Var:
    """log(1 + exp(a)), computed stably."""
    return _apply("softplus", (_as_var(a),))


def _log_sigmoid_fwd(v, static, out=None):
    value = np.negative(np.logaddexp(0.0, -v[0]), out=out)
    return value, sps.expit(-v[0])


register_kernel("log_sigmoid", _log_sigmoid_fwd, ("g * a",), out_safe=True)


def log_sigmoid(a: ArrayLike) -> Var:
    """log(sigmoid(a)) = -softplus(-a), computed stably."""
    return _apply("log_sigmoid", (_as_var(a),))


register_call("lgamma", sps.gammaln, ("g * sps.digamma(x0)",))


def lgamma(a: ArrayLike) -> Var:
    """log |Gamma(a)|; derivative is the digamma function."""
    return _apply("lgamma", (_as_var(a),))


register_call("erf", sps.erf, ("g * TWO_OVER_SQRT_PI * np.exp(-x0 * x0)",))


def erf(a: ArrayLike) -> Var:
    return _apply("erf", (_as_var(a),))


register_call("normal_cdf", sps.ndtr, ("g * INV_SQRT_2PI * np.exp(-0.5 * x0 * x0)",))


def normal_cdf(a: ArrayLike) -> Var:
    """Standard normal CDF Phi(a)."""
    return _apply("normal_cdf", (_as_var(a),))


register_call("arctan", np.arctan, ("g / (1.0 + x0 * x0)",))


def arctan(a: ArrayLike) -> Var:
    return _apply("arctan", (_as_var(a),))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _reduce_sum_bwd(g, v, value, aux, static):
    axis = static[0]
    if axis is None:
        return (np.broadcast_to(g, v[0].shape),)
    expanded = np.expand_dims(g, axis)
    return (np.broadcast_to(expanded, v[0].shape),)


# np.sum's own reduction, minus its Python wrapper: (x, axis, dtype, out).
register_call(
    "reduce_sum", np.add.reduce, _reduce_sum_bwd, lambda v, s: (v[0], s[0], None)
)


def reduce_sum(a: ArrayLike, axis: Optional[int] = None) -> Var:
    return _apply("reduce_sum", (_as_var(a),), (axis,))


# Stan-style alias; "sum" shadows the builtin only within explicit ops.sum use.
sum = reduce_sum


def mean(a: ArrayLike, axis: Optional[int] = None) -> Var:
    a = _as_var(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return div(reduce_sum(a, axis=axis), float(count))


def _logsumexp_value(a, axis):
    """``scipy.special.logsumexp(a, axis)`` bit for bit, in plain numpy.

    scipy's real-input arithmetic without its array-API dispatch, which
    cost more than the arithmetic on the suite's mixtures: the largest
    term and its ``m`` ties are taken out of the sum ``s`` of the shifted
    exponentials, ``log1p(s / m) + log(m) + max``, and wherever that is
    not finite the direct ``log(sum(exp(a)))`` stands in, computed only
    then. ``tests/test_autodiff_ops.py`` compares bytes with scipy. Two
    departures, neither of which can change a bit:

    * scipy sets the ties to ``-inf`` before ``exp``; here they are
      zeroed after it. With a finite max a tie's term is ``exp(0)``, so
      both give ``+0.0``; with a non-finite max the result is the direct
      sum's either way. The zero skips ``exp(-inf)``, which is three
      times slower than a finite ``exp``, on half of a two-way mixture.
    * scipy's sign bookkeeping serves weights and ``return_sign``.
      Without weights ``s`` and ``m`` are never negative, so it is left
      out.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axes, keepdims=True)
        ties = a == a_max
        m = np.sum(ties, axis=axes, keepdims=True, dtype=float)
        terms = np.subtract(a, a_max)
        np.exp(terms, out=terms)
        terms[ties] = 0.0
        s = np.sum(terms, axis=axes, keepdims=True)
        s /= m
        out = np.log1p(s, out=s)
        out += np.log(m, out=m)
        out += a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def _logsumexp_fwd(v, static, out=None):
    return _logsumexp_value(v[0], static[0]), None


def _logsumexp_bwd(g, v, value, aux, static):
    axis = static[0]
    if axis is None:
        soft = np.exp(v[0] - value)
        return (g * soft,)
    expanded_out = np.expand_dims(value, axis)
    soft = np.exp(v[0] - expanded_out)
    return (np.expand_dims(g, axis) * soft,)


register_kernel("logsumexp", _logsumexp_fwd, _logsumexp_bwd)


def logsumexp(a: ArrayLike, axis: Optional[int] = None) -> Var:
    """Stable log(sum(exp(a))) with softmax backward."""
    return _apply("logsumexp", (_as_var(a),), (axis,))


def _dot_fwd(v, static, out=None):
    return v[0] @ v[1], None


register_kernel("dot", _dot_fwd, ("g * x1", "g * x0"))


def dot(a: ArrayLike, b: ArrayLike) -> Var:
    """Inner product of two 1-D arrays."""
    return _apply("dot", (_as_var(a), _as_var(b)))


def _matvec_fwd(v, static, out=None):
    return v[0] @ v[1], None


def _matvec_bwd(g, v, value, aux, static):
    return (np.outer(g, v[1]), v[0].T @ g)


register_kernel("matvec", _matvec_fwd, _matvec_bwd)


def matvec(m: ArrayLike, v: ArrayLike) -> Var:
    """Matrix-vector product ``m @ v`` for 2-D ``m`` and 1-D ``v``."""
    return _apply("matvec", (_as_var(m), _as_var(v)))


def _matmul_fwd(v, static, out=None):
    return np.matmul(v[0], v[1], out=out), None


def _matmul_bwd(g, v, value, aux, static):
    return (g @ v[1].T, v[0].T @ g)


register_kernel("matmul", _matmul_fwd, _matmul_bwd, out_safe=True)


def matmul(a: ArrayLike, b: ArrayLike) -> Var:
    """Matrix-matrix product for 2-D operands."""
    return _apply("matmul", (_as_var(a), _as_var(b)))


# ---------------------------------------------------------------------------
# Shaping / indexing
# ---------------------------------------------------------------------------

def _reshape_fwd(v, static, out=None):
    return v[0].reshape(static[0]), None


def _reshape_bwd(g, v, value, aux, static):
    return (g.reshape(v[0].shape),)


register_kernel("reshape", _reshape_fwd, _reshape_bwd)


def reshape(a: ArrayLike, shape) -> Var:
    return _apply("reshape", (_as_var(a),), (shape,))


def _getitem_fwd(v, static, out=None):
    return v[0][static[0]], None


_BASIC = (int, np.integer, slice, type(None), type(Ellipsis))


def basic_key(key) -> bool:
    """Whether ``key`` indexes by ints, slices, ``None`` and ``Ellipsis``
    alone: basic indexing, which selects no element twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, _BASIC) and not isinstance(p, bool) for p in parts)


def _getitem_bwd(g, v, value, aux, static):
    grad = np.zeros_like(v[0])
    if basic_key(static[0]):
        # No element twice: np.add.at's arithmetic (0.0 + g) without its
        # per-index loop.
        grad[static[0]] += g
    else:
        np.add.at(grad, static[0], g)
    return (grad,)


register_kernel("getitem", _getitem_fwd, _getitem_bwd)
# A gather is the same pair under an index array, scattered by np.add.at.
register_kernel("take", _getitem_fwd, _getitem_bwd)


def take(a: ArrayLike, indices) -> Var:
    """Gather ``a[indices]`` (fancy indexing with an integer array)."""
    return _apply(
        "take", (_as_var(a),), (np.asarray(indices),), tag="gather"
    )


def getitem(a: ArrayLike, key) -> Var:
    """Basic slicing/scalar indexing ``a[key]``."""
    if isinstance(key, (np.ndarray, list)):
        return take(a, key)
    return _apply("getitem", (_as_var(a),), (key,))


def _concat_fwd(v, static, out=None):
    values = [np.atleast_1d(part) for part in v]
    sizes = [part.shape[0] for part in values]
    offsets = np.cumsum([0] + sizes)
    return np.concatenate(values), offsets


def _concat_bwd(g, v, value, aux, static):
    offsets = aux
    return tuple(
        g[offsets[i]:offsets[i + 1]].reshape(v[i].shape)
        for i in range(len(v))
    )


register_kernel("concat", _concat_fwd, _concat_bwd)


def concat(parts: Sequence[ArrayLike]) -> Var:
    return _apply("concat", tuple(_as_var(p) for p in parts))


def _stack_fwd(v, static, out=None):
    return np.stack(v, axis=static[0]), None


def _stack_bwd(g, v, value, aux, static):
    lead = (slice(None),) * static[0]
    return tuple(g[lead + (i,)] for i in range(len(v)))


register_kernel("stack", _stack_fwd, _stack_bwd)


def stack(parts: Sequence[ArrayLike]) -> Var:
    """Stack scalars/equal-shape arrays along a new leading axis."""
    return _apply("stack", tuple(_as_var(p) for p in parts), (0,))


def _cumsum_fwd(v, static, out=None):
    return np.cumsum(v[0], out=out), None


def _cumsum_bwd(g, v, value, aux, static):
    return (np.cumsum(g[::-1])[::-1],)


register_kernel("cumsum", _cumsum_fwd, _cumsum_bwd, out_safe=True)


def cumsum(a: ArrayLike) -> Var:
    return _apply("cumsum", (_as_var(a),))


def _outer_fwd(v, static, out=None):
    return np.outer(v[0], v[1]), None


def _outer_bwd(g, v, value, aux, static):
    return (g @ v[1], g.T @ v[0])


register_kernel("outer", _outer_fwd, _outer_bwd)


def outer(a: ArrayLike, b: ArrayLike) -> Var:
    return _apply("outer", (_as_var(a), _as_var(b)))


def _transpose_fwd(v, static, out=None):
    return v[0].T, None


def _transpose_bwd(g, v, value, aux, static):
    return (g.T,)


register_kernel("transpose", _transpose_fwd, _transpose_bwd)


def transpose(m: ArrayLike) -> Var:
    """Differentiable matrix transpose."""
    return _apply("transpose", (_as_var(m),))


def _where_fwd(v, static, out=None):
    return np.where(static[0], v[0], v[1]), None


register_kernel("where", _where_fwd, ("np.where(s0, g, 0.0)", "np.where(s0, 0.0, g)"))


def where(cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> Var:
    """Select elementwise; ``cond`` is a plain boolean array (not differentiated)."""
    cond = np.asarray(cond, dtype=bool)
    return _apply("where", (_as_var(a), _as_var(b)), (cond,))


def _clip_min_fwd(v, static, out=None):
    # The mask is recomputed on every forward (it depends on the input
    # value), so replay at a new point stays correct.
    return np.maximum(v[0], static[0], out=out), v[0] > static[0]


register_kernel("clip_min", _clip_min_fwd, ("g * a",), out_safe=True)


def clip_min(a: ArrayLike, lo: float) -> Var:
    """max(a, lo); gradient is zero where clipped."""
    return _apply("clip_min", (_as_var(a),), (lo,))


# ---------------------------------------------------------------------------
# Composite linear-algebra ops with custom adjoints
# ---------------------------------------------------------------------------

def _quadratic_form_inv_fwd(v, static, out=None):
    y = static[0]
    chol = np.linalg.cholesky(v[0])
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    return float(y @ alpha), alpha


def _quadratic_form_inv_bwd(g, v, value, aux, static):
    alpha = aux
    return (-g * np.outer(alpha, alpha),)


register_kernel(
    "quadratic_form_inv", _quadratic_form_inv_fwd, _quadratic_form_inv_bwd
)


def quadratic_form_inv(k: ArrayLike, y: np.ndarray) -> Var:
    """``y^T K^{-1} y`` with adjoint ``-alpha alpha^T`` where ``alpha=K^{-1}y``.

    ``y`` is data (not differentiated); ``K`` must be symmetric positive
    definite. Used by the Gaussian-process workload.
    """
    return _apply(
        "quadratic_form_inv", (_as_var(k),), (np.asarray(y, dtype=float),)
    )


def _logdet_spd_fwd(v, static, out=None):
    chol = np.linalg.cholesky(v[0])
    return 2.0 * float(np.log(np.diag(chol)).sum()), chol


def _logdet_spd_bwd(g, v, value, aux, static):
    chol = aux
    identity = np.eye(v[0].shape[0])
    k_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, identity))
    return (g * k_inv,)


register_kernel("logdet_spd", _logdet_spd_fwd, _logdet_spd_bwd)


def logdet_spd(k: ArrayLike) -> Var:
    """log det K for symmetric positive definite K; adjoint is ``K^{-1}``."""
    return _apply("logdet_spd", (_as_var(k),))


def _solve_spd_fwd(v, static, out=None):
    chol = np.linalg.cholesky(v[0])
    x = np.linalg.solve(chol.T, np.linalg.solve(chol, v[1]))
    return x, chol


def _solve_spd_bwd(g, v, value, aux, static):
    chol = aux
    gbar = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
    return (-np.outer(gbar, value), gbar)


register_kernel("solve_spd", _solve_spd_fwd, _solve_spd_bwd)


def solve_spd(k: ArrayLike, y: ArrayLike) -> Var:
    """``K^{-1} y`` for SPD ``K`` (both differentiable)."""
    return _apply("solve_spd", (_as_var(k), _as_var(y)))


#: Kernels whose forward factors its first operand, an SPD matrix, with one
#: Cholesky, each mapped to where its right-hand side lives: ``("input",
#: i)`` or ``("static", i)``, or ``None`` when it solves nothing. A replay
#: may answer several that read one matrix from one factor with
#: :func:`spd_group_forward`; their backward kernels run unchanged on the
#: ``aux`` it hands back.
SPD_FACTORED: Dict[str, Optional[Tuple[str, int]]] = {
    "solve_spd": ("input", 1),
    "quadratic_form_inv": ("static", 0),
    "logdet_spd": None,
}


def spd_group_forward(k, names, rhs):
    """Every member's ``(value, aux)`` from one factor of the matrix ``k``.

    ``names[i]`` is member ``i``'s kernel (a key of :data:`SPD_FACTORED`)
    and ``rhs[i]`` its length-``n`` right-hand side, ``None`` for
    ``logdet_spd``. Each pair is bitwise what that member's own forward
    returns: the factor is the same ``cholesky`` call, and every right-hand
    side goes through one stacked ``solve`` per triangle, which runs the
    same ``gesv`` with one right-hand side per item as the member's call.
    Solving them as columns of one matrix (``nrhs=k``) is not the same
    arithmetic and changes bits, so it is not done.
    """
    chol = np.linalg.cholesky(k)
    solved = [i for i, y in enumerate(rhs) if y is not None]
    xs = {}
    if solved:
        count, n = len(solved), chol.shape[0]
        ys = np.array([rhs[i] for i in solved], dtype=float)[..., None]
        z = np.linalg.solve(np.broadcast_to(chol, (count, n, n)), ys)
        x = np.linalg.solve(np.broadcast_to(chol.T, (count, n, n)), z)
        # Contiguous rows of one fresh array: each member reads its own.
        xs = dict(zip(solved, x[..., 0]))
    answers = []
    for i, name in enumerate(names):
        if name == "logdet_spd":
            answers.append((2.0 * float(np.log(np.diag(chol)).sum()), chol))
        elif name == "solve_spd":
            answers.append((xs[i], chol))
        else:
            answers.append((float(rhs[i] @ xs[i]), xs[i]))
    return tuple(answers)


def _cholesky_lower_fwd(v, static, out=None):
    return np.linalg.cholesky(v[0]), None


def _cholesky_lower_bwd(g, v, value, aux, static):
    # Murray (2016), "Differentiation of the Cholesky decomposition":
    # Kbar = L^{-T} Phi(L^T Lbar) L^{-1} with Phi = tril, halved diagonal,
    # then symmetrized because K is used as a symmetric matrix.
    chol = value
    n = chol.shape[0]
    lbar = np.asarray(g, dtype=float)
    phi = np.tril(chol.T @ lbar)
    phi[np.diag_indices(n)] *= 0.5
    inv_l = np.linalg.solve(chol, np.eye(n))
    kbar = inv_l.T @ phi @ inv_l
    return (0.5 * (kbar + kbar.T),)


register_kernel("cholesky_lower", _cholesky_lower_fwd, _cholesky_lower_bwd)


def cholesky_lower(k: ArrayLike) -> Var:
    """Lower Cholesky factor L of SPD K with the standard reverse-mode adjoint."""
    return _apply("cholesky_lower", (_as_var(k),))


# ---------------------------------------------------------------------------
# Operator installation on Var
# ---------------------------------------------------------------------------

def _matmul_dispatch(a: ArrayLike, b: ArrayLike) -> Var:
    a_val = a.value if isinstance(a, Var) else np.asarray(a)
    b_val = b.value if isinstance(b, Var) else np.asarray(b)
    if a_val.ndim == 1 and b_val.ndim == 1:
        return dot(a, b)
    if a_val.ndim == 2 and b_val.ndim == 1:
        return matvec(a, b)
    return matmul(a, b)


def _install_operators() -> None:
    Var.__add__ = lambda self, other: add(self, other)
    Var.__radd__ = lambda self, other: add(other, self)
    Var.__sub__ = lambda self, other: sub(self, other)
    Var.__rsub__ = lambda self, other: sub(other, self)
    Var.__mul__ = lambda self, other: mul(self, other)
    Var.__rmul__ = lambda self, other: mul(other, self)
    Var.__truediv__ = lambda self, other: div(self, other)
    Var.__rtruediv__ = lambda self, other: div(other, self)
    Var.__neg__ = lambda self: neg(self)
    Var.__pow__ = lambda self, exponent: power(self, exponent)
    Var.__matmul__ = lambda self, other: _matmul_dispatch(self, other)
    Var.__rmatmul__ = lambda self, other: _matmul_dispatch(other, self)
    Var.__getitem__ = lambda self, key: getitem(self, key)


_install_operators()
