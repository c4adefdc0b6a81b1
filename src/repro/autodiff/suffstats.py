"""Sufficient-statistics tape rewrite: fold data passes into constants.

The paper's characterization shows per-iteration MCMC cost is dominated by
the likelihood sweep over the modeled data. For the exponential-family
likelihoods in ``suite/`` that sweep is algebraically redundant: a term
like ``reduce_sum(constant(y) * eta - exp(eta))`` depends on the data only
through a handful of *sufficient statistics* (``sum(y)``, per-group counts,
``X'X`` …) that never change between iterations. This module rewrites a
traced logp graph so those reductions are computed **once, at record
time**, and stored as recorded constants — replayed instruction counts and
buffer sizes then scale with the number of parameters, not with N.

The rewrite is a source-to-source pass over the interpreted graph
(:class:`repro.autodiff.tape.Var` nodes). Every full ``reduce_sum`` site is
reformulated as a weighted sum ``Σ w ⊙ e`` and pushed toward the leaves:

* **constant folding** — a data-only subtree folds to one recorded scalar;
* **linearity** — sums split over ``add``/``sub``/``neg`` and absorb
  constant ``mul``/``div`` factors into the weight vector;
* **segment sums** — ``Σ w ⊙ a[idx]`` becomes ``Σ bincount(idx, w) ⊙ a``,
  turning per-observation gathers into per-group statistics;
* **commuting** — elementwise kernels move inside a gather
  (``f(a)[idx] == f(a[idx])``) so the segment rule applies;
* **regression forms** — ``Σ w ⊙ (X @ β)`` becomes ``(X'w) · β`` and
  ``Σ w ⊙ (X @ β)²`` becomes ``β' (X' diag(w) X) β``;
* **square expansion** — ``Σ w (a ± b)²`` expands to three reducible
  terms when both sides are themselves reducible;
* **exp splitting** — ``exp(a + const)`` factors the constant part into
  the weight.

Where no rule applies the pass emits ``reduce_sum(const(w) ⊙ e)``
unchanged in cost, so a rewrite never loses to the original tape. Rules
only fire where they cannot change which points a partial-domain kernel
(``log``, ``sqrt``, …) is evaluated at, so NaN/−inf propagation through
the logp is preserved.

**Exactness.** Reassociating sums changes floating-point results at the
last few ulps, so a tape lowered from a rewritten graph is held to
:data:`RTOL`/:data:`ATOL` instead of the bitwise bar while on probation,
and steps down to the plain tape on a mismatch — see ``docs/suffstats.md``
and, for the protocol and the kill switches, ``docs/performance.md``
("How a fast path earns trust").
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff import tape as tape_mod
from repro.autodiff.tape import Var, _unbroadcast
from repro.switch import Switch

__all__ = [
    "REDUCIBLE_KERNELS",
    "RTOL",
    "ATOL",
    "INSTR_COST_ELEMENTS",
    "RewriteInfo",
    "rewrite_graph",
    "enabled",
    "enable",
    "disable",
    "override",
    "force_override",
]


_switch = Switch("REPRO_SUFFSTATS")
enabled, enable, disable, override = (
    _switch.enabled, _switch.enable, _switch.disable, _switch.override
)

#: Relative/absolute tolerance for validating a rewritten tape's replay
#: against the interpreted reference. Reassociated sums over N terms carry
#: O(N·eps) rounding, so these sit far above observed error (~1e-12
#: relative at N=1e5) while still catching any real rewrite bug.
RTOL = 1e-8
ATOL = 1e-6

#: Recursion ceiling for the weighted-sum push; beyond it the current
#: subtree is emitted as-is. Suite graphs stay well under this.
MAX_DEPTH = 80

#: Replay cost model: one tape instruction costs about this many buffer
#: elements of numpy element traffic (Python dispatch ~1.5µs vs ~ns/elt).
#: ``CompiledFunction`` keeps a rewritten tape only when
#: ``INSTR_COST_ELEMENTS·Δinstructions + Δbuffer_elements`` favors it, so
#: small-data models — where the rewrite adds dispatch without removing
#: meaningful volume — keep their original tape. Calibrated against
#: per-call measurements across the suite.
INSTR_COST_ELEMENTS = 1000

#: When true, a rewritten tape is installed whenever the pass folded
#: anything, bypassing the cost model — tests and benches flip it through
#: :func:`force_override` to exercise every rewritten graph regardless of
#: data size.
FORCE = False


@contextmanager
def force_override(value: bool):
    """Temporarily bypass (or restore) the replay cost model."""
    global FORCE
    previous = FORCE
    FORCE = bool(value)
    try:
        yield
    finally:
        FORCE = previous


# ---------------------------------------------------------------------------
# Rewrite-eligibility surface
# ---------------------------------------------------------------------------

#: Elementwise unary kernels that commute with a gather:
#: ``f(a)[idx] == f(a[idx])`` elementwise, bit for bit.
_COMMUTE_UNARY = frozenset({
    "neg", "square", "absolute", "exp", "expm1", "log", "log1p", "sqrt",
    "sin", "cos", "tanh", "arctan", "sigmoid", "softplus", "log_sigmoid",
    "lgamma", "erf", "normal_cdf", "power", "clip_min",
})

#: Kernels defined and finite-preserving on all of R: commuting these past
#: a gather can evaluate them at extra (ungathered) points without risking
#: new NaN/inf values. Partial-domain kernels (log, sqrt, lgamma, power,
#: log1p) only commute when the gather already covers every entry.
_TOTAL_UNARY = frozenset({
    "neg", "square", "absolute", "exp", "expm1", "sin", "cos", "tanh",
    "arctan", "sigmoid", "softplus", "log_sigmoid", "erf", "normal_cdf",
    "clip_min",
})

#: Every ``ops.KERNELS`` entry the rewriter has a rule for — the coverage
#: gate in ``tests/test_autodiff_gradcheck.py`` checks each of these has an
#: FD-checked rewritten-tape case. Kernels outside this set are still
#: *compatible* with the pass (they fall through to the weighted base
#: emission); they just never trigger a fold themselves.
REDUCIBLE_KERNELS = frozenset(
    {"reduce_sum", "add", "sub", "mul", "div", "take", "getitem", "matvec",
     "dot"}
    | _COMMUTE_UNARY
)


class RewriteInfo:
    """What one :func:`rewrite_graph` pass folded.

    ``folded_ops`` counts algebraic folds performed (constant subtrees
    collapsed, broadcast weights reduced, gathers turned into segment
    sums, regression quadratic forms precomputed). ``folded_elements``
    approximates how many per-iteration array elements those folds removed
    from the replay — the data volume that became record-time constants.
    ``sites`` counts ``reduce_sum`` nodes that were actually rewritten.
    """

    __slots__ = ("folded_ops", "folded_elements", "sites")

    def __init__(self) -> None:
        self.folded_ops = 0
        self.folded_elements = 0
        self.sites = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "folded_ops": self.folded_ops,
            "folded_elements": self.folded_elements,
            "sites": self.sites,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RewriteInfo(folded_ops={self.folded_ops}, "
            f"folded_elements={self.folded_elements}, sites={self.sites})"
        )


class _Abort(Exception):
    """The graph contains a non-registry node that would need rebuilding."""


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def rewrite_graph(root: Var, leaf: Var) -> Tuple[Var, RewriteInfo]:
    """Rewrite the traced graph rooted at ``root`` over input ``leaf``.

    Returns ``(new_root, info)``. When nothing folded (or the graph
    contains nodes the rebuild cannot reproduce) the *original* ``root``
    is returned with ``info.folded_ops == 0`` — callers use identity of
    the returned root to detect a no-op pass.
    """
    if root.value.ndim != 0:
        return root, RewriteInfo()
    rewriter = _Rewriter(leaf)
    try:
        new_root = rewriter.rebuild(root)
    except _Abort:
        return root, RewriteInfo()
    if rewriter.info.sites == 0 or new_root is root:
        return root, rewriter.info
    return new_root, rewriter.info


class _Rewriter:
    def __init__(self, leaf: Var) -> None:
        self.leaf = leaf
        self.info = RewriteInfo()
        # id(node) -> does the node's value depend on the traced input?
        # (``requires_grad`` cannot serve: interior Vars default it True
        # even over pure-constant parents.)
        self._dep: Dict[int, bool] = {}

    # -- graph helpers -------------------------------------------------------

    def _depends(self, node: Var) -> bool:
        known = self._dep.get(id(node))
        if known is not None:
            return known
        return node is self.leaf

    def _make(self, op: str, parents: Tuple[Var, ...], static: tuple = (),
              tag: Optional[str] = None) -> Var:
        node = ops.apply_kernel(op, parents, static, tag=tag)
        self._dep[id(node)] = any(self._depends(p) for p in parents)
        return node

    def _const(self, value) -> Var:
        node = tape_mod.constant(np.asarray(value, dtype=float))
        self._dep[id(node)] = False
        return node

    # -- driver --------------------------------------------------------------

    def rebuild(self, root: Var) -> Var:
        """Bottom-up rebuild of the graph, rewriting each full-sum site."""
        order = tape_mod._toposort(root)
        order.reverse()  # creation order == a valid topological order
        dep = self._dep
        rebuilt: Dict[int, Var] = {}
        for node in order:
            dep[id(node)] = node is self.leaf or any(
                dep[id(p)] for p in node.parents
            )
            if not node.parents:
                rebuilt[id(node)] = node
                continue
            parents = tuple(rebuilt[id(p)] for p in node.parents)
            if (
                node.op == "reduce_sum"
                and node.op_static
                and node.op_static[0] is None
                and dep[id(node)]
            ):
                candidate = self._rewrite_site(parents[0])
                if candidate is not None:
                    dep[id(node)] = True
                    rebuilt[id(node)] = candidate
                    continue
            if all(p_new is p_old for p_new, p_old in zip(parents, node.parents)):
                rebuilt[id(node)] = node
                continue
            if node.op is None or node.op not in ops.KERNELS:
                # A non-registry node (hand-built Var) sits above a rewrite;
                # we cannot re-run it, so abandon the whole pass. Such
                # graphs cannot compile to a tape anyway.
                raise _Abort(node.tag or "non-registry node")
            rebuilt[id(node)] = self._make(
                node.op, parents, node.op_static, tag=node.tag
            )
        return rebuilt[id(root)]

    def _rewrite_site(self, child: Var) -> Optional[Var]:
        """Rewrite one ``reduce_sum(child)`` site; None when nothing folds."""
        ops_before = self.info.folded_ops
        elements_before = self.info.folded_elements
        result = self._sum(child, np.ones(child.value.shape), 0)
        if self.info.folded_elements == elements_before:
            # No per-iteration data volume was removed (at best a few
            # scalar constants folded): keep the original node rather
            # than an equivalent-but-new subgraph.
            self.info.folded_ops = ops_before
            self.info.folded_elements = elements_before
            return None
        if result.value.ndim != 0:
            result = self._make("reduce_sum", (result,), (None,))
        self.info.sites += 1
        return result

    # -- the weighted-sum push ----------------------------------------------

    def _sum(self, e: Var, w: np.ndarray, depth: int) -> Var:
        """A node computing ``Σ w ⊙ broadcast(e)`` (scalar or size-1)."""
        w = np.asarray(w, dtype=float)
        shape = e.value.shape
        if w.size == 0:
            # A zero-length weighted sum is identically 0.0 — numpy's empty
            # reduce_sum semantics — whatever ``e`` is (this arises when an
            # expansion rule weights a parameter node by empty data).
            self.info.folded_ops += 1
            return self._const(np.asarray(0.0))
        if w.shape != shape:
            if w.size > e.value.size:
                # e was broadcast up inside the sum: collapsing the weight
                # is itself the data-pass fold (e.g. a scalar rate summed
                # over N observations becomes one n·rate term).
                before = w.size
                w = _unbroadcast(w, shape)
                self.info.folded_ops += 1
                self.info.folded_elements += before - w.size
            elif w.size == e.value.size:
                w = _unbroadcast(w, shape)
            else:
                w = np.broadcast_to(w, shape).astype(float)

        if not self._depends(e):
            # Pure data subtree: the whole weighted sum is one recorded
            # scalar. Its value is fixed for the life of the tape, so
            # folding now is exactly what replay would recompute.
            self.info.folded_ops += 1
            self.info.folded_elements += max(int(e.value.size) - 1, 0)
            return self._const(np.sum(w * e.value))

        if depth > MAX_DEPTH or not e.parents:
            return self._emit(e, w)

        op = e.op
        parents = e.parents

        if op in ("add", "sub"):
            left = self._sum(parents[0], w, depth + 1)
            right = self._sum(parents[1], w, depth + 1)
            return self._make(op, (left, right))

        if op == "neg":
            return self._make("neg", (self._sum(parents[0], w, depth + 1),))

        if op == "mul":
            a, b = parents
            if not self._depends(a):
                return self._sum(b, w * a.value, depth + 1)
            if not self._depends(b):
                return self._sum(a, w * b.value, depth + 1)
            if b.value.size == 1:
                return self._scaled(self._sum(a, w, depth + 1), b)
            if a.value.size == 1:
                return self._scaled(self._sum(b, w, depth + 1), a)

        if op == "div":
            a, b = parents
            if not self._depends(b):
                return self._sum(a, w * (1.0 / b.value), depth + 1)
            if b.value.size == 1:
                inv = self._make("div", (self._const(1.0), b))
                return self._scaled(self._sum(a, w, depth + 1), inv)

        if op == "square":
            result = self._sum_square(e, parents[0], w, depth)
            if result is not None:
                return result

        if op == "exp":
            result = self._sum_exp(parents[0], w, depth)
            if result is not None:
                return result

        if op == "matvec":
            m, v = parents
            if not self._depends(m) and m.value.ndim == 2 and w.ndim == 1:
                # Σ w ⊙ (X @ β) = (X'w) · β : one length-k dot per replay.
                xtw = m.value.T @ w
                self.info.folded_ops += 1
                self.info.folded_elements += max(
                    int(m.value.size) - int(xtw.size), 0
                )
                return self._make(
                    "reduce_sum", (self._make("mul", (self._const(xtw), v)),),
                    (None,),
                )

        if op == "take":
            result = self._sum_take(e, w, depth)
            if result is not None:
                return result

        if op == "getitem":
            base = parents[0]
            key = e.op_static[0] if e.op_static else None
            # Only scatter onto leaf-level bases (parameter blocks): their
            # entries are all evaluated anyway, so zero weights on the
            # unselected entries cannot surface new NaN/inf values.
            if key is not None and not base.parents:
                try:
                    w_full = np.zeros(base.value.shape)
                    np.add.at(w_full, key, w)
                except (IndexError, ValueError):  # pragma: no cover - guard
                    pass
                else:
                    return self._sum(base, w_full, depth + 1)

        if op == "reduce_sum" and e.op_static and e.op_static[0] is not None:
            inner = parents[0]
            axis = e.op_static[0]
            expanded = np.broadcast_to(
                np.expand_dims(w, axis), inner.value.shape
            )
            return self._sum(inner, expanded, depth + 1)

        if op in _COMMUTE_UNARY and len(parents) == 1:
            result = self._commute_into_gather(e, w, depth)
            if result is not None:
                return result

        return self._emit(e, w)

    # -- rules ---------------------------------------------------------------

    def _sum_take(self, e: Var, w: np.ndarray, depth: int) -> Optional[Var]:
        base = e.parents[0]
        idx = e.op_static[0] if e.op_static else None
        if (
            not isinstance(idx, np.ndarray)
            or idx.ndim != 1
            or not np.issubdtype(idx.dtype, np.integer)
            or base.value.ndim != 1
            or w.ndim != 1
            or (idx.size and int(idx.min()) < 0)
        ):
            return None
        # Σ w ⊙ a[idx] = Σ bincount(idx, w) ⊙ a — the per-group sufficient
        # statistic. Counts a fold only when the gather actually expands
        # (data-sized index over a parameter vector).
        w_base = np.bincount(idx, weights=w, minlength=base.value.size)
        if idx.size > base.value.size:
            self.info.folded_ops += 1
            self.info.folded_elements += int(idx.size) - int(base.value.size)
        return self._sum(base, w_base, depth + 1)

    def _sum_square(
        self, e: Var, c: Var, w: np.ndarray, depth: int
    ) -> Optional[Var]:
        if not c.parents:
            return None
        op = c.op
        if op in ("add", "sub") and len(c.parents) == 2:
            a, b = c.parents
            if self._reducible_hint(a) and self._reducible_hint(b) and (
                self._depends(a) or self._depends(b)
            ):
                # Σ w (a ± b)² = Σ w a² ± 2 Σ w·a⊙b + Σ w b², each term
                # reducible on its own (that's what the hint certifies).
                sign = 1.0 if op == "add" else -1.0
                t_a = self._sum(self._make("square", (a,)), w, depth + 1)
                t_b = self._sum(self._make("square", (b,)), w, depth + 1)
                cross = self._sum(
                    self._make("mul", (a, b)), (2.0 * sign) * w, depth + 1
                )
                return self._make(
                    "add", (self._make("add", (t_a, cross)), t_b)
                )
        if op == "mul" and len(c.parents) == 2:
            a, b = c.parents
            if not self._depends(a):
                return self._sum(
                    self._make("square", (b,)), w * np.square(a.value),
                    depth + 1,
                )
            if not self._depends(b):
                return self._sum(
                    self._make("square", (a,)), w * np.square(b.value),
                    depth + 1,
                )
        if op == "div" and len(c.parents) == 2:
            a, b = c.parents
            if not self._depends(b):
                return self._sum(
                    self._make("square", (a,)),
                    w * np.square(1.0 / b.value),
                    depth + 1,
                )
            if b.value.size == 1:
                inv2 = self._make(
                    "square", (self._make("div", (self._const(1.0), b)),)
                )
                return self._scaled(
                    self._sum(self._make("square", (a,)), w, depth + 1), inv2
                )
        if op == "matvec" and len(c.parents) == 2:
            m, v = c.parents
            if (
                not self._depends(m)
                and self._depends(v)
                and m.value.ndim == 2
                and w.ndim == 1
            ):
                # Σ w (X @ β)² = β' (X' diag(w) X) β — the regression
                # quadratic form, one k×k matvec per replay.
                gram = m.value.T @ (w[:, None] * m.value)
                self.info.folded_ops += 1
                self.info.folded_elements += max(
                    int(m.value.size) - int(gram.size), 0
                )
                return self._make(
                    "dot", (v, self._make("matvec", (self._const(gram), v)))
                )
        return None

    def _sum_exp(self, c: Var, w: np.ndarray, depth: int) -> Optional[Var]:
        if c.op not in ("add", "sub") or len(c.parents) != 2:
            return None
        a, b = c.parents
        # exp(a ± b) with one constant side: fold exp(±const) into the
        # weight, leaving exp of the parameter side for further rules
        # (e.g. the segment sum when that side is a gather).
        if not self._depends(b) and self._depends(a):
            factor = np.exp(b.value) if c.op == "add" else np.exp(-b.value)
            return self._sum(self._make("exp", (a,)), w * factor, depth + 1)
        if not self._depends(a) and self._depends(b):
            inner = b if c.op == "add" else self._make("neg", (b,))
            return self._sum(
                self._make("exp", (inner,)), w * np.exp(a.value), depth + 1
            )
        return None

    def _commute_into_gather(
        self, e: Var, w: np.ndarray, depth: int
    ) -> Optional[Var]:
        c = e.parents[0]
        if c.op != "take" or not c.op_static:
            return None
        base = c.parents[0]
        idx = c.op_static[0]
        if (
            not isinstance(idx, np.ndarray)
            or idx.ndim != 1
            or base.value.ndim != 1
            or not self._depends(base)
        ):
            return None
        if e.op not in _TOTAL_UNARY:
            # Partial-domain kernel: commuting may evaluate it at entries
            # the original graph never touched. Only safe when the gather
            # already covers every entry of the base.
            if idx.size == 0 or not np.all(
                np.bincount(idx, minlength=base.value.size) > 0
            ):
                return None
        # f(a[idx]) == f(a)[idx] elementwise — rebuild as a gather of
        # f(base) so the segment-sum rule applies one level up. When the
        # base is *larger* than the gathered view (a partial gather over
        # an already-derived vector) the commute evaluates f at extra
        # entries, so it must earn its keep: keep it only if downstream
        # folds removed at least that many elements, else backtrack.
        extra = max(int(base.value.size) - int(e.value.size), 0)
        ops_before = self.info.folded_ops
        elements_before = self.info.folded_elements
        moved = self._make(e.op, (base,), e.op_static)
        gathered = self._make("take", (moved,), c.op_static, tag="gather")
        result = self._sum(gathered, w, depth + 1)
        gained = self.info.folded_elements - elements_before
        if extra and (self.info.folded_ops == ops_before or gained < extra):
            self.info.folded_ops = ops_before
            self.info.folded_elements = elements_before
            return None
        return result

    def _reducible_hint(self, node: Var, depth: int = 0) -> bool:
        """Cheap syntactic check: do Σ w·node and Σ w·node² reduce?"""
        if depth > 8:
            return False
        if not self._depends(node):
            return True
        if node.value.size <= 1:
            return True
        if node.op == "matvec" and len(node.parents) == 2:
            return not self._depends(node.parents[0])
        if node.op == "take" and node.parents:
            return node.parents[0].value.size < node.value.size
        if node.op in ("add", "sub") and len(node.parents) == 2:
            return all(
                self._reducible_hint(p, depth + 1) for p in node.parents
            )
        if node.op == "neg" and node.parents:
            return self._reducible_hint(node.parents[0], depth + 1)
        if node.op == "mul" and len(node.parents) == 2:
            a, b = node.parents
            if not self._depends(a) or a.value.size <= 1:
                return self._reducible_hint(b, depth + 1)
            if not self._depends(b) or b.value.size <= 1:
                return self._reducible_hint(a, depth + 1)
        return False

    # -- emission ------------------------------------------------------------

    def _scaled(self, summed: Var, factor: Var) -> Var:
        """``summed * factor`` for a size-1 factor, reduced back to 0-d."""
        result = self._make("mul", (summed, factor))
        if result.value.ndim != 0:
            result = self._make("reduce_sum", (result,), (None,))
        return result

    def _emit(self, e: Var, w: np.ndarray) -> Var:
        """No rule applies: emit ``Σ const(w) ⊙ e`` at the original cost."""
        if np.all(w == 1.0):
            if e.value.ndim == 0:
                return e
            return self._make("reduce_sum", (e,), (None,))
        weighted = self._make("mul", (self._const(w), e))
        if weighted.value.ndim == 0:
            return weighted
        return self._make("reduce_sum", (weighted,), (None,))
