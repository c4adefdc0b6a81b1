"""Core computation-graph node for reverse-mode autodiff."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

# Monotonically increasing ids give a valid topological order for free:
# a node is always created after all of its parents.
_NODE_COUNTER = itertools.count()

ArrayLike = Union[float, int, np.ndarray, "Var"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...], lead: int = 0) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast a parent of shape ``shape`` up to the output
    shape, the adjoint flowing back must be summed over the broadcast axes so
    that the parent's gradient has the parent's shape. The first ``lead``
    axes of ``grad`` (a batch's lanes) are kept, ahead of ``shape``.
    """
    grad = np.asarray(grad, dtype=float)
    target = grad.shape[:lead] + shape
    if grad.shape == target:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(target)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(lead, lead + extra)))
    # Sum over axes that were size 1 in the parent.
    axes = tuple(
        lead + i for i, n in enumerate(shape)
        if n == 1 and grad.shape[lead + i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(target)


class Var:
    """A node in the computation graph.

    Parameters
    ----------
    value:
        The numpy value of this node (stored as ``float`` dtype array or
        scalar array).
    parents:
        The ``Var`` inputs this node was computed from. Leaf nodes have no
        parents.

    ``backward_fn``, set by :func:`repro.autodiff.ops.apply_kernel` on the
    nodes it computes (``None`` on a leaf), maps the adjoint of this node (a
    numpy array with this node's shape) to a tuple of adjoint contributions,
    one per parent, each already shaped like (or broadcastable to) the
    parent value. ``None`` entries mean "no gradient to this parent".
    """

    __slots__ = (
        "value", "parents", "backward_fn", "grad", "_id", "requires_grad", "tag",
        "op", "op_static",
    )

    def __init__(
        self,
        value: ArrayLike,
        parents: Sequence["Var"] = (),
        requires_grad: bool = True,
    ) -> None:
        self.value = np.asarray(value, dtype=float)
        self.parents = tuple(parents)
        self.backward_fn: Optional[
            Callable[[np.ndarray], Iterable[Optional[np.ndarray]]]
        ] = None
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        #: optional op annotation (e.g. "gather") used by arch profiling
        self.tag: Optional[str] = None
        #: kernel-registry name and static arguments, set by ops._apply();
        #: None for leaves and for nodes built outside the registry (which
        #: the compiled-tape recorder treats as uncompilable).
        self.op: Optional[str] = None
        self.op_static: tuple = ()
        self._id = next(_NODE_COUNTER)

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def size(self) -> int:
        return self.value.size

    def __len__(self) -> int:
        return len(self.value)

    def __repr__(self) -> str:
        return f"Var(value={self.value!r}, grad={'set' if self.grad is not None else 'unset'})"

    # -- graph walking ------------------------------------------------------

    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this node.

        ``seed`` defaults to 1.0 and must match this node's shape. After the
        call every reachable leaf has its ``grad`` attribute populated.
        """
        backward(self, seed)

    # -- operator sugar (implementations live in ops.py) --------------------
    # These are assigned at import time by repro.autodiff.ops to avoid a
    # circular import; see ops._install_operators().


def var(value: ArrayLike) -> Var:
    """Create a differentiable leaf node."""
    if isinstance(value, Var):
        return value
    return Var(value)


def constant(value: ArrayLike) -> Var:
    """Create a non-differentiable leaf node (data, hyperparameters).

    A ``Var`` argument is *detached*: the returned leaf shares the value but
    drops the graph connection, so no gradient flows through it — matching
    the documented "non-differentiable" contract even when handed a node
    that was produced by differentiable ops.
    """
    if isinstance(value, Var):
        if not value.requires_grad and value.backward_fn is None:
            return value
        return Var(value.value, requires_grad=False)
    return Var(value, requires_grad=False)


def _toposort(root: Var) -> list:
    """All nodes reachable from ``root``, in reverse creation order."""
    seen = set()
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    nodes.sort(key=lambda n: n._id, reverse=True)
    return nodes


def backward(root: Var, seed: Optional[np.ndarray] = None) -> None:
    """Reverse-mode sweep: populate ``grad`` on every node reachable from root."""
    if seed is None:
        seed = np.ones_like(root.value)
    else:
        seed = np.asarray(seed, dtype=float)
    nodes = _toposort(root)
    for node in nodes:
        node.grad = None
    root.grad = seed
    for node in nodes:
        if node.grad is None or node.backward_fn is None:
            continue
        contributions = node.backward_fn(node.grad)
        for parent, contrib in zip(node.parents, contributions):
            if contrib is None or not parent.requires_grad:
                continue
            contrib = _unbroadcast(np.asarray(contrib, dtype=float), parent.value.shape)
            if parent.grad is None:
                parent.grad = contrib
            else:
                parent.grad = parent.grad + contrib
