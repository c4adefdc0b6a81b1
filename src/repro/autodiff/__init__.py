"""Reverse-mode automatic differentiation over numpy arrays.

This subpackage is the reproduction's stand-in for the Stan math library:
every BayesSuite model writes its log density once against this API and the
samplers obtain exact gradients by reverse-mode differentiation.

The design is a dynamic computation graph ("tape"): :class:`Var` wraps a
numpy array and remembers how it was produced; calling :func:`backward` on a
scalar output walks the graph in reverse topological order and accumulates
adjoints into ``Var.grad``.

Example
-------
>>> import numpy as np
>>> from repro.autodiff import var, ops
>>> x = var(np.array([1.0, 2.0, 3.0]))
>>> y = ops.sum(ops.exp(x) * 2.0)
>>> y.backward()
>>> np.allclose(x.grad, 2.0 * np.exp(x.value))
True
"""

from repro.autodiff.tape import Var, var, constant, backward
from repro.autodiff import ops
from repro.autodiff import compile  # noqa: A004 - module name mirrors its role
from repro.autodiff import suffstats
from repro.autodiff.compile import CompiledFunction, CompiledTape
from repro.autodiff.functional import value_and_grad, grad, check_grad

__all__ = [
    "Var",
    "var",
    "constant",
    "backward",
    "ops",
    "compile",
    "suffstats",
    "CompiledFunction",
    "CompiledTape",
    "value_and_grad",
    "grad",
    "check_grad",
]
