"""Gaussian-process substrate for the ``votes`` workload.

The paper's ``votes`` workload forecasts presidential vote shares with a
Gaussian process over election years. We provide squared-exponential kernels
(both a plain numpy version and a differentiable version built from autodiff
ops); the model builds its marginal likelihood from the differentiable one.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tape import Var


def squared_distance_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of a 1-D input grid."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None] - x[None, :]
    return diff * diff


def rbf_kernel_np(
    x: np.ndarray, amplitude: float, lengthscale: float, noise: float
) -> np.ndarray:
    """Squared-exponential kernel matrix with observation noise (numpy)."""
    sq = squared_distance_matrix(x)
    k = amplitude ** 2 * np.exp(-0.5 * sq / lengthscale ** 2)
    return k + noise ** 2 * np.eye(x.size)


def rbf_kernel(
    sq_dist: np.ndarray, amplitude: Var, lengthscale: Var, noise: Var
) -> Var:
    """Differentiable squared-exponential kernel.

    ``sq_dist`` is the constant pairwise squared-distance matrix;
    ``amplitude``, ``lengthscale`` and ``noise`` are (length-1) parameter
    Vars. Returns the (n, n) covariance Var including the noise diagonal.
    """
    n = sq_dist.shape[0]
    inv_two_ell2 = 0.5 / ops.square(lengthscale)
    k = ops.square(amplitude) * ops.exp(-(ops.constant(sq_dist) * inv_two_ell2))
    # noise^2 on the diagonal (plus a small jitter for numerical stability)
    diag = ops.constant(np.eye(n)) * (ops.square(noise) + 1e-8)
    return k + diag
