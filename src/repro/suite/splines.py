"""M-spline / I-spline basis substrate for the ``disease`` workload.

The paper's ``disease`` workload (Pourzanjani et al.) models the monotone
progression of Alzheimer's biomarkers with I-splines — integrated M-splines,
which are monotonically non-decreasing basis functions; a non-negative
weight vector then yields a monotone regression function. We implement the
standard Ramsay (1988) recursions on a fixed knot grid over the domain
[0, 1] (the workload's normalized disease time); the basis matrix is
data (constant), so the model stays differentiable in the weights only.
"""

from __future__ import annotations

import numpy as np


def _knot_vector(interior_knots: np.ndarray, degree: int):
    interior = np.asarray(interior_knots, dtype=float)
    if interior.size and (interior.min() <= 0.0 or interior.max() >= 1.0):
        raise ValueError("interior knots must lie strictly inside [0, 1]")
    return np.concatenate([
        np.zeros(degree + 1), interior, np.ones(degree + 1),
    ])


def m_spline_basis(
    x: np.ndarray, interior_knots: np.ndarray, degree: int = 3
) -> np.ndarray:
    """M-spline basis matrix of shape (len(x), n_basis) on [0, 1].

    M-splines are normalized to integrate to one over their support
    (Ramsay 1988, recursion in the degree).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x outside the spline domain")
    t = _knot_vector(interior_knots, degree)
    max_order = degree + 1          # polynomial degree d -> B-spline order d+1
    n_basis = t.size - max_order

    # Cox-de Boor B-spline recursion with the 0/0 := 0 convention, which
    # handles the clamped (repeated) boundary knots; M-splines are the
    # unit-integral rescaling M_i = order / (t_{i+order} - t_i) * B_i.
    order = 1
    b = np.zeros((x.size, t.size - 1))
    for i in range(t.size - 1):
        if t[i + 1] > t[i]:
            inside = (x >= t[i]) & (x < t[i + 1])
            if np.isclose(t[i + 1], 1.0):
                inside |= np.isclose(x, 1.0)
            b[inside, i] = 1.0

    while order < max_order:
        order += 1
        new = np.zeros((x.size, t.size - order))
        for i in range(t.size - order):
            left_width = t[i + order - 1] - t[i]
            right_width = t[i + order] - t[i + 1]
            term = np.zeros(x.size)
            if left_width > 0:
                term += (x - t[i]) / left_width * b[:, i]
            if right_width > 0:
                term += (t[i + order] - x) / right_width * b[:, i + 1]
            new[:, i] = term
        b = new

    out = np.zeros((x.size, n_basis))
    for i in range(n_basis):
        span = t[i + max_order] - t[i]
        if span > 0:
            out[:, i] = max_order / span * b[:, i]
    return out


def i_spline_basis(
    x: np.ndarray, interior_knots: np.ndarray, degree: int = 3
) -> np.ndarray:
    """I-spline basis on [0, 1]: running integrals of the M-splines.

    Each column rises monotonically from 0 to 1 across the domain, so a
    non-negative combination is monotone non-decreasing. Computed by
    trapezoidal quadrature of the M-spline basis on a 256-point grid (exact
    recursions exist but quadrature keeps the code small; the error is
    O(grid^-2) and far below posterior noise).
    """
    x = np.asarray(x, dtype=float)
    grid = np.linspace(0.0, 1.0, 256)
    m_on_grid = m_spline_basis(grid, interior_knots, degree)
    # Cumulative trapezoid along the grid for each basis function.
    widths = np.diff(grid)[:, None]
    cum = np.concatenate([
        np.zeros((1, m_on_grid.shape[1])),
        np.cumsum(0.5 * widths * (m_on_grid[1:] + m_on_grid[:-1]), axis=0),
    ])
    # Interpolate the integral at the requested x.
    out = np.empty((x.size, m_on_grid.shape[1]))
    for j in range(m_on_grid.shape[1]):
        out[:, j] = np.interp(x, grid, cum[:, j])
    return np.clip(out, 0.0, 1.0)
