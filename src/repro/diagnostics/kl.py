"""KL divergence between posterior sample sets.

The paper scores intermediate inference results by the KL divergence between
the current posterior estimate and a "ground truth" posterior obtained with a
doubled iteration budget (Section VI-A, citing Hershey & Olsen's Gaussian
approximations): :func:`gaussian_kl` moment-matches both sample sets with
multivariate Gaussians and uses the closed form.
"""

from __future__ import annotations

import numpy as np


#: Ridge added to each covariance, relative to its mean variance.
JITTER = 1e-9


def _fit_gaussian(samples: np.ndarray):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < samples.shape[1] + 2:
        raise ValueError(
            f"need more samples ({samples.shape[0]}) than dimensions "
            f"({samples.shape[1]}) to fit a Gaussian"
        )
    mu = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False)
    cov = np.atleast_2d(cov)
    cov += JITTER * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    return mu, cov


def gaussian_kl(samples_p: np.ndarray, samples_q: np.ndarray) -> float:
    """KL(P || Q) between Gaussian fits of two (n, dim) sample sets."""
    mu_p, cov_p = _fit_gaussian(samples_p)
    mu_q, cov_q = _fit_gaussian(samples_q)
    dim = mu_p.shape[0]

    chol_q = np.linalg.cholesky(cov_q)
    solve_q = lambda rhs: np.linalg.solve(chol_q.T, np.linalg.solve(chol_q, rhs))

    diff = mu_q - mu_p
    trace_term = np.trace(solve_q(cov_p))
    quad_term = float(diff @ solve_q(diff))
    logdet_q = 2.0 * np.log(np.diag(chol_q)).sum()
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    if sign_p <= 0:
        raise ValueError("sample covariance of P is not positive definite")

    kl = 0.5 * (trace_term + quad_term - dim + logdet_q - logdet_p)
    return float(max(kl, 0.0))
