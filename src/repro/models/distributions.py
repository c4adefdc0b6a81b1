"""Log probability density/mass functions in autodiff form.

Following Stan conventions, every ``*_lpdf`` / ``*_lpmf`` returns the **sum**
of elementwise log densities as a scalar :class:`~repro.autodiff.tape.Var`
(the quantity added to the log joint). Arguments may be ``Var`` nodes, numpy
arrays, or scalars; non-``Var`` inputs are treated as constants.

Plain-numpy scalar versions (``*_logpdf_np``) are provided for code paths
that do not need gradients (Metropolis-Hastings, diagnostics, tests).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps
from scipy import stats

from repro.autodiff import ops
from repro.autodiff.tape import Var, constant

LOG_2PI = float(np.log(2.0 * np.pi))
LOG_PI = float(np.log(np.pi))


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else constant(x)


def _broadcast_size(*args) -> int:
    return math.prod(np.broadcast_shapes(*(_value(a).shape for a in args)))


def _summed_over_broadcast(term: Var, shape) -> Var:
    """Sum ``term`` as if it were broadcast to ``shape`` first.

    Used for per-element normalization terms (e.g. ``log sigma``) that may be
    scalar while the observation vector is not.
    """
    count = math.prod(shape)
    if term.ndim == 0 or term.size == 1:
        # A scalar (or length-1) term contributes `count` identical copies.
        total = term if term.ndim == 0 else ops.sum(term)
        return total * float(count)
    if term.shape == tuple(shape):
        return ops.sum(term)
    return ops.sum(term + constant(np.zeros(shape)))


# ---------------------------------------------------------------------------
# Continuous distributions
# ---------------------------------------------------------------------------

def normal_lpdf(x, mu, sigma) -> Var:
    """Sum of Normal(mu, sigma) log densities."""
    shape = np.broadcast_shapes(_value(x).shape, _value(mu).shape, _value(sigma).shape)
    z = (_as_var(x) - mu) / sigma
    sigma_term = _summed_over_broadcast(ops.log(_as_var(sigma)), shape)
    count = float(math.prod(shape))
    return ops.sum(ops.square(z)) * -0.5 - sigma_term - 0.5 * LOG_2PI * count


def lognormal_lpdf(x, mu, sigma) -> Var:
    """Sum of LogNormal(mu, sigma) log densities; x must be positive."""
    shape = np.broadcast_shapes(_value(x).shape, _value(mu).shape, _value(sigma).shape)
    log_x = ops.log(_as_var(x))
    z = (log_x - mu) / sigma
    sigma_term = _summed_over_broadcast(ops.log(_as_var(sigma)), shape)
    count = float(math.prod(shape))
    return (
        ops.sum(ops.square(z)) * -0.5
        - sigma_term
        - _summed_over_broadcast(log_x, shape)
        - 0.5 * LOG_2PI * count
    )


def cauchy_lpdf(x, mu, gamma) -> Var:
    """Sum of Cauchy(mu, gamma) log densities."""
    shape = np.broadcast_shapes(_value(x).shape, _value(mu).shape, _value(gamma).shape)
    z = (_as_var(x) - mu) / gamma
    gamma_term = _summed_over_broadcast(ops.log(_as_var(gamma)), shape)
    count = float(math.prod(shape))
    return -ops.sum(ops.log1p(ops.square(z))) - gamma_term - LOG_PI * count


def half_cauchy_lpdf(x, gamma) -> Var:
    """Sum of half-Cauchy(0, gamma) log densities for positive x."""
    count = float(_broadcast_size(x, gamma))
    return cauchy_lpdf(x, 0.0, gamma) + float(np.log(2.0)) * count


def half_normal_lpdf(x, sigma) -> Var:
    """Sum of half-Normal(0, sigma) log densities for positive x."""
    count = float(_broadcast_size(x, sigma))
    return normal_lpdf(x, 0.0, sigma) + float(np.log(2.0)) * count


def student_t_lpdf(x, nu: float, mu, sigma) -> Var:
    """Sum of Student-t(nu, mu, sigma) log densities; nu is a constant."""
    shape = np.broadcast_shapes(_value(x).shape, _value(mu).shape, _value(sigma).shape)
    z = (_as_var(x) - mu) / sigma
    count = float(math.prod(shape))
    log_norm = float(
        sps.gammaln((nu + 1.0) / 2.0)
        - sps.gammaln(nu / 2.0)
        - 0.5 * np.log(nu * np.pi)
    )
    sigma_term = _summed_over_broadcast(ops.log(_as_var(sigma)), shape)
    kernel = ops.sum(ops.log1p(ops.square(z) / nu)) * (-(nu + 1.0) / 2.0)
    return kernel - sigma_term + log_norm * count


def exponential_lpdf(x, rate) -> Var:
    """Sum of Exponential(rate) log densities for positive x."""
    shape = np.broadcast_shapes(_value(x).shape, _value(rate).shape)
    rate_term = _summed_over_broadcast(ops.log(_as_var(rate)), shape)
    return rate_term - ops.sum(_as_var(x) * rate)


def gamma_lpdf(x, alpha, beta) -> Var:
    """Sum of Gamma(shape=alpha, rate=beta) log densities for positive x."""
    shape = np.broadcast_shapes(
        _value(x).shape, _value(alpha).shape, _value(beta).shape
    )
    alpha_v, beta_v = _as_var(alpha), _as_var(beta)
    norm = alpha_v * ops.log(beta_v) - ops.lgamma(alpha_v)
    return (
        _summed_over_broadcast(norm, shape)
        + ops.sum((alpha_v - 1.0) * ops.log(_as_var(x)))
        - ops.sum(beta_v * _as_var(x))
    )


def inv_gamma_lpdf(x, alpha, beta) -> Var:
    """Sum of Inverse-Gamma(alpha, beta) log densities for positive x."""
    shape = np.broadcast_shapes(
        _value(x).shape, _value(alpha).shape, _value(beta).shape
    )
    alpha_v, beta_v = _as_var(alpha), _as_var(beta)
    norm = alpha_v * ops.log(beta_v) - ops.lgamma(alpha_v)
    return (
        _summed_over_broadcast(norm, shape)
        - ops.sum((alpha_v + 1.0) * ops.log(_as_var(x)))
        - ops.sum(beta_v / _as_var(x))
    )


def beta_lpdf(x, alpha, beta) -> Var:
    """Sum of Beta(alpha, beta) log densities for x in (0, 1)."""
    shape = np.broadcast_shapes(
        _value(x).shape, _value(alpha).shape, _value(beta).shape
    )
    alpha_v, beta_v = _as_var(alpha), _as_var(beta)
    x_v = _as_var(x)
    log_norm = (
        ops.lgamma(alpha_v + beta_v) - ops.lgamma(alpha_v) - ops.lgamma(beta_v)
    )
    return (
        _summed_over_broadcast(log_norm, shape)
        + ops.sum((alpha_v - 1.0) * ops.log(x_v))
        + ops.sum((beta_v - 1.0) * ops.log1p(-x_v))
    )


def uniform_lpdf(x, lo: float, hi: float) -> Var:
    """Sum of Uniform(lo, hi) log densities (constant inside the support)."""
    count = float(_value(x).size)
    return ops.sum(_as_var(x) * 0.0) - np.log(hi - lo) * count


def dirichlet_lpdf(x, alpha) -> Var:
    """Dirichlet log density for a simplex-valued x."""
    x_v, alpha_v = _as_var(x), _as_var(alpha)
    log_norm = ops.lgamma(ops.sum(alpha_v)) - ops.sum(ops.lgamma(alpha_v))
    return log_norm + ops.sum((alpha_v - 1.0) * ops.log(x_v))


def multi_normal_chol_lpdf(x, mu, chol_cov) -> Var:
    """Multivariate normal log density given a lower Cholesky factor of the
    covariance. All three arguments may be differentiable."""
    diff = _as_var(x) - _as_var(mu)
    chol = _as_var(chol_cov)
    n = float(_value(x).shape[0])
    cov = ops.matmul(chol, ops.transpose(chol))
    alpha = ops.solve_spd(cov, diff)
    quad = ops.dot(diff, alpha)
    logdet = ops.logdet_spd(cov)
    return (quad + logdet + n * LOG_2PI) * -0.5


def multi_normal_prec_quad_lpdf(x, cov) -> Var:
    """Zero-mean multivariate normal log density with differentiable SPD
    covariance ``cov`` and constant observation ``x`` (the Gaussian-process
    marginal likelihood fast path)."""
    x = np.asarray(_value(x), dtype=float)
    cov_v = _as_var(cov)
    n = float(x.shape[0])
    quad = ops.quadratic_form_inv(cov_v, x)
    logdet = ops.logdet_spd(cov_v)
    return (quad + logdet + n * LOG_2PI) * -0.5


# ---------------------------------------------------------------------------
# Discrete distributions (observed counts; parameters differentiable)
# ---------------------------------------------------------------------------

def poisson_log_lpmf(counts, log_rate) -> Var:
    """Sum of Poisson log pmf with log-rate parameterization (Stan's
    ``poisson_log``). ``counts`` are observed data."""
    counts = np.asarray(_value(counts))
    log_rate_v = _as_var(log_rate)
    const = -float(sps.gammaln(counts + 1.0).sum())
    return ops.sum(constant(counts) * log_rate_v - ops.exp(log_rate_v)) + const


def poisson_lpmf(counts, rate) -> Var:
    """Sum of Poisson log pmf with rate parameterization."""
    return poisson_log_lpmf(counts, ops.log(_as_var(rate)))


def bernoulli_logit_lpmf(y, logit_p) -> Var:
    """Sum of Bernoulli log pmf with logit parameterization.

    Uses the numerically stable identity
    ``y*log(p) + (1-y)*log(1-p) = y*eta - softplus(eta)``.
    """
    y = np.asarray(_value(y))
    eta = _as_var(logit_p)
    return ops.sum(constant(y) * eta - ops.softplus(eta))


def binomial_logit_lpmf(successes, trials, logit_p) -> Var:
    """Sum of Binomial log pmf with logit parameterization."""
    successes = np.asarray(_value(successes))
    trials = np.asarray(_value(trials))
    eta = _as_var(logit_p)
    const = float(
        (sps.gammaln(trials + 1.0) - sps.gammaln(successes + 1.0)
         - sps.gammaln(trials - successes + 1.0)).sum()
    )
    return (
        ops.sum(constant(successes) * eta - constant(trials) * ops.softplus(eta))
        + const
    )


def neg_binomial_2_lpmf(counts, mu, phi) -> Var:
    """Sum of Stan's ``neg_binomial_2`` log pmf (mean/overdispersion form)."""
    counts = np.asarray(_value(counts))
    shape = np.broadcast_shapes(counts.shape, _value(mu).shape, _value(phi).shape)
    mu_v, phi_v = _as_var(mu), _as_var(phi)
    ones = constant(np.ones(shape))
    counts_c = constant(counts)
    return ops.sum(
        ops.lgamma(counts_c + phi_v * ones)
        - ops.lgamma(phi_v) * ones
        - constant(sps.gammaln(counts + 1.0))
        + phi_v * ops.log(phi_v) * ones
        + counts_c * ops.log(mu_v)
        - (counts_c + phi_v * ones) * ops.log(mu_v + phi_v)
    )


def categorical_logit_lpmf(y, logits) -> Var:
    """Sum over observations of categorical log pmf.

    ``logits`` is an (n_obs, n_cat) Var; ``y`` integer categories in [0, K).
    """
    y = np.asarray(_value(y), dtype=int)
    eta = _as_var(logits)
    rows = np.arange(y.shape[0])
    picked = ops.getitem(eta, (rows, y))
    return ops.sum(picked) - ops.sum(ops.logsumexp(eta, axis=1))


# ---------------------------------------------------------------------------
# Plain numpy log densities (no gradients) for MH / diagnostics / tests
# ---------------------------------------------------------------------------

def normal_logpdf_np(x, mu, sigma) -> float:
    return float(stats.norm.logpdf(x, loc=mu, scale=sigma).sum())


def cauchy_logpdf_np(x, mu, gamma) -> float:
    return float(stats.cauchy.logpdf(x, loc=mu, scale=gamma).sum())


def poisson_logpmf_np(k, rate) -> float:
    return float(stats.poisson.logpmf(k, mu=rate).sum())


def binomial_logpmf_np(k, n, p) -> float:
    return float(stats.binom.logpmf(k, n=n, p=p).sum())


def gamma_logpdf_np(x, alpha, beta) -> float:
    return float(stats.gamma.logpdf(x, a=alpha, scale=1.0 / beta).sum())


def beta_logpdf_np(x, alpha, beta) -> float:
    return float(stats.beta.logpdf(x, a=alpha, b=beta).sum())


def student_t_logpdf_np(x, nu, mu, sigma) -> float:
    return float(stats.t.logpdf(x, df=nu, loc=mu, scale=sigma).sum())


def lognormal_logpdf_np(x, mu, sigma) -> float:
    return float(stats.lognorm.logpdf(x, s=sigma, scale=np.exp(mu)).sum())


def bernoulli_logit_logpmf_np(y, eta) -> float:
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return float((y * eta - np.logaddexp(0.0, eta)).sum())
