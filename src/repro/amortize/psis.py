"""Pareto-smoothed importance sampling (PSIS) — the tier gate's diagnostic.

An amortized surrogate q(x) answers a request the true posterior p(x)
should have answered. Importance ratios r_s = p(x_s)/q(x_s) over draws
x_s ~ q tell us how wrong that substitution is: if q misses mass of p, the
ratio distribution grows a heavy right tail. Vehtari, Simpson, Gelman, Yao
& Gabry ("Pareto smoothed importance sampling", JMLR 2024) turn that tail
into a *measurable* diagnostic: fit a generalized Pareto distribution (GPD)
to the largest ratios and read off its shape parameter k̂.

The published decision rule, which ``repro.serve`` uses verbatim:

* ``k̂ ≤ 0.7``  — the importance estimate is reliable; the surrogate
  posterior is close enough to serve;
* ``k̂ > 0.7``  — the ratios have infinite-enough variance that no
  reweighting rescues the surrogate; escalate to exact inference.

The implementation is self-contained numpy: the Zhang & Stephens (2009)
empirical-Bayes GPD fit (their estimator needs no optimizer — a profile
likelihood over a fixed grid), and the tail-smoothing step that replaces
the largest raw weights with expected GPD order statistics. Non-finite
log-ratios fail *closed*: a NaN or +inf ratio yields k̂ = +inf, which every
threshold rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The PSIS paper's reliability threshold on the tail-shape estimate.
KHAT_THRESHOLD = 0.7


def fit_generalized_pareto(exceedances: np.ndarray) -> tuple[float, float]:
    """Fit GPD shape ``k`` and scale ``sigma`` to sorted exceedances.

    Zhang & Stephens (2009): reparameterize by ``b = k / sigma``, profile
    the likelihood over a deterministic grid of ``b`` candidates centered
    on a quartile-based scale estimate, and average the candidates under
    their normalized profile likelihoods (an empirical-Bayes posterior
    mean, no iterative optimization). The returned ``k`` includes the
    weakly-informative prior shrinkage toward 0.5 the PSIS paper adds for
    small tails.

    ``exceedances`` must be positive and ascending (amounts over the tail
    cutoff).
    """
    x = np.asarray(exceedances, dtype=float)
    n = x.size
    if n == 0 or not np.all(np.isfinite(x)):
        return float("inf"), float("nan")

    # Grid of b candidates around the quartile-anchored scale. Duplicate
    # ratios can zero the quartile; infinite candidates are filtered out
    # with the rest of the non-finite profile likelihoods below.
    n_grid = 30 + int(np.sqrt(n))
    grid = np.arange(1, n_grid + 1, dtype=float)
    quartile = x[int(n / 4 + 0.5) - 1] if n >= 4 else x[0]
    with np.errstate(divide="ignore"):
        b_grid = 1.0 / x[-1] + (1.0 - np.sqrt(n_grid / (grid - 0.5))) / (
            3.0 * quartile
        )

    # Profile likelihood of each candidate: k(b) is available in closed
    # form as the mean of log(1 - b x).
    with np.errstate(divide="ignore", invalid="ignore"):
        k_grid = np.mean(np.log1p(-b_grid[:, None] * x[None, :]), axis=1)
        log_lik = n * (np.log(-b_grid / k_grid) - k_grid - 1.0)
    log_lik = np.where(np.isfinite(log_lik), log_lik, -np.inf)
    if not np.any(np.isfinite(log_lik)):
        return float("inf"), float("nan")

    # Posterior-mean b under the normalized profile likelihood.
    rel = np.exp(log_lik - log_lik.max())
    b_hat = float(np.sum(b_grid * rel) / np.sum(rel))
    k_hat = float(np.mean(np.log1p(-b_hat * x)))
    sigma = float(-k_hat / b_hat) if b_hat != 0.0 else float("nan")
    # Prior shrinkage: nudges tiny-tail estimates toward 0.5 (PSIS §3.3).
    k_hat = (n * k_hat + 5.0) / (n + 10.0)
    return k_hat, sigma


def _gpd_quantiles(n: int, k: float, sigma: float) -> np.ndarray:
    """Expected order statistics of a GPD(k, sigma) sample of size ``n``."""
    probs = (np.arange(1, n + 1) - 0.5) / n
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-probs)
    return sigma * np.expm1(-k * np.log1p(-probs)) / k


@dataclass(frozen=True)
class PsisDiagnostic:
    """The PSIS verdict for one surrogate-vs-true-posterior comparison."""

    #: GPD tail-shape estimate; ≤ 0.7 means the surrogate is servable.
    k_hat: float
    #: Smoothed, self-normalized log importance weights (sums to 1 in
    #: weight space), in the caller's draw order.
    log_weights: np.ndarray
    #: Number of draws in the fitted tail.
    n_tail: int
    #: Importance-sampling effective sample size 1 / sum(w^2).
    ess: float


def psis(log_ratios: np.ndarray) -> PsisDiagnostic:
    """Smooth raw log importance ratios; estimate the tail shape k̂.

    ``log_ratios[s] = log p(x_s) - log q(x_s)`` for draws ``x_s ~ q``.
    ``-inf`` entries are legal (a draw outside p's support carries zero
    weight); ``+inf``/NaN entries mean the comparison itself is broken and
    force k̂ = +inf.
    """
    lr = np.asarray(log_ratios, dtype=float).ravel()
    n = lr.size
    if (
        n < 5
        or np.any(np.isnan(lr))
        or np.any(np.isposinf(lr))
        # All -inf: every draw lies outside p's support, so the comparison
        # says nothing — fail closed rather than report "no tail".
        or not np.any(np.isfinite(lr))
    ):
        return PsisDiagnostic(
            k_hat=float("inf"),
            log_weights=np.full(n, -np.log(max(n, 1))),
            n_tail=0,
            ess=float(n) if n else 0.0,
        )

    # Shift for numerical stability; the self-normalization at the end
    # makes the shift irrelevant to the weights.
    shifted = lr - lr.max()

    # Tail size per the PSIS recommendation: min(0.2 S, 3 sqrt(S)).
    n_tail = int(min(np.ceil(0.2 * n), np.ceil(3.0 * np.sqrt(n))))
    k_hat = float("-inf")
    if n_tail >= 5:
        order = np.argsort(shifted)
        tail_idx = order[-n_tail:]
        cutoff = shifted[order[-n_tail - 1]]
        exceedances = np.exp(shifted[tail_idx]) - np.exp(cutoff)
        # A flat tail (duplicate ratios) has nothing to fit; k̂ = -inf is
        # the honest "no tail" answer and passes every threshold.
        if np.any(exceedances > 0):
            k_hat, sigma = fit_generalized_pareto(np.sort(exceedances))
            if np.isfinite(k_hat):
                # Replace the raw tail by the fitted GPD's expected order
                # statistics (the "smoothing" in PSIS), keeping rank order.
                smoothed = np.log(
                    _gpd_quantiles(n_tail, k_hat, sigma) + np.exp(cutoff)
                )
                ranks = np.argsort(shifted[tail_idx])
                updated = shifted.copy()
                updated[tail_idx[ranks]] = np.minimum(smoothed, 0.0)
                shifted = updated

    # Self-normalize in log space.
    with np.errstate(divide="ignore"):
        norm = np.logaddexp.reduce(shifted)
    log_weights = shifted - norm
    weights = np.exp(log_weights)
    ess = float(1.0 / np.sum(weights**2)) if np.any(weights) else 0.0
    return PsisDiagnostic(
        k_hat=k_hat, log_weights=log_weights, n_tail=n_tail, ess=ess
    )


def surrogate_log_ratios(
    model, guide, draws: np.ndarray, max_draws: int = 1024
) -> np.ndarray:
    """Log importance ratios of ``draws`` from ``guide`` against ``model``.

    ``draws`` is an ``(S, dim)`` array sampled from the guide; the true
    log density is evaluated through
    :meth:`~repro.models.model.BayesianModel.logp`, so the per-draw cost is
    one forward-only tape replay. At most ``max_draws`` evenly-spaced
    draws are scored — enough for a stable k̂ at a bounded latency.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError(f"draws must be (S, dim), got shape {draws.shape}")
    if draws.shape[0] > max_draws:
        idx = np.linspace(0, draws.shape[0] - 1, max_draws).astype(int)
        draws = draws[idx]
    logp = np.array([model.logp(x) for x in draws])
    return logp - guide.log_density(draws)
