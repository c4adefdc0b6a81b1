"""Effective sample size via Geyer's initial positive sequence estimator."""

from __future__ import annotations

import numpy as np

from repro.diagnostics.rhat import by_parameter, degenerate_variance


def _autocovariance(block: np.ndarray) -> np.ndarray:
    """Biased autocovariance along the last axis, one FFT over the block."""
    n = block.shape[-1]
    centered = block - block.mean(axis=-1, keepdims=True)
    # Zero-pad to the next power of two for FFT efficiency.
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size, axis=-1)
    acov = np.fft.irfft(f * np.conjugate(f), size, axis=-1)[..., :n]
    return acov / n


def _block_ess(block: np.ndarray) -> np.ndarray:
    """(dim,) ESS of a (dim, n_chains, n_draws) block."""
    dim, n_chains, n_draws = block.shape
    total = float(n_chains * n_draws)
    if n_draws < 4:
        return np.full(dim, total)

    acov = _autocovariance(block)
    mean_var = acov[:, :, 0].mean(axis=1) * n_draws / (n_draws - 1)
    var_plus = mean_var * (n_draws - 1) / n_draws
    if n_chains > 1:
        var_plus = var_plus + block.mean(axis=2).var(axis=1, ddof=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        # rho_t = 1 - (W - mean autocov_t) / var_plus
        rho = 1.0 - (mean_var[:, None] - acov.mean(axis=1)) / var_plus[:, None]
        # Geyer: sum consecutive pairs (rho_1 + rho_2, rho_3 + rho_4, ...)
        # up to the first negative one, each capped by its predecessors.
        n_pairs = (n_draws - 1) // 2
        pairs = rho[:, 1:2 * n_pairs:2] + rho[:, 2:2 * n_pairs + 1:2]
        positive = np.logical_and.accumulate(~(pairs < 0.0), axis=1)
        monotone = np.minimum.accumulate(pairs, axis=1)
        tau = 1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=1)
        ess = np.minimum(total / np.maximum(tau, 1e-12), total)
    # A constant series carries no autocorrelation to estimate.
    return np.where(var_plus <= degenerate_variance(block), total, ess)


def effective_sample_size(draws: np.ndarray):
    """ESS per parameter across chains.

    Parameters
    ----------
    draws:
        (n_chains, n_draws) post-warmup draws of one parameter (or a 1-D
        single chain) -> float, or a (n_chains, n_draws, dim) block ->
        (dim,) array.

    Uses the multi-chain formulation (as in Stan): combines within-chain
    autocovariances with between-chain variance, then truncates the lag sum
    with Geyer's initial monotone positive sequence.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[None, :]
    block, scalar = by_parameter(draws)
    ess = _block_ess(block)
    return float(ess[0]) if scalar else ess


def min_ess(draws: np.ndarray) -> float:
    """Worst-case ESS across parameters of a (n_chains, n_draws, dim) array."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3:
        raise ValueError(f"expected (n_chains, n_draws, dim), got {draws.shape}")
    return float(effective_sample_size(draws).min())
