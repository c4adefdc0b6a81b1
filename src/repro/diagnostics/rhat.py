"""Gelman-Rubin potential scale reduction factor (R-hat).

Implements the diagnostic of Gelman & Rubin (1992) that the paper's runtime
convergence detection computes online: R-hat compares within-chain and
between-chain variance, approaches 1 as chains converge, and the paper (after
Brooks et al.) takes R-hat < 1.1 as "converged".

Every function here is array-valued over parameters: a ``(n_chains,
n_draws)`` input gives a float, a ``(n_chains, n_draws, dim)`` block gives a
``(dim,)`` array from one pass over the block.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def by_parameter(draws: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``(block, scalar)``: the draws as a contiguous (dim, n_chains, n_draws)
    block, and whether the input was one parameter's (n_chains, n_draws).

    Reductions then run along the contiguous last axis, where numpy sums
    pairwise — the same rounding as reducing each parameter's series alone.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        return draws[None], True
    if draws.ndim != 3:
        raise ValueError(
            f"expected (n_chains, n_draws) or (n_chains, n_draws, dim), "
            f"got shape {draws.shape}"
        )
    return np.ascontiguousarray(np.moveaxis(draws, 2, 0)), False


def degenerate_variance(block: np.ndarray) -> np.ndarray:
    """Per-parameter variance below which a series counts as constant.

    Degeneracy must be judged relative to the draws' magnitude: the
    variance of a constant array is not exactly zero after an affine
    transform (the mean rounds by an ulp), and R-hat and ESS are
    affine-invariant, so the threshold has to scale with the squared data
    scale too.
    """
    scale_sq = np.abs(block).max(axis=(1, 2)) ** 2
    return 1e-20 * np.maximum(scale_sq, np.finfo(float).tiny)


def _block_rhat(block: np.ndarray) -> np.ndarray:
    """(dim,) R-hat of a (dim, n_chains, n_draws) block."""
    dim, n_chains, n_draws = block.shape
    if n_chains < 2:
        raise ValueError("R-hat requires at least 2 chains")
    if n_draws < 2:
        return np.full(dim, np.inf)
    within = block.var(axis=2, ddof=1).mean(axis=1)
    between = n_draws * block.mean(axis=2).var(axis=1, ddof=1)
    degenerate = degenerate_variance(block)
    var_estimate = (n_draws - 1) / n_draws * within + between / n_draws
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_estimate / within)
    # All chains constant: identical -> converged; different -> not.
    return np.where(
        within <= degenerate,
        np.where(between <= n_draws * degenerate, 1.0, np.inf),
        rhat,
    )


def gelman_rubin(draws: np.ndarray):
    """Classic R-hat per parameter.

    Parameters
    ----------
    draws:
        (n_chains, n_draws) post-warmup draws of one parameter -> float, or
        a (n_chains, n_draws, dim) block -> (dim,) array.
    """
    block, scalar = by_parameter(draws)
    rhat = _block_rhat(block)
    return float(rhat[0]) if scalar else rhat


def split_rhat(draws: np.ndarray):
    """Split R-hat: halve each chain to also detect within-chain drift.

    Same shapes as :func:`gelman_rubin`; ``inf`` when a half would hold
    fewer than two draws.
    """
    block, scalar = by_parameter(draws)
    half = block.shape[2] // 2
    rhat = _block_rhat(
        np.concatenate(
            [block[:, :, :half], block[:, :, half:2 * half]], axis=1
        )
    )
    return float(rhat[0]) if scalar else rhat


def max_rhat(draws: np.ndarray, split: bool = False) -> float:
    """Worst-case R-hat across parameters.

    A single unsplit chain has no between-chain variance to compare, so
    its R-hat is ``nan`` (``gelman_rubin`` itself raises on one chain).

    Parameters
    ----------
    draws:
        (n_chains, n_draws, dim) array.
    split:
        Use split R-hat per parameter.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3:
        raise ValueError(f"expected (n_chains, n_draws, dim), got {draws.shape}")
    if draws.shape[0] < 2 and not split:
        return float("nan")
    statistic = split_rhat if split else gelman_rubin
    return float(statistic(draws).max())
