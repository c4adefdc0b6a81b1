"""Monte Carlo standard errors, and the band a posterior answer is judged by.

MCSE quantifies how much of a reported posterior mean is sampling noise:
``mcse_mean = sd / sqrt(ESS)``. The elision policies implicitly trade MCSE
for latency. :func:`posterior_band` turns it into a verdict: whether an
answer's per-parameter means and sds agree with a reference posterior's
(``benchmarks/reference_posteriors.py``) within both sides' Monte Carlo
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import stats

from repro.diagnostics.ess import effective_sample_size

#: Family-wise false-alarm rate of :func:`posterior_band`, split Bonferroni
#: over every parameter's two comparisons. One value for every shape.
BAND_ALPHA = 0.001


def mcse_mean(draws: np.ndarray):
    """Monte Carlo standard error of the posterior mean.

    ``draws`` is (n_chains, n_draws) for one parameter -> float, or a
    (n_chains, n_draws, dim) block -> (dim,) array.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[None, :]
    sd = draws.reshape(draws.shape[0] * draws.shape[1], -1).std(axis=0, ddof=1)
    mcse = sd / np.sqrt(np.maximum(effective_sample_size(draws), 1.0))
    return float(mcse[0]) if draws.ndim == 2 else mcse


def posterior_moments(draws: np.ndarray) -> dict:
    """Per-parameter ``mean``, ``sd`` and ``mcse_mean`` of a (n_chains,
    n_draws, dim) block: what :func:`posterior_band` compares."""
    draws = np.asarray(draws, dtype=float)
    flat = draws.reshape(-1, draws.shape[-1])
    return {
        "mean": flat.mean(axis=0),
        "sd": flat.std(axis=0, ddof=1),
        "mcse_mean": mcse_mean(draws),
    }


@dataclass(frozen=True)
class Band:
    """Per-parameter z-scores of one answer against a reference."""

    #: ``Δmean / sqrt(mcse² + mcse_ref²)``.
    mean_z: np.ndarray
    #: ``log(sd / sd_ref)`` over its standard error, ``1 / sqrt(2 ESS)``
    #: per side with ``ESS = (sd / mcse_mean)²``.
    sd_z: np.ndarray
    sd_ratio: np.ndarray
    #: The bound every ``|z|`` must stay within.
    z: float

    @property
    def max_z(self) -> float:
        return float(max(np.abs(self.mean_z).max(), np.abs(self.sd_z).max()))

    @property
    def passed(self) -> bool:
        return self.max_z <= self.z


def posterior_band(answer: Mapping, reference: Mapping) -> Band:
    """Judge ``answer`` against ``reference``, both :func:`posterior_moments`
    mappings: every parameter's mean and log-sd must agree within ``z``
    standard errors, ``z`` the two-sided Bonferroni level of
    :data:`BAND_ALPHA` over ``2 * dim`` comparisons."""
    mean, sd, mcse = (np.asarray(answer[k]) for k in ("mean", "sd", "mcse_mean"))
    ref_mean, ref_sd, ref_mcse = (
        np.asarray(reference[k]) for k in ("mean", "sd", "mcse_mean")
    )
    mean_z = (mean - ref_mean) / np.sqrt(mcse ** 2 + ref_mcse ** 2)
    # Var(log sd) ~ 1 / (2 ESS) for near-Gaussian draws; 1 / (2 ESS) is
    # (mcse / sd)² / 2.
    log_se = np.sqrt(((mcse / sd) ** 2 + (ref_mcse / ref_sd) ** 2) / 2.0)
    sd_z = np.log(sd / ref_sd) / log_se
    n_tests = 2 * mean.shape[0]
    z = float(stats.norm.ppf(1.0 - BAND_ALPHA / (2.0 * n_tests)))
    return Band(mean_z=mean_z, sd_z=sd_z, sd_ratio=sd / ref_sd, z=z)
