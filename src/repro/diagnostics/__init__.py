"""Convergence and quality diagnostics.

* :mod:`repro.diagnostics.rhat` — the split Gelman-Rubin potential scale
  reduction factor, the paper's convergence-detection statistic
  (Section VI-A);
* :mod:`repro.diagnostics.ess` — effective sample size;
* :mod:`repro.diagnostics.kl` — the Gaussian KL divergence between posterior
  sample sets, used to judge intermediate result quality against ground
  truth (Figure 5);
* :mod:`repro.diagnostics.mcse` — Monte Carlo standard errors, and the band
  a served answer is judged by against a reference posterior;
* :mod:`repro.diagnostics.summary` — per-parameter posterior summaries.
"""

from repro.diagnostics.rhat import split_rhat, max_rhat
from repro.diagnostics.ess import effective_sample_size, min_ess
from repro.diagnostics.kl import gaussian_kl
from repro.diagnostics.summary import summarize, format_summary
from repro.diagnostics.mcse import mcse_mean, posterior_band, posterior_moments

__all__ = [
    "format_summary",
    "mcse_mean",
    "posterior_band",
    "posterior_moments",
    "split_rhat",
    "max_rhat",
    "effective_sample_size",
    "min_ess",
    "gaussian_kl",
    "summarize",
]
