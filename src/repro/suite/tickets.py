"""``tickets`` — do NYPD officers match departmental productivity targets?

Generative mixture model of monthly traffic-ticket counts per officer, after
Auerbach (2017): each officer has a latent base rate drawn from a population
distribution; in end-of-quota months an officer either writes at the usual
base rate or switches to writing *exactly toward the departmental target*
(mixture weight ``w``). The target component is marginalized per observation
with a log-sum-exp, which is why this is the suite's biggest model code as
well as its largest modeled dataset — the workload the paper singles out for
heavy LLC and i-cache pressure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from scipy import special as sps

from repro.autodiff import ops
from repro.autodiff.tape import Var
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.models.transforms import Positive
from repro.suite.data import make_tickets


def _poisson_log_elementwise(counts: np.ndarray, log_rate: Var) -> Var:
    """Per-observation Poisson log pmf (not summed), log-rate parameterized."""
    counts = np.asarray(counts, dtype=float)
    const = ops.constant(-sps.gammaln(counts + 1.0))
    return ops.constant(counts) * log_rate - ops.exp(log_rate) + const


class Tickets(BayesianModel):
    name = "tickets"
    model_family = "Hierarchical Generative Mixture"
    application = "Do police officers alter ticket writing to match targets?"
    reference = "Auerbach 2017, Significance 14(4); NYC ticket data"
    default_iterations = 8000
    default_warmup = 500
    default_chains = 4

    def __init__(self, scale: float = 1.0, seed: int = 106) -> None:
        super().__init__()
        data = make_tickets(scale=scale, seed=seed)
        self.truth = data.pop("truth")
        self.n_officers = data.pop("n_officers")
        self.add_data(**data)
        quota = self.data("quota_phase")
        self._quota_idx = np.flatnonzero(quota > 0)
        self._free_idx = np.flatnonzero(quota == 0)

    @property
    def params(self):
        return [
            ParameterSpec("mu_officer", 1, init=2.0),
            ParameterSpec("sigma_officer", 1, transform=Positive(), init=0.5),
            ParameterSpec("officer_raw", self.n_officers, init=0.0),
            ParameterSpec("log_target", 1, init=2.5),
            ParameterSpec("w_logit", 1, init=-1.0),
        ]

    def log_joint(self, p: Dict[str, Var]) -> Var:
        counts = self.data("tickets")
        # Non-centered officer rates: effect = mu + sigma * raw.
        officer_effect = p["mu_officer"] + p["sigma_officer"] * p["officer_raw"]
        log_base = (
            ops.take(officer_effect, self.data("officer"))
            + ops.constant(self.data("log_exposure"))
        )

        # Months outside quota pressure: plain hierarchical Poisson.
        free = self._free_idx
        lp_free = ops.sum(
            _poisson_log_elementwise(counts[free], ops.take(log_base, free))
        )

        # End-of-quota months: marginalized two-component mixture between the
        # officer's own rate and the departmental target rate.
        quota = self._quota_idx
        log_w = ops.log_sigmoid(p["w_logit"])
        log_1m_w = ops.log_sigmoid(-p["w_logit"])
        lp_target = _poisson_log_elementwise(counts[quota], p["log_target"])
        lp_base = _poisson_log_elementwise(counts[quota], ops.take(log_base, quota))
        mixture = ops.logsumexp(
            ops.stack([log_w + lp_target, log_1m_w + lp_base]), axis=0
        )
        lp_quota = ops.sum(mixture)

        return (
            lp_free
            + lp_quota
            + dist.normal_lpdf(p["officer_raw"], 0.0, 1.0)
            + dist.normal_lpdf(p["mu_officer"], 2.0, 2.0)
            + dist.half_cauchy_lpdf(p["sigma_officer"], 1.0)
            + dist.normal_lpdf(p["log_target"], 2.5, 1.0)
            + dist.normal_lpdf(p["w_logit"], 0.0, 1.5)
        )
