"""``butterfly`` — butterfly species richness and accumulation.

Hierarchical occupancy model after Dorazio et al. (2006): each species
occupies a site with probability psi_s and, when present, is detected on
each visit with probability p_s; both probabilities get population-level
hyperpriors. The site-level occupancy state is marginalized out in closed
form (a two-component log-sum-exp per species-site cell), as in the Stan
implementation.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tape import Var
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.models.transforms import Positive
from repro.suite.data import make_butterfly


def _zero_cell_marginal(occ_logit_zero: Var, det_logit_zero: Var, n_visits: float) -> Var:
    """Summed marginal log probability of all-zero detection histories:
    occupied-but-missed on every visit, or not occupied at all."""
    log_miss = (
        ops.log_sigmoid(occ_logit_zero)
        + ops.log_sigmoid(-det_logit_zero) * n_visits
    )
    log_absent = ops.log_sigmoid(-occ_logit_zero)
    return ops.sum(ops.logsumexp(ops.stack([log_miss, log_absent]), axis=0))


class Butterfly(BayesianModel):
    name = "butterfly"
    model_family = "Hierarchical Bayesian"
    application = "Estimating butterfly species richness and accumulation"
    reference = "Dorazio et al. 2006, Ecology 87(4); Swedish grassland surveys"
    default_iterations = 1500
    default_warmup = 500
    default_chains = 4

    def __init__(self, scale: float = 1.0, seed: int = 109) -> None:
        super().__init__()
        data = make_butterfly(scale=scale, seed=seed)
        self.truth = data.pop("truth")
        self.n_visits = data.pop("n_visits")
        self.n_species = data.pop("n_species")
        self.n_sites = data.pop("n_sites")
        self.add_data(**data)
        detections = self.data("detections")
        self._zero_cells = np.flatnonzero(detections == 0)
        self._pos_cells = np.flatnonzero(detections > 0)

    @property
    def params(self):
        return [
            ParameterSpec("occ_logit", self.n_species, init=0.0),
            ParameterSpec("det_logit", self.n_species, init=-1.0),
            ParameterSpec("mu_occ", 1, init=0.0),
            ParameterSpec("sigma_occ", 1, transform=Positive(), init=1.0),
            ParameterSpec("mu_det", 1, init=-1.0),
            ParameterSpec("sigma_det", 1, transform=Positive(), init=0.7),
        ]

    def log_joint(self, p: Dict[str, Var]) -> Var:
        y = self.data("detections")
        species = self.data("species")
        n_visits = float(self.n_visits)

        occ_cell = ops.take(p["occ_logit"], species)
        det_cell = ops.take(p["det_logit"], species)

        # Cells with detections: occupied for sure.
        pos = self._pos_cells
        lp_pos = (
            ops.sum(ops.log_sigmoid(ops.take(occ_cell, pos)))
            + dist.binomial_logit_lpmf(
                y[pos], np.full(pos.size, n_visits), ops.take(det_cell, pos)
            )
        )

        # Zero cells: occupied-but-missed or unoccupied (marginalized).
        zero = self._zero_cells
        lp_zero = _zero_cell_marginal(
            ops.take(occ_cell, zero), ops.take(det_cell, zero), n_visits
        )

        total = lp_pos + lp_zero
        for effect, mu, sigma in (("occ_logit", "mu_occ", "sigma_occ"),
                                  ("det_logit", "mu_det", "sigma_det")):
            total = (
                total
                + dist.normal_lpdf(p[effect], p[mu], p[sigma])
                + dist.normal_lpdf(p[mu], 0.0, 1.5)
                + dist.half_cauchy_lpdf(p[sigma], 1.0)
            )
        return total
