"""``ad`` — advertising attribution in the movie industry.

Hierarchical logistic regression of "saw the movie" survey outcomes (Lei,
Sanders & Dawson, StanCon 2017): demographic covariates, demographic-cell
random effects, and per-channel *saturating* advertising response curves
``beta_c * log1p(saturation_c * exposure_c)`` — the diminishing-returns form
attribution models use, with learnable saturation scales. The per-respondent
channel computations make this one of the suite's larger working sets,
which is what drives its LLC-bound multicore behaviour in the paper.
"""

from __future__ import annotations

from typing import Dict

from repro.autodiff import ops
from repro.autodiff.tape import Var
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.models.transforms import Positive
from repro.suite.data import make_ad


class Ad(BayesianModel):
    name = "ad"
    model_family = "Logistic Regression"
    application = "Advertising attribution in the movie industry"
    reference = "Lei, Sanders & Dawson, StanCon 2017"
    default_iterations = 2000
    default_warmup = 500
    default_chains = 4

    def __init__(self, scale: float = 1.0, seed: int = 102) -> None:
        super().__init__()
        data = make_ad(scale=scale, seed=seed)
        self.truth = data.pop("truth")
        self.n_groups = data.pop("n_groups")
        self.add_data(**data)
        self.n_demo = self.data("demographics").shape[1]
        self.n_channels = self.data("exposures").shape[1]

    @property
    def params(self):
        return [
            ParameterSpec("beta_demo", self.n_demo, init=0.0),
            ParameterSpec("beta_channel", self.n_channels, init=0.3),
            ParameterSpec("saturation", self.n_channels,
                          transform=Positive(), init=1.0),
            ParameterSpec("group_effect", self.n_groups, init=0.0),
            ParameterSpec("sigma_group", 1, transform=Positive(), init=0.5),
        ]

    def log_joint(self, p: Dict[str, Var]) -> Var:
        exposures = self.data("exposures")
        eta = ops.matvec(ops.constant(self.data("demographics")), p["beta_demo"])
        # Saturating response per advertising channel (diminishing returns).
        for c in range(self.n_channels):
            response = ops.log1p(ops.constant(exposures[:, c]) * p["saturation"][c])
            eta = eta + p["beta_channel"][c] * response
        eta = eta + ops.take(p["group_effect"], self.data("group"))
        return (
            dist.bernoulli_logit_lpmf(self.data("saw_movie"), eta)
            + dist.normal_lpdf(p["beta_demo"], 0.0, 2.5)
            + dist.normal_lpdf(p["beta_channel"], 0.0, 1.0)
            + dist.lognormal_lpdf(p["saturation"], 0.0, 0.5)
            + dist.normal_lpdf(p["group_effect"], 0.0, p["sigma_group"])
            + dist.half_cauchy_lpdf(p["sigma_group"], 1.0)
        )
