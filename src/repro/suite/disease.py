"""``disease`` — monotone progression of Alzheimer's biomarkers.

I-spline regression (Pourzanjani et al. 2018): biomarker deterioration is
monotone in disease time, so the regression function is a non-negative
combination of I-spline basis functions plus a baseline. The basis matrix is
precomputed (constant); sampling is over the non-negative weights.
"""

from __future__ import annotations

from typing import Dict

from repro.autodiff import ops
from repro.autodiff.tape import Var
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.models.transforms import Positive
from repro.suite.data import make_disease
from repro.suite.splines import i_spline_basis


class Disease(BayesianModel):
    name = "disease"
    model_family = "Logistic Regression"   # family listed in Table I
    application = "Measuring the worsening progression of Alzheimer's"
    reference = "Pourzanjani et al. 2018; ADNI-style biomarker series"
    default_iterations = 6000
    default_warmup = 500
    default_chains = 4

    def __init__(self, scale: float = 1.0, seed: int = 107) -> None:
        super().__init__()
        data = make_disease(scale=scale, seed=seed)
        self.truth = data.pop("truth")
        knots = data.pop("knots")
        self.add_data(**data)
        self._basis = i_spline_basis(self.data("t"), knots, degree=3)
        self.n_basis = self._basis.shape[1]

    @property
    def params(self):
        return [
            ParameterSpec("baseline", 1, init=1.0),
            ParameterSpec("weights", self.n_basis, transform=Positive(), init=0.5),
            ParameterSpec("sigma", 1, transform=Positive(), init=0.3),
        ]

    def log_joint(self, p: Dict[str, Var]) -> Var:
        pred = p["baseline"] + ops.matvec(ops.constant(self._basis), p["weights"])
        return (
            dist.normal_lpdf(self.data("y"), pred, p["sigma"])
            + dist.exponential_lpdf(p["weights"], 1.0)
            + dist.normal_lpdf(p["baseline"], 0.0, 5.0)
            + dist.half_cauchy_lpdf(p["sigma"], 0.5)
        )
