"""repro.amortize — tiered amortized serving with PSIS-gated escalation.

The paper prices every request at a full MCMC run; at the ROADMAP's
traffic scale most requests re-fit a handful of model families on fresh
same-shape data. This package implements the amortized fast path and its
measured fallback story (ROADMAP item 11, per "Amortized Bayesian
Workflow" and "BayesFlow"):

* :mod:`repro.amortize.guides` — :class:`GuideStore`: trains and persists
  reusable ADVI guides keyed by (model family, data shape, model-code
  version), each a function of its key alone;
* :mod:`repro.amortize.psis` — Pareto-smoothed importance sampling: the
  per-request diagnostic (tail-shape k̂) scoring a guide's posterior
  against the true log density through the compiled-tape seam;
* :mod:`repro.amortize.policy` — the ``fast | checked | exact`` serving
  modes, the :class:`EscalationPolicy` (serve the surrogate iff
  ``k̂ ≤ 0.7``), and the :class:`Provenance` block every answer carries.

The serving integration lives in :class:`~repro.serve.server.
InferenceServer` (pass a ``guide_store``); the HTTP surface is the
``mode`` field of ``POST /v1/jobs`` and the ``provenance`` block of job
and result views (``docs/amortized.md``).
"""

from repro.amortize.guides import (
    GuideRecord,
    GuideStore,
    guide_key,
    model_version,
    shape_signature,
)
from repro.amortize.policy import (
    DEFAULT_MODE,
    MODES,
    EscalationPolicy,
    Provenance,
    exact_provenance,
    surrogate_result,
    surrogate_rng,
    validate_mode,
)
from repro.amortize.psis import (
    KHAT_THRESHOLD,
    PsisDiagnostic,
    fit_generalized_pareto,
    psis,
    surrogate_log_ratios,
)

__all__ = [
    "DEFAULT_MODE",
    "EscalationPolicy",
    "GuideRecord",
    "GuideStore",
    "KHAT_THRESHOLD",
    "MODES",
    "Provenance",
    "PsisDiagnostic",
    "exact_provenance",
    "fit_generalized_pareto",
    "guide_key",
    "model_version",
    "psis",
    "shape_signature",
    "surrogate_log_ratios",
    "surrogate_result",
    "surrogate_rng",
    "validate_mode",
]
