"""Static analysis of the BayesSuite models: the distribution census.

Section VII-A of the paper studies which probability distributions the
suite's models use and finds "the most popular distributions are Gaussian
and Cauchy", motivating special functional units for their CDFs (``erf``,
``atan``). This module reproduces that census by statically scanning each
workload's ``log_joint`` source for calls into the distribution library —
the same information a compiler pass over Stan programs would extract.
"""

from __future__ import annotations

import inspect
import re
from collections import Counter
from typing import Dict, List

from repro.suite.registry import WORKLOAD_CLASSES

#: distribution call -> distribution family (for the census)
_FAMILY = {
    "normal_lpdf": "gaussian",
    "half_normal_lpdf": "gaussian",
    "lognormal_lpdf": "gaussian",
    "multi_normal_chol_lpdf": "gaussian",
    "multi_normal_prec_quad_lpdf": "gaussian",
    "cauchy_lpdf": "cauchy",
    "half_cauchy_lpdf": "cauchy",
    "student_t_lpdf": "student-t",
    "exponential_lpdf": "exponential",
    "gamma_lpdf": "gamma",
    "inv_gamma_lpdf": "gamma",
    "beta_lpdf": "beta",
    "dirichlet_lpdf": "dirichlet",
    "uniform_lpdf": "uniform",
    "poisson_lpmf": "poisson",
    "poisson_log_lpmf": "poisson",
    "bernoulli_logit_lpmf": "bernoulli",
    "binomial_logit_lpmf": "binomial",
    "neg_binomial_2_lpmf": "neg-binomial",
    "categorical_logit_lpmf": "categorical",
    # model-local density helpers
    "_poisson_log_elementwise": "poisson",
    "_binomial_lpmf_p": "binomial",
}

_CALL_PATTERN = re.compile(r"dist\.([a-z_0-9]+)\s*\(")

#: model-local density helpers (marginalized mixtures etc.) -> family
_HELPER_FAMILY = {
    "_poisson_log_elementwise": "poisson",
    "_binomial_lpmf_p": "binomial",
}
_HELPER_PATTERN = re.compile(
    "(" + "|".join(map(re.escape, _HELPER_FAMILY)) + r")\s*\("
)


def distributions_in_workload(cls) -> List[str]:
    """Distribution library calls in one workload's ``log_joint`` source."""
    source = inspect.getsource(cls.log_joint)
    # Include model-module helpers called from log_joint (e.g. the ODE
    # model's _predict), which is where some densities live.
    module_source = inspect.getsource(inspect.getmodule(cls))
    calls = _CALL_PATTERN.findall(source)
    if not calls:
        calls = _CALL_PATTERN.findall(module_source)
    else:
        # Add helper-level calls that log_joint reaches indirectly.
        helper_calls = [
            c for c in _CALL_PATTERN.findall(module_source) if c not in calls
        ]
        calls.extend(helper_calls)
    out = [c for c in calls if c in _FAMILY]
    # Model-local densities (e.g. the tickets mixture's elementwise Poisson,
    # the threshold test's direct-probability binomial).
    helpers = set(_HELPER_PATTERN.findall(source))
    helpers |= {
        h for h in _HELPER_PATTERN.findall(module_source)
        if f"def {h}" in module_source
    }
    out.extend(sorted(helpers))
    return out


def distribution_census() -> Dict[str, int]:
    """Count distribution-family usages across the suite (Section VII-A)."""
    counter: Counter = Counter()
    for cls in WORKLOAD_CLASSES:
        for call in distributions_in_workload(cls):
            counter[_FAMILY[call]] += 1
    return dict(counter)


def special_function_requirements() -> Dict[str, int]:
    """Workload counts per special function an accelerator would need.

    Gaussian-family CDF/densities need ``erf``/``exp``; Cauchy needs
    ``atan``; everything else shares ``exp``/``log``/``lgamma``.
    """
    needs: Counter = Counter()
    for cls in WORKLOAD_CLASSES:
        families = {_FAMILY[c] for c in distributions_in_workload(cls)}
        if "gaussian" in families:
            needs["erf"] += 1
        if "cauchy" in families:
            needs["atan"] += 1
        if families & {"gamma", "beta", "poisson", "binomial",
                       "neg-binomial", "dirichlet"}:
            needs["lgamma"] += 1
        if families:
            needs["exp/log"] += 1
    return dict(needs)
