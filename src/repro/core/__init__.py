"""The paper's contribution: LLC-miss prediction, platform scheduling,
runtime convergence detection (computation elision), and design-space
exploration, composed into an end-to-end optimization pipeline.

* :mod:`repro.core.predictor` — Section V-A: predict 4-core LLC miss rates
  from the *static* modeled-data-size feature;
* :mod:`repro.core.scheduler` — Section V-B: place each job on the platform
  the prediction favours (1.16x over an all-Broadwell baseline);
* :mod:`repro.core.elision` — Section VI-A: stop sampling when split
  R-hat crosses 1.1 and the draws hold enough effective samples (~70% of
  iterations are redundant in the paper), one
  :class:`~repro.core.elision.StopRule` replayed by the figure benches and
  fed live by the serving layer;
* :mod:`repro.core.dse` — Section VI-B: sweep cores x chains x iterations,
  find the energy oracle, and compare against detected design points;
* :mod:`repro.core.pipeline` — Section VI-C: everything together, 5.8x
  average speedup over naive execution in the paper.
"""

from repro.core.predictor import LlcMissPredictor, PredictionPoint
from repro.core.scheduler import PlatformScheduler, ScheduledJob
from repro.core.elision import ElisionReport, StopFeed, StopRule
from repro.core.dse import DesignPoint, DesignSpaceExplorer
from repro.core.extrapolation import full_budget_works
from repro.core.pipeline import SuiteRunner, OverallSpeedup, evaluate_overall
from repro.core.subsample import SubsamplePlan, recommend_subsample

__all__ = [
    "full_budget_works",
    "SubsamplePlan",
    "recommend_subsample",
    "LlcMissPredictor",
    "PredictionPoint",
    "PlatformScheduler",
    "ScheduledJob",
    "ElisionReport",
    "StopFeed",
    "StopRule",
    "DesignPoint",
    "DesignSpaceExplorer",
    "SuiteRunner",
    "OverallSpeedup",
    "evaluate_overall",
]
