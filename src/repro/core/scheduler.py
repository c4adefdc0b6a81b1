"""Platform scheduling driven by LLC-miss prediction (paper Section V-B).

The two Table II platforms complement each other: Skylake has the higher
frequency, Broadwell the larger LLC. The scheduler sends jobs the predictor
flags as LLC-bound to the big-cache machine and everything else to the
fast machine; the paper reports a 1.16x average speedup over running the
whole suite on the Broadwell baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, SKYLAKE, Platform
from repro.arch.profile import WorkloadProfile
from repro.core.predictor import LlcMissPredictor


@dataclass
class ScheduledJob:
    """One workload's placement decision and its simulated latencies."""

    name: str
    platform: Platform
    seconds: float
    baseline_seconds: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.seconds if self.seconds else float("inf")


class PlatformScheduler:
    """Assign Bayesian inference jobs to the platform that suits them:
    Skylake is the fast machine, Broadwell the big-cache one and the
    paper's baseline (the newer, 2016, server)."""

    def __init__(self, predictor: LlcMissPredictor) -> None:
        self.predictor = predictor

    def choose_platform(self, profile: WorkloadProfile) -> Platform:
        """Section V-B placement rule: predicted-LLC-bound -> big cache."""
        if self.predictor.predict_llc_bound(profile.modeled_data_bytes):
            return BROADWELL
        return SKYLAKE

    def schedule(
        self,
        profile: WorkloadProfile,
        chain_works: Sequence[float],
        n_cores: int = 4,
    ) -> ScheduledJob:
        """Place one job and simulate its latency against the baseline."""
        platform = self.choose_platform(profile)
        return ScheduledJob(
            name=profile.name,
            platform=platform,
            seconds=MachineModel(platform).job_seconds(
                profile, chain_works, n_cores=n_cores
            ),
            baseline_seconds=MachineModel(BROADWELL).job_seconds(
                profile, chain_works, n_cores=n_cores
            ),
        )

    @staticmethod
    def average_speedup(jobs: Sequence[ScheduledJob]) -> float:
        """The paper's headline metric: mean per-workload speedup."""
        return float(np.mean([job.speedup for job in jobs]))
