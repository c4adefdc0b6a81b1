"""Design-space exploration over cores x chains x iterations (Section VI-B).

Each design point replays a recorded reference run under a different
configuration: fewer chains means taking a subset of the recorded chains,
fewer iterations means truncating them, and the latency/energy of the
configuration comes from the machine and energy models. The *energy oracle*
is the cheapest point whose result quality (KL against ground truth) stays
acceptable; the *detected* points are those reachable with runtime
convergence detection (one per core count); the *user setting* is the
original full-budget 4-chain configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.energy import EnergyModel
from repro.arch.machine import MachineModel
from repro.arch.platforms import Platform
from repro.arch.profile import WorkloadProfile
from repro.core.elision import StopRule
from repro.core.extrapolation import full_budget_works
from repro.diagnostics.kl import gaussian_kl
from repro.diagnostics.rhat import max_rhat
from repro.inference.results import SamplingResult

#: Baseline KL-to-ground-truth level below which a result is always "good
#: quality". The KL of a finite sample set has a dimension-dependent floor,
#: so the explorer additionally accepts any point whose KL is within
#: KL_QUALITY_SLACK of the *user setting's* own KL — the paper's criterion
#: is exactly that intermediate results match the full-budget result.
KL_QUALITY_THRESHOLD = 0.35
KL_QUALITY_SLACK = 1.5


@dataclass(frozen=True)
class DesignPoint:
    """One (cores, chains, iterations) configuration with its costs."""

    workload: str
    n_cores: int
    n_chains: int
    iterations: int          # post-warmup iterations per chain (full-budget units)
    latency_s: float
    energy_j: float
    rhat: float
    kl: float
    kind: str                # "grid" | "user" | "detected" | "oracle"

    def acceptable(self, kl_threshold: float = KL_QUALITY_THRESHOLD) -> bool:
        return np.isfinite(self.kl) and self.kl <= kl_threshold


class DesignSpaceExplorer:
    """Sweep configurations of one workload on one platform."""

    def __init__(
        self,
        platform: Platform,
        detector: Optional[StopRule] = None,
        core_options: Sequence[int] = (1, 2, 4),
        chain_options: Sequence[int] = (1, 2, 4),
        iteration_fractions: Sequence[float] = (0.125, 0.25, 0.5, 0.75, 1.0),
    ) -> None:
        self.platform = platform
        self.machine = MachineModel(platform)
        self.energy = EnergyModel(platform)
        self.detector = detector or StopRule()
        self.core_options = [c for c in core_options if c <= platform.cores]
        self.chain_options = list(chain_options)
        self.iteration_fractions = list(iteration_fractions)

    # -- costing one configuration against the recorded run -------------------

    def cost_point(
        self,
        profile: WorkloadProfile,
        result: SamplingResult,
        n_cores: int,
        n_chains: int,
        iterations: int,
        ground_truth: Optional[np.ndarray],
        kind: str = "grid",
    ) -> DesignPoint:
        iterations = max(int(iterations), 2)
        # Work includes full warmup plus the kept prefix, per chain, in the
        # workload's original budget units (see core.extrapolation).
        works = full_budget_works(result, profile, kept_iterations=iterations)
        works = works[:n_chains]
        latency = self.machine.job_seconds(profile, works, n_cores=n_cores)
        cores_used = min(n_cores, n_chains)
        energy = self.energy.energy_joules(cores_used, latency)

        # Quality is evaluated on the recorded draws (clamped to what the
        # scaled reference run holds; more iterations only improve quality).
        quality_iterations = min(iterations, result.n_kept)
        draws = result.stacked()[:n_chains, :quality_iterations, :]
        rhat = (
            max_rhat(draws)
            if n_chains >= 2 and quality_iterations >= 4
            else float("nan")
        )
        kl = float("nan")
        if ground_truth is not None:
            pooled = draws.reshape(-1, draws.shape[-1])
            try:
                kl = gaussian_kl(pooled, ground_truth)
            except (np.linalg.LinAlgError, ValueError):
                kl = float("nan")
        return DesignPoint(
            workload=result.model_name,
            n_cores=n_cores,
            n_chains=n_chains,
            iterations=iterations,
            latency_s=latency,
            energy_j=energy,
            rhat=rhat,
            kl=kl,
            kind=kind,
        )

    # -- the full exploration --------------------------------------------------

    def explore(
        self,
        profile: WorkloadProfile,
        result: SamplingResult,
        ground_truth: Optional[np.ndarray] = None,
    ) -> List[DesignPoint]:
        """All grid points plus the user setting, detected points, and oracle."""
        points: List[DesignPoint] = []
        kept_full = profile.default_iterations - profile.default_warmup

        for n_chains in self.chain_options:
            if n_chains > result.n_chains:
                continue
            for n_cores in self.core_options:
                for fraction in self.iteration_fractions:
                    points.append(
                        self.cost_point(
                            profile, result, n_cores, n_chains,
                            int(round(fraction * kept_full)), ground_truth,
                        )
                    )

        # The original user setting: every chain, full budget, all cores.
        points.append(
            self.cost_point(
                profile, result, max(self.core_options), result.n_chains,
                kept_full, ground_truth, kind="user",
            )
        )

        # Convergence-detection points: achievable without ground truth.
        report = self.detector.replay(result)
        if report.converged:
            for n_cores in self.core_options:
                points.append(
                    self.cost_point(
                        profile, result, n_cores, result.n_chains,
                        report.converged_iteration, ground_truth,
                        kind="detected",
                    )
                )

        # The energy oracle: cheapest acceptable-quality grid point. It may
        # use 1-2 chains — infeasible in practice without the ground truth,
        # which is exactly the paper's point.
        if ground_truth is not None:
            user_point = next(p for p in points if p.kind == "user")
            threshold = KL_QUALITY_THRESHOLD
            if np.isfinite(user_point.kl):
                threshold = max(threshold, KL_QUALITY_SLACK * user_point.kl)
            acceptable = [
                p for p in points if p.kind == "grid" and p.acceptable(threshold)
            ]
            if acceptable:
                oracle = min(acceptable, key=lambda p: p.energy_j)
                points.append(
                    DesignPoint(
                        workload=oracle.workload,
                        n_cores=oracle.n_cores,
                        n_chains=oracle.n_chains,
                        iterations=oracle.iterations,
                        latency_s=oracle.latency_s,
                        energy_j=oracle.energy_j,
                        rhat=oracle.rhat,
                        kl=oracle.kl,
                        kind="oracle",
                    )
                )
        return points

    # -- summaries used by the figure benches -----------------------------------

    @staticmethod
    def select(points: Sequence[DesignPoint], kind: str) -> List[DesignPoint]:
        return [p for p in points if p.kind == kind]

    @staticmethod
    def energy_saving_fraction(points: Sequence[DesignPoint]) -> float:
        """Energy saved by the best detected point relative to the user
        setting (Figure 7's per-workload bars)."""
        user = DesignSpaceExplorer.select(points, "user")
        detected = DesignSpaceExplorer.select(points, "detected")
        if not user or not detected:
            return 0.0
        best = min(detected, key=lambda p: p.energy_j)
        return 1.0 - best.energy_j / user[0].energy_j
