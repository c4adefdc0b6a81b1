"""Design-space exploration over cores x chains x iterations (Section VI-B).

Each design point replays a recorded reference run under a different
configuration: fewer chains means taking a subset of the recorded chains,
fewer iterations means truncating them, and the latency/energy of the
configuration comes from the machine and energy models. The *energy oracle*
is the cheapest point whose draws match the ground truth: inside
:func:`~repro.diagnostics.mcse.posterior_band` of it, the band served
answers are judged by; the *detected* points are those reachable with
runtime convergence detection (one per core count); the *user setting* is
the original full-budget 4-chain configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.arch.energy import EnergyModel
from repro.arch.machine import MachineModel
from repro.arch.platforms import Platform
from repro.arch.profile import WorkloadProfile
from repro.core.elision import StopRule
from repro.core.extrapolation import full_budget_works
from repro.diagnostics.mcse import Band, posterior_band, posterior_moments
from repro.diagnostics.rhat import max_rhat
from repro.inference.results import SamplingResult


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
    band: Optional[Band]     # against the ground truth; None without one
    kind: str                # "grid" | "user" | "detected" | "oracle"

    def acceptable(self) -> bool:
        return self.band is not None and self.band.passed


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
        reference: Optional[Mapping],
        kind: str = "grid",
    ) -> DesignPoint:
        """``reference``: the ground truth's
        :func:`~repro.diagnostics.mcse.posterior_moments`, or None."""
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
        band = None
        if reference is not None:
            band = posterior_band(posterior_moments(draws), reference)
        return DesignPoint(
            workload=result.model_name,
            n_cores=n_cores,
            n_chains=n_chains,
            iterations=iterations,
            latency_s=latency,
            energy_j=energy,
            rhat=max_rhat(draws),
            band=band,
            kind=kind,
        )

    # -- the full exploration --------------------------------------------------

    def explore(
        self,
        profile: WorkloadProfile,
        result: SamplingResult,
        ground_truth: Optional[np.ndarray] = None,
    ) -> List[DesignPoint]:
        """All grid points plus the user setting, detected points, and oracle.

        ``ground_truth`` is a (n_chains, n_draws, dim) block of draws (see
        :meth:`repro.core.pipeline.SuiteRunner.ground_truth`).
        """
        reference = None
        if ground_truth is not None:
            reference = posterior_moments(ground_truth)
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
                            int(round(fraction * kept_full)), reference,
                        )
                    )

        # The original user setting: every chain, full budget, all cores.
        points.append(
            self.cost_point(
                profile, result, max(self.core_options), result.n_chains,
                kept_full, reference, kind="user",
            )
        )

        # Convergence-detection points: achievable without ground truth.
        report = self.detector.replay(result)
        if report.converged:
            for n_cores in self.core_options:
                points.append(
                    self.cost_point(
                        profile, result, n_cores, result.n_chains,
                        report.converged_iteration, reference,
                        kind="detected",
                    )
                )

        # The energy oracle: cheapest grid point inside the band. It may use
        # 1-2 chains — infeasible in practice without the ground truth,
        # which is exactly the paper's point.
        acceptable = [p for p in points if p.kind == "grid" and p.acceptable()]
        if acceptable:
            oracle = min(acceptable, key=lambda p: p.energy_j)
            points.append(replace(oracle, kind="oracle"))
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
