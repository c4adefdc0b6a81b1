"""End-to-end optimization pipeline and shared run infrastructure.

:class:`SuiteRunner` owns the expensive artifacts every figure bench needs —
workload instances, measured profiles, reference sampling runs, ground-truth
runs — and caches them, so the bench suite samples each workload once.

:func:`evaluate_overall` composes the paper's two techniques (Section VI-C):
fit the LLC predictor, schedule each workload onto its best platform, stop it
at the detected convergence point, and report the speedup over the naive
baseline (full user budget on the Broadwell server) — the paper's 5.8x
headline.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.arch.profile import WorkloadProfile, profile_workload
from repro.batch import run_chains_batched
from repro.core.elision import ElisionReport, StopRule
from repro.core.extrapolation import full_budget_works
from repro.core.predictor import LlcMissPredictor, characterization_points
from repro.core.scheduler import PlatformScheduler
from repro.durable import atomic_write, load_pickle
from repro.inference import NUTS
from repro.inference.results import SamplingResult
from repro.suite import load_workload, workload_names
from repro.telemetry import get_tracer


class SuiteRunner:
    """Cached workload runs shared across figures and benches.

    ``budget_fraction`` scales every workload's original warmup and kept
    budget, and :attr:`max_kept` caps the kept draws. Detection points are
    absolute draw counts (see :mod:`repro.core.extrapolation`), so a run
    must adapt as the user's would and keep enough draws to reach the stop
    rule's ESS floor: the figure benches run at fraction 1.0 (full warmup)
    with 400 kept draws (see DESIGN.md).
    """

    #: Per artifact kind: bump a kind's version when a sampler or model
    #: change invalidates it, or its format changes; the others stay cached.
    CACHE_VERSIONS = {"profile": 2, "run": 2, "truth": 2}

    #: Every run: the user's four chains of depth-6 NUTS on full-scale data.
    n_chains = 4
    max_tree_depth = 6
    scale = 1.0
    #: Cap on recorded post-warmup draws; every full-budget number is
    #: extrapolated from measured rates, so recording more draws than the
    #: diagnostics need would only burn benchmark time.
    max_kept = 400

    def __init__(
        self,
        budget_fraction: float = 0.15,
        seed: int = 0,
        cache_dir: Optional[str] = None,
    ) -> None:
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        self.budget_fraction = budget_fraction
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.sampler = NUTS(max_tree_depth=self.max_tree_depth)
        self._models: Dict[Tuple[str, float], object] = {}
        self._profiles: Dict[Tuple[str, float], WorkloadProfile] = {}
        self._runs: Dict[str, SamplingResult] = {}
        self._truths: Dict[str, np.ndarray] = {}

    # -- optional on-disk memoization -----------------------------------------

    def _cache_path(self, kind: str, key: tuple) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(
            repr((self.CACHE_VERSIONS[kind], kind, key)).encode()
        ).hexdigest()[:20]
        return self.cache_dir / f"{kind}-{digest}.pkl"

    def _cached(self, kind: str, key: tuple, compute):
        path = self._cache_path(kind, key)
        if path is None:
            return compute()
        value = load_pickle(path, object, "it will be recomputed")
        if value is None:
            value = compute()
            atomic_write(path, lambda handle: pickle.dump(value, handle))
        return value

    # -- cached artifacts ------------------------------------------------------

    def model(self, name: str, scale: Optional[float] = None):
        key = (name, scale if scale is not None else self.scale)
        if key not in self._models:
            self._models[key] = load_workload(name, scale=key[1])
        return self._models[key]

    def profile(self, name: str, scale: Optional[float] = None) -> WorkloadProfile:
        key = (name, scale if scale is not None else self.scale)
        if key not in self._profiles:
            cache_key = (name, key[1], self.seed, self.max_tree_depth)

            def compute() -> WorkloadProfile:
                # Spans wrap only the actual computation: a cache hit (in
                # memory or on disk) records nothing.
                with get_tracer().span("suite.profile", workload=name):
                    return profile_workload(
                        self.model(name, key[1]), calibration_iterations=30,
                        n_chains=2, seed=self.seed, sampler=self.sampler,
                    )

            self._profiles[key] = self._cached("profile", cache_key, compute)
        return self._profiles[key]

    def budget(self, name: str) -> Tuple[int, int]:
        """Scaled (total iterations, warmup iterations) for a workload.

        Warmup is floored at 100 iterations: unlike the sampling phase, the
        adaptation phase cannot be scaled down arbitrarily without degrading
        the metric (and therefore every downstream convergence result).
        """
        model = self.model(name)
        warmup = max(int(round(model.default_warmup * self.budget_fraction)), 100)
        kept = max(int(round(
            (model.default_iterations - model.default_warmup)
            * self.budget_fraction
        )), 40)
        kept = min(kept, self.max_kept)
        return warmup + kept, warmup

    #: Initial jitter (unconstrained space) for suite runs; moderate, so
    #: high-dimensional hierarchical posteriors start near their inits.
    initial_jitter = 0.5

    def _sample(
        self, name: str, n_iterations: int, n_warmup: int, seed: int
    ) -> SamplingResult:
        return run_chains_batched(
            self.model(name), self.sampler,
            n_iterations=n_iterations, n_warmup=n_warmup,
            n_chains=self.n_chains, seed=seed,
            initial_jitter=self.initial_jitter,
        )

    def run(self, name: str) -> SamplingResult:
        """The reference run: user chains, full (scaled) budget."""
        if name not in self._runs:
            total, warmup = self.budget(name)
            cache_key = (
                name, self.scale, total, warmup, self.n_chains, self.seed,
                self.max_tree_depth, self.initial_jitter,
            )
            def compute() -> SamplingResult:
                with get_tracer().span(
                    "suite.run", workload=name,
                    n_iterations=total, n_chains=self.n_chains,
                ):
                    return self._sample(name, total, warmup, self.seed)

            self._runs[name] = self._cached("run", cache_key, compute)
        return self._runs[name]

    def ground_truth(self, name: str) -> np.ndarray:
        """The paper's truth proxy, read by figs. 5 and 6 and the ADVI bench:
        a doubled-budget run's last half of kept draws at scale 1.0 (the
        committed references are at 0.5), as (chains, draws, dim) for MCSE."""
        if name not in self._truths:
            total, warmup = self.budget(name)
            cache_key = (
                name, self.scale, total, warmup, self.n_chains,
                self.seed + 1000, self.max_tree_depth,
            )
            def compute() -> np.ndarray:
                with get_tracer().span("suite.ground_truth", workload=name):
                    return self._sample(
                        name, 2 * total, warmup, self.seed + 1000
                    ).stacked(second_half_only=True)

            self._truths[name] = self._cached("truth", cache_key, compute)
        return self._truths[name]

    def all_profiles(self) -> List[WorkloadProfile]:
        return [self.profile(name) for name in workload_names()]

    # -- fitted components ------------------------------------------------------

    def fitted_predictor(self) -> LlcMissPredictor:
        """Predictor fitted on the full-scale characterization points
        (four cores)."""
        machine = MachineModel(SKYLAKE)
        points = characterization_points(
            self.all_profiles(), machine, n_cores=4, n_chains=self.n_chains
        )
        return LlcMissPredictor().fit(points)

    def scheduler(self) -> PlatformScheduler:
        return PlatformScheduler(self.fitted_predictor())


@dataclass
class OverallSpeedup:
    """One Figure 8 bar."""

    name: str
    platform: str
    baseline_seconds: float
    optimized_seconds: float
    converged_iteration: Optional[int]
    iterations_saved_fraction: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.optimized_seconds


def evaluate_overall(
    runner: SuiteRunner, names: Optional[List[str]] = None
) -> List[OverallSpeedup]:
    """Compose scheduling + elision and measure the overall speedup.

    Baseline: the full user budget, 4 chains on 4 Broadwell cores, no
    convergence detection — the paper's naive configuration. Optimized: the
    predictor-chosen platform, stopped where the system's
    :class:`~repro.core.elision.StopRule` detects convergence.
    """
    detector = StopRule()
    scheduler = runner.scheduler()
    baseline_machine = MachineModel(BROADWELL)
    rows: List[OverallSpeedup] = []

    for name in names or workload_names():
        profile = runner.profile(name)
        result = runner.run(name)
        report: ElisionReport = detector.replay(result)

        baseline_works = full_budget_works(result, profile)
        baseline_s = baseline_machine.job_seconds(profile, baseline_works, n_cores=4)

        platform = scheduler.choose_platform(profile)
        optimized_machine = MachineModel(platform)
        if report.converged:
            optimized_works = full_budget_works(
                result, profile, kept_iterations=report.converged_iteration
            )
        else:
            optimized_works = baseline_works
        optimized_s = optimized_machine.job_seconds(
            profile, optimized_works, n_cores=4
        )

        full_kept = profile.default_iterations - profile.default_warmup
        saved = (
            1.0 - report.converged_iteration / full_kept
            if report.converged else 0.0
        )
        rows.append(
            OverallSpeedup(
                name=name,
                platform=platform.codename,
                baseline_seconds=baseline_s,
                optimized_seconds=optimized_s,
                converged_iteration=report.converged_iteration,
                iterations_saved_fraction=saved,
            )
        )
    return rows
