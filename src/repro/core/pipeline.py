"""End-to-end optimization pipeline and shared run infrastructure.

:class:`SuiteRunner` owns the expensive artifacts every figure bench needs —
workload instances, measured profiles, reference sampling runs, ground-truth
runs — and caches them, so the bench suite samples each workload once.

:func:`evaluate_overall` composes the paper's two techniques (Section VI-C):
fit the LLC predictor, schedule each workload onto its best platform, stop it
at the detected convergence point, and report the speedup over the naive
baseline (full user budget on the Broadwell server) — the paper's 5.8x
headline (6.2x for the energy oracle).
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
from repro.core.dse import DesignSpaceExplorer
from repro.core.elision import ConvergenceDetector, ElisionReport
from repro.core.extrapolation import full_budget_works
from repro.core.predictor import LlcMissPredictor, characterization_points
from repro.core.scheduler import PlatformScheduler
from repro.durable import atomic_write, load_pickle
from repro.inference import NUTS, run_chains
from repro.inference.results import SamplingResult
from repro.suite import load_workload, workload_names
from repro.telemetry import get_tracer


class SuiteRunner:
    """Cached workload runs shared across figures and benches.

    ``budget_fraction`` scales every workload's original iteration budget so
    the whole suite samples in minutes on a laptop; the elision results are
    *fractions* of the budget and are insensitive to this scaling as long as
    budgets comfortably exceed convergence points (see DESIGN.md).
    """

    #: bump when sampler/model changes invalidate cached runs
    CACHE_VERSION = 1

    def __init__(
        self,
        budget_fraction: float = 0.15,
        n_chains: int = 4,
        seed: int = 0,
        max_tree_depth: int = 6,
        scale: float = 1.0,
        max_kept: int = 400,
        cache_dir: Optional[str] = None,
        executor: str = "sequential",
        serve_workers: Optional[int] = None,
    ) -> None:
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if executor not in ("sequential", "serve"):
            raise ValueError("executor must be 'sequential' or 'serve'")
        self.budget_fraction = budget_fraction
        self.n_chains = n_chains
        self.seed = seed
        self.scale = scale
        self.max_tree_depth = max_tree_depth
        #: cap on recorded post-warmup draws; every full-budget number is
        #: extrapolated from measured rates, so recording more draws than
        #: the diagnostics need would only burn benchmark time
        self.max_kept = max_kept
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.sampler = NUTS(max_tree_depth=max_tree_depth)
        #: "serve" executes reference runs on the repro.serve worker pool
        #: (full budget, no elision) — identical results, parallel chains,
        #: so cache keys are shared with the sequential executor.
        self.executor = executor
        self.serve_workers = serve_workers
        self._server = None
        self._models: Dict[Tuple[str, float], object] = {}
        self._profiles: Dict[Tuple[str, float], WorkloadProfile] = {}
        self._runs: Dict[str, SamplingResult] = {}
        self._truths: Dict[str, np.ndarray] = {}

    # -- optional on-disk memoization -----------------------------------------

    def _cache_path(self, kind: str, key: tuple) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(
            repr((self.CACHE_VERSION, kind, key)).encode()
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
        """One full-budget multi-chain run via the configured executor.

        The serve path disables elision: a reference run must
        cover its whole budget, and by the worker pool's determinism
        guarantee its draws are bit-identical to the sequential driver's —
        which is why both executors may share cached artifacts.
        """
        if self.executor == "serve":
            from repro.serve import JobSpec, JobState

            server = self._serve_server()
            job = server.submit(JobSpec(
                workload=name,
                engine="nuts",
                engine_options={"max_tree_depth": self.max_tree_depth},
                n_iterations=n_iterations,
                n_warmup=n_warmup,
                n_chains=self.n_chains,
                seed=seed,
                scale=self.scale,
                initial_jitter=self.initial_jitter,
                elide=False,
            ))
            if not job.state.terminal:
                server.run_until_drained()
            if job.state is JobState.FAILED:
                raise RuntimeError(f"service run of {name} failed: {job.error}")
            return job.result
        return run_chains(
            self.model(name), self.sampler,
            n_iterations=n_iterations, n_warmup=n_warmup,
            n_chains=self.n_chains, seed=seed,
            initial_jitter=self.initial_jitter,
        )

    def _serve_server(self):
        if self._server is None:
            from repro.serve import InferenceServer

            self._server = InferenceServer(n_workers=self.serve_workers)
        return self._server

    def close(self) -> None:
        """Release the serve executor's worker processes, if any."""
        if self._server is not None:
            self._server.close()
            self._server = None

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
                    "suite.run", workload=name, executor=self.executor,
                    n_iterations=total, n_chains=self.n_chains,
                ):
                    return self._sample(name, total, warmup, self.seed)

            self._runs[name] = self._cached("run", cache_key, compute)
        return self._runs[name]

    def ground_truth(self, name: str) -> np.ndarray:
        """Pooled draws from a doubled-budget run (the paper's truth proxy)."""
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
                    ).pooled(second_half_only=True)

            self._truths[name] = self._cached("truth", cache_key, compute)
        return self._truths[name]

    def all_profiles(self) -> List[WorkloadProfile]:
        return [self.profile(name) for name in workload_names()]

    # -- fitted components ------------------------------------------------------

    def fitted_predictor(self, n_cores: int = 4) -> LlcMissPredictor:
        """Predictor fitted on the full-scale characterization points."""
        machine = MachineModel(SKYLAKE)
        points = characterization_points(
            self.all_profiles(), machine, n_cores=n_cores, n_chains=self.n_chains
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
    oracle_seconds: Optional[float] = None

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.optimized_seconds

    @property
    def oracle_speedup(self) -> Optional[float]:
        if self.oracle_seconds is None or self.oracle_seconds <= 0:
            return None
        return self.baseline_seconds / self.oracle_seconds


def evaluate_overall(
    runner: SuiteRunner,
    detector: Optional[ConvergenceDetector] = None,
    include_oracle: bool = False,
    names: Optional[List[str]] = None,
) -> List[OverallSpeedup]:
    """Compose scheduling + elision and measure the overall speedup.

    Baseline: the full user budget, 4 chains on 4 Broadwell cores, no
    convergence detection — the paper's naive configuration. Optimized: the
    predictor-chosen platform, stopped at the detected convergence point.
    """
    detector = detector or ConvergenceDetector()
    scheduler = runner.scheduler()
    baseline_machine = MachineModel(BROADWELL)
    rows: List[OverallSpeedup] = []

    for name in names or workload_names():
        profile = runner.profile(name)
        result = runner.run(name)
        report: ElisionReport = detector.detect(result)

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

        oracle_s = None
        if include_oracle:
            explorer = DesignSpaceExplorer(platform, detector=detector)
            points = explorer.explore(
                profile, result, ground_truth=runner.ground_truth(name)
            )
            oracle_points = explorer.select(points, "oracle")
            if oracle_points:
                oracle_s = oracle_points[0].latency_s

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
                oracle_seconds=oracle_s,
            )
        )
    return rows
