"""Telemetry through the serving layer: cross-process merge, exactly-once.

The headline property under test: sampler counters merged from worker
processes equal an in-process sequential run of the same spec *exactly* —
including when a worker is SIGKILL'd mid-chain and its chain is resumed
from a checkpoint (the cumulative-watermark merge makes replayed and
resumed iteration blocks idempotent).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.elision import StopRule
from repro.inference import run_chains
from repro.inference.engines import build_engine
from repro.resilience.chaos import ChaosFault, installed, write_plan
from repro.serve import (
    AdmissionError,
    ChainWorkerPool,
    InferenceServer,
    JobSpec,
    JobState,
    chain_tasks,
)
from repro.serve.monitor import ConvergenceMonitor
from repro.suite import load_workload
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.instrument import (
    MONITOR_CHECKS,
    MONITOR_CONVERGED_KEPT,
    MONITOR_RHAT,
    SAMPLER_ITERATIONS,
    SAMPLER_WORK,
    SERVE_ADMISSION_REJECTIONS,
    SERVE_CHAIN_RETRIES,
    SERVE_CHAIN_SECONDS,
    SERVE_CHECKPOINT_WRITES,
    SERVE_JOBS,
    SERVE_WORKER_RESTARTS,
    TAPE_REPLAYS,
    TAPE_VALUE_REPLAYS,
)

SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=60,
    n_warmup=30,
    n_chains=2,
    seed=4,
    scale=0.25,
    elide=False,
    checkpoint_interval=10,
)


def _sequential(spec: JobSpec):
    return run_chains(
        load_workload(spec.workload, scale=spec.scale, seed=spec.dataset_seed),
        build_engine(spec.engine, spec.engine_options),
        n_iterations=spec.n_iterations,
        n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains,
        seed=spec.seed,
        initial_jitter=spec.initial_jitter,
    )


class TestServerMergesWorkerMetrics:
    def test_counters_match_sequential_run_exactly(self, tmp_path):
        registry, tracer = MetricsRegistry(), Tracer()
        metrics_file = tmp_path / "metrics.prom"
        with InferenceServer(
            n_workers=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            registry=registry, tracer=tracer,
            metrics_file=str(metrics_file),
        ) as server:
            job = server.submit(SPEC)
            server.run_until_drained()
        assert job.state is JobState.DONE

        reference = _sequential(SPEC)
        # Work and iteration counts merged across worker processes are
        # exact, not approximate: cumulative blocks + watermark merge.
        assert registry.sum_counter(SAMPLER_WORK) == pytest.approx(
            reference.total_work
        )
        assert registry.sum_counter(SAMPLER_ITERATIONS) == float(
            SPEC.n_chains * SPEC.n_iterations
        )
        labels = {"workload": SPEC.workload, "engine": SPEC.engine}
        assert registry.counter_value(SAMPLER_WORK, labels) > 0.0

        # The workers' tape counters ride the same merge: MH is served by
        # the forward-only value program (all but each worker's recording
        # and probation calls).
        value_replays = registry.sum_counter(TAPE_VALUE_REPLAYS)
        assert 0.9 * reference.total_work < value_replays
        assert value_replays <= registry.sum_counter(TAPE_REPLAYS)

        assert registry.counter_value(SERVE_JOBS, {"state": "done"}) == 1.0
        assert registry.sum_counter(SERVE_CHECKPOINT_WRITES) > 0.0
        ((_, seconds),) = registry.histograms_named(SERVE_CHAIN_SECONDS)
        assert seconds.count == SPEC.n_chains

        # The Prometheus text file was published for scraping.
        text = metrics_file.read_text()
        assert SAMPLER_WORK in text and SERVE_JOBS in text

        names = {span.name for span in tracer.spans()}
        assert {"serve.execute", "serve.store"} <= names

    def test_duplicate_submission_counted_per_terminal_state(self, tmp_path):
        registry = MetricsRegistry()
        with InferenceServer(
            n_workers=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            registry=registry, tracer=Tracer(),
        ) as server:
            server.submit(SPEC)
            server.run_until_drained()
            server.submit(SPEC)  # dedupe hit: already terminal
        assert registry.counter_value(SERVE_JOBS, {"state": "done"}) == 2.0

    def test_admission_rejections_counted(self):
        registry = MetricsRegistry()
        with InferenceServer(
            n_workers=1, max_pending=1,
            registry=registry, tracer=Tracer(),
        ) as server:
            server.submit(SPEC)
            with pytest.raises(AdmissionError):
                server.submit(dataclasses.replace(SPEC, seed=99))
        assert registry.counter_value(SERVE_ADMISSION_REJECTIONS) == 1.0


class TestMonitorGauges:
    def test_rhat_stream_and_convergence_gauge(self):
        rng = np.random.default_rng(0)
        registry = MetricsRegistry()
        monitor = ConvergenceMonitor(
            StopRule(check_interval=10, min_kept=20).live(2, 200, 1),
            registry=registry, job_id="job-1",
        )
        report = monitor.report
        for t in range(200):
            draw = rng.normal(size=(1, 1))
            monitor.observe(0, draw)
            monitor.observe(1, draw + rng.normal(scale=1e-3, size=(1, 1)))
            if report.converged:
                break
        labels = {"job": "job-1"}
        assert report.trace
        assert registry.gauge_value(MONITOR_RHAT, labels) == pytest.approx(
            report.trace[-1]
        )
        assert registry.counter_value(MONITOR_CHECKS, labels) == float(
            len(report.checkpoints)
        )
        assert report.converged
        assert registry.gauge_value(
            MONITOR_CONVERGED_KEPT, labels
        ) == float(report.converged_iteration)


class TestExactlyOnceUnderFaults:
    def test_sigkill_resume_does_not_double_count(self, tmp_path):
        """Kill chain 1's worker at iteration 40; the supervisor respawns
        it and resumes from the t=39 checkpoint. The first incarnation
        already flushed cumulative blocks up to hi=40; the resumed chain
        re-emits hi=40.. onward. The merged registry must show exactly
        one run's worth of iterations and work — no double counting."""
        plan = str(tmp_path / "plan.json")
        write_plan(plan, [ChaosFault(kind="kill", iteration=40, chain_index=1)])
        registry = MetricsRegistry()
        pool = ChainWorkerPool(
            n_workers=2, poll_interval=0.2, job_timeout=120.0,
            registry=registry,
        )
        tasks = chain_tasks(
            SPEC, "kill-job", checkpoint_dir=str(tmp_path / "ckpt"),
            metrics_interval=10,
        )
        try:
            with installed(plan):
                results = pool.run_job(tasks)
        finally:
            pool.shutdown()
        assert len(results) == SPEC.n_chains
        # The kill really happened and was healed by the supervisor.
        assert pool.restarted_workers >= 1
        assert registry.counter_value(SERVE_WORKER_RESTARTS) >= 1.0
        assert registry.counter_value(SERVE_CHAIN_RETRIES) >= 1.0

        reference = _sequential(SPEC)
        labels = {"workload": SPEC.workload, "engine": SPEC.engine}
        assert registry.counter_value(SAMPLER_ITERATIONS, labels) == float(
            SPEC.n_chains * SPEC.n_iterations
        )
        assert registry.counter_value(SAMPLER_WORK, labels) == pytest.approx(
            reference.total_work
        )
        # Wall-time, by contrast, is operational: the killed incarnation's
        # seconds were genuinely spent, so >= 2 observations is correct.
        ((_, seconds),) = registry.histograms_named(SERVE_CHAIN_SECONDS)
        assert seconds.count >= SPEC.n_chains
