"""The inference job service: submission, placement, execution, elision.

:class:`InferenceServer` ties the subsystem together. A submitted
:class:`~repro.serve.job.JobSpec` is first checked against the result store
(deterministic execution makes every stored result authoritative — repeat
traffic costs nothing), then admitted to the priority queue. Draining the
queue runs each job through the paper's full optimization story, now as a
service rather than an offline replay:

1. **Placement** — the workload's static profile is taken once (one trace
   of the log-density graph, no sampling: the paper's Section V predicts
   before execution), its simulated 4-core LLC MPKI becomes a
   characterization point, and the
   :class:`~repro.core.predictor.LlcMissPredictor` (refit as points accrue)
   drives the :class:`~repro.core.scheduler.PlatformScheduler` placement
   rule: predicted-LLC-bound jobs go to the big-cache platform, the rest to
   the fast one. Until two distinct points have been seen the fallback
   rule places directly on the simulated MPKI.
2. **Parallel execution** — chains are sharded across the
   :class:`~repro.serve.workers.ChainWorkerPool`, bit-identical to the
   sequential driver.
3. **Mid-run elision** — streamed draws feed a
   :class:`~repro.serve.monitor.ConvergenceMonitor`; on detection the stop
   iteration is broadcast and the job ends in state ``CONVERGED`` with only
   the iterations it actually needed.

Failed attempts flow through a :class:`RetryPolicy`: the failure is
classified (``transient`` — a lost worker or timeout, safe to retry, with
exponential backoff and checkpoint resume; ``poison`` — a deterministic
in-chain error that recurs on every replay, retried without backoff only to
confirm) and the job parks in state ``RETRYING`` until its backoff expires,
quarantining to ``FAILED`` with every attempt's traceback once
``max_attempts`` is exhausted. A poison job therefore never blocks the
queue: other work drains while it waits, and its retries fail fast at the
initial-position density check.
"""

from __future__ import annotations

import heapq
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.amortize.guides import GuideStore
from repro.amortize.policy import (
    EscalationPolicy,
    Provenance,
    exact_provenance,
    surrogate_result,
    surrogate_rng,
)
from repro.amortize.psis import psis, surrogate_log_ratios
from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, SKYLAKE
from repro.arch.profile import WorkloadProfile, profile_workload
from repro.core.predictor import (
    LlcMissPredictor,
    PredictionPoint,
    characterization_points,
)
from repro.core.scheduler import PlatformScheduler
from repro.inference.results import SamplingResult
from repro.serve.checkpoint import CheckpointStore
from repro.serve.job import ElisionSummary, Job, JobSpec, JobState, Placement
from repro.serve.monitor import ConvergenceMonitor
from repro.serve.queue import AdmissionError, JobQueue
from repro.serve.store import ResultStore, StoredResult, stored_provenance
from repro.resilience.admission import AdmissionController, LoadSheddedError
from repro.resilience.breakers import BreakerBoard, CircuitOpenError
from repro.serve.workers import (
    ChainExecutionError,
    ChainWorkerPool,
    JobDeadlineExceeded,
    JobHalted,
    chain_tasks,
    truncate_chain,
)
from repro.telemetry.exposition import write_metrics_file
from repro.telemetry.instrument import (
    AMORTIZE_ESCALATIONS,
    AMORTIZE_GUIDE_TRAIN_SECONDS,
    AMORTIZE_GUIDE_TRAINS,
    AMORTIZE_KHAT,
    AMORTIZE_SERVED,
    RESILIENCE_BROWNOUT_DOWNGRADES,
    RESILIENCE_DEADLINE_EXPIRED,
    RESILIENCE_DEGRADED,
    RESILIENCE_DURABILITY_ERRORS,
    SERVE_ADMISSION_REJECTIONS,
    SERVE_JOB_RETRIES,
    SERVE_JOBS,
    SERVE_QUEUE_DEPTH,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How the server reacts to failed job attempts."""

    #: Total attempts per job (first run included).
    max_attempts: int = 3
    #: Backoff before transient retry ``n`` is ``base_backoff * 2**(n-1)``.
    base_backoff: float = 0.5
    max_backoff: float = 60.0
    #: Poison failures recur deterministically — retry immediately (the
    #: replay is cheap: it fails at the initial density check) rather than
    #: holding queue capacity hostage to a backoff that cannot help.
    poison_backoff: float = 0.0

    def backoff(self, kind: str, attempt: int) -> float:
        """Delay before the next attempt, given ``attempt`` failures so far.

        Never negative (a negative delay would reorder the retry heap), and
        safe at any attempt count: the exponent is clamped so a pathological
        ``max_attempts`` cannot overflow ``2 ** (attempt - 1)`` into an
        int-to-float conversion error — past ~2**60 the cap wins anyway.
        """
        if kind == "poison":
            return max(0.0, self.poison_backoff)
        exponent = min(max(attempt, 1) - 1, 60)
        delay = self.base_backoff * (2.0 ** exponent)
        return max(0.0, min(self.max_backoff, delay))


def classify_failure(exc: BaseException) -> str:
    """``"poison"`` (deterministic, recurs on replay) or ``"transient"``.

    Chain determinism does the classifying: an exception raised *inside* a
    chain replays identically, while losing the worker process (or the whole
    job timing out) says nothing about the computation.
    """
    if isinstance(exc, ChainExecutionError):
        return "poison" if exc.poison else "transient"
    if isinstance(exc, JobHalted):
        # A graceful-drain stop says nothing about the job; a restarted
        # server resumes it from its checkpoints.
        return "transient"
    if isinstance(exc, (TimeoutError, ConnectionError, BrokenPipeError)):
        return "transient"
    return "poison"


class InferenceServer:
    """Synchronous job service over the chain worker pool."""

    def __init__(
        self,
        n_workers: Optional[int] = None,
        store: Optional[ResultStore] = None,
        queue: Optional[JobQueue] = None,
        pool: Optional[ChainWorkerPool] = None,
        checkpoint_dir: Optional[str] = None,
        max_pending: Optional[int] = 64,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        #: Trained-guide cache for the amortized tiers. Defaults to an
        #: in-memory store so ``fast``/``checked`` submissions always work;
        #: pass a directory-backed store to reuse guides across restarts.
        guide_store: Optional[GuideStore] = None,
        #: When the checked tier trusts the surrogate (PSIS k̂ ≤ 0.7).
        escalation_policy: Optional[EscalationPolicy] = None,
        #: Cost-aware load shedding + brownout (None: admit everything —
        #: exactly the pre-resilience behavior; deadlines still work).
        admission: Optional[AdmissionController] = None,
        #: Circuit breakers for GuideStore/ResultStore I/O. Defaults to a
        #: fresh board on the server's registry.
        breakers: Optional[BreakerBoard] = None,
        #: Called with the job as each execution attempt starts / ends (the
        #: end callback also fires on RETRYING attempts).
        on_job_start: Optional[Callable[[Job], None]] = None,
        on_job_finish: Optional[Callable[[Job], None]] = None,
        #: Mid-run progress pub/sub seam: called as ``on_progress(job,
        #: event, data)`` from the drain thread. Today's only event is
        #: ``"rhat"`` (``{"kept": int, "rhat": float}``), fired once per
        #: online convergence checkpoint — the stream the gateway turns
        #: into Server-Sent Events.
        on_progress: Optional[Callable[[Job, str, Dict], None]] = None,
        #: Telemetry sinks. The serving layer is always instrumented: both
        #: default to the process-global registry/tracer so worker metrics,
        #: monitor gauges and server counters land in one namespace.
        registry=None,
        tracer=None,
        #: Prometheus text file rewritten atomically after every attempt.
        metrics_file: Optional[str] = None,
    ) -> None:
        from repro import telemetry

        self.registry = registry if registry is not None else telemetry.get_registry()
        self.tracer = tracer if tracer is not None else telemetry.get_tracer()
        self.metrics_file = metrics_file
        # `is None` checks: JobQueue and ResultStore are sized containers,
        # so a freshly injected (empty) one is falsy.
        self.queue = queue if queue is not None else JobQueue(max_pending=max_pending)
        self.store = store if store is not None else ResultStore()
        self.pool = pool if pool is not None else ChainWorkerPool(
            n_workers=n_workers, start_method=start_method,
            registry=self.registry,
        )
        self.checkpoint_dir = checkpoint_dir
        #: All jobs ever seen by this server, by id (submission order).
        self.jobs: Dict[str, Job] = {}
        self._models: Dict[Tuple, object] = {}
        self._profiles: Dict[Tuple, WorkloadProfile] = {}
        #: One characterization point per profile (same key): a workload's
        #: scales are distinct points, as the -h/-q variants are in Fig. 3.
        self._points: Dict[Tuple, PredictionPoint] = {}
        self._scheduler: Optional[PlatformScheduler] = None
        self._characterizer = MachineModel(SKYLAKE)
        self.retry_policy = retry_policy or RetryPolicy()
        self.guide_store = guide_store if guide_store is not None else GuideStore()
        self.escalation_policy = escalation_policy or EscalationPolicy()
        self.admission = admission
        if self.admission is not None and self.admission.registry is None:
            self.admission.registry = self.registry
        self.breakers = (
            breakers if breakers is not None
            else BreakerBoard(registry=self.registry)
        )
        self.on_job_start = on_job_start
        self.on_job_finish = on_job_finish
        self.on_progress = on_progress
        #: (due_monotonic, seq, job) min-heap of jobs waiting out a backoff.
        self._retries: List[Tuple[float, int, Job]] = []
        self._retry_seq = 0
        self._queue_depth = self.registry.gauge(SERVE_QUEUE_DEPTH)
        self._admission_rejections = self.registry.counter(
            SERVE_ADMISSION_REJECTIONS
        )

    # -- submission ------------------------------------------------------------

    def submit(self, spec: Union[JobSpec, str], **overrides) -> Job:
        """Admit a request; dedupe against the store and the queue.

        Accepts a full :class:`JobSpec` or a workload name plus spec fields.
        Returns the job tracking this work — possibly an already-queued
        duplicate, or an immediately-DONE job answered from the store.
        """
        if isinstance(spec, str):
            spec = JobSpec(workload=spec, **overrides)
        elif overrides:
            raise TypeError("pass either a JobSpec or a workload name + fields")
        from repro.suite import workload_names

        if spec.workload not in workload_names():
            raise KeyError(
                f"unknown workload {spec.workload!r}; "
                f"available: {', '.join(workload_names())}"
            )

        stored = self._store_get(spec.key())
        provenance = stored_provenance(stored) if stored is not None else None
        if stored is None and spec.mode != "exact":
            # Dedup inheritance: an exact answer satisfies any mode of the
            # same sampling spec (the upgrade documented in JobSpec.key).
            stored = self._store_get(spec.with_mode("exact").key())
            if stored is not None:
                provenance = Provenance(mode=spec.mode, tier="exact")
        if stored is not None:
            job = Job(spec)
            job.deduped = True
            job.result = stored.result
            job.placement = stored.placement
            job.elision = stored.elision
            job.provenance = provenance
            job.transition(JobState.DONE)
            self.jobs[job.job_id] = job
            self._count_terminal(job)
            return job

        if self.admission is not None:
            queued = self.queue.snapshot()
            if spec.key() not in {queued_job.key for queued_job in queued}:
                # Cost-aware shedding — but never shed a duplicate of work
                # already queued: folding onto it is free.
                try:
                    self.admission.check(
                        spec,
                        self.admission.expected_wait(
                            [queued_job.spec for queued_job in queued]
                        ),
                    )
                except LoadSheddedError:
                    self._admission_rejections.inc()
                    raise

        try:
            job = self.queue.push(Job(spec))
        except AdmissionError:
            self._admission_rejections.inc()
            raise
        self.jobs.setdefault(job.job_id, job)
        self._queue_depth.set(len(self.queue))
        return job

    # -- result-store access (circuit-broken) ----------------------------------

    def _store_get(self, key: str) -> Optional[StoredResult]:
        """Dedup lookup through the result-store breaker.

        An open circuit (or an I/O failure) degrades to a cache miss — the
        job recomputes, which deterministic execution makes merely slower,
        never wrong.
        """
        breaker = self.breakers.get("result_store")
        if not breaker.allow():
            return None
        try:
            record = self.store.get(key)
        except OSError as exc:
            breaker.record_failure()
            self._count_durability_error("store")
            warnings.warn(
                f"result store read failed ({exc}); treating as a miss",
                RuntimeWarning,
            )
            return None
        breaker.record_success()
        return record

    def _store_put(self, key: str, record: StoredResult) -> None:
        """Persist through the breaker; failures degrade durability only.

        The job already holds its result in memory — losing the disk write
        costs future dedup, not this answer. ``ResultStore.put`` records
        in-memory before touching disk, so even a failed call still serves
        in-process repeats.
        """
        breaker = self.breakers.get("result_store")
        if not breaker.allow():
            self._count_durability_error("store")
            return
        # Fill the summary memo before the record is pickled, so restarts
        # and other replicas read it from disk instead of recomputing it
        # on every result request.
        record.result.summary()
        try:
            self.store.put(key, record)
        except OSError as exc:
            breaker.record_failure()
            self._count_durability_error("store")
            warnings.warn(
                f"result store write failed ({exc}); result served from "
                f"memory only",
                RuntimeWarning,
            )
            return
        breaker.record_success()

    def _count_durability_error(self, target: str) -> None:
        self.registry.counter(
            RESILIENCE_DURABILITY_ERRORS, {"target": target},
        ).inc()

    # -- telemetry -------------------------------------------------------------

    def _count_terminal(self, job: Job) -> None:
        self.registry.counter(SERVE_JOBS, {"state": job.state.value}).inc()

    def _publish_metrics(self) -> None:
        if self.metrics_file is not None:
            write_metrics_file(self.metrics_file, self.registry)

    # -- placement -------------------------------------------------------------

    def _cache_key(self, spec: JobSpec) -> Tuple:
        return (spec.workload, spec.scale, spec.dataset_seed)

    def _model(self, spec: JobSpec):
        from repro.suite import load_workload

        key = self._cache_key(spec)
        if key not in self._models:
            self._models[key] = load_workload(
                spec.workload, scale=spec.scale, seed=spec.dataset_seed
            )
        return self._models[key]

    def _profile(self, spec: JobSpec) -> WorkloadProfile:
        """The static profile: placement and simulated job latency read
        nothing a calibration run would add, so no sampler runs here."""
        key = self._cache_key(spec)
        if key not in self._profiles:
            self._profiles[key] = profile_workload(
                self._model(spec), calibration_iterations=0
            )
        return self._profiles[key]

    def _place(self, key: Tuple, profile: WorkloadProfile) -> Placement:
        """Predictor-driven placement, falling back to the direct MPKI rule
        until two distinct points give the predictor something to fit."""
        if key not in self._points:
            (self._points[key],) = characterization_points(
                [profile], self._characterizer
            )
            if len(self._points) >= 2:
                predictor = LlcMissPredictor().fit(list(self._points.values()))
                self._scheduler = PlatformScheduler(predictor)

        if self._scheduler is not None:
            predictor = self._scheduler.predictor
            bound = predictor.predict_llc_bound(profile.modeled_data_bytes)
            mpki = predictor.predict_mpki(profile.modeled_data_bytes)
        else:
            # Cold start: a single point cannot fit a threshold, but its own
            # simulated MPKI already answers the LLC-bound question.
            mpki = self._points[key].llc_mpki
            bound = self._points[key].llc_bound
        return Placement(
            platform=(BROADWELL if bound else SKYLAKE).codename,
            predicted_llc_bound=bound,
            predicted_mpki=mpki,
            predictor_fitted=self._scheduler is not None,
        )

    # -- execution -------------------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """The next job to attempt: a due retry, else the queue's head.

        When only not-yet-due retries remain, sleeps until the earliest one
        is due rather than reporting the server drained.
        """
        while True:
            if self._retries:
                due, _, retry = self._retries[0]
                now = time.monotonic()
                if due <= now:
                    heapq.heappop(self._retries)
                    return retry
                queued = self.queue.pop()
                if queued is not None:
                    return queued
                time.sleep(min(due - now, 1.0))
                continue
            return self.queue.pop()

    def run_next(self) -> Optional[Job]:
        """Run the next due job attempt; None when fully drained.

        The returned job may be terminal *or* parked in ``RETRYING`` (its
        next attempt will surface from a later ``run_next`` call once the
        backoff expires).
        """
        job = self._next_job()
        if job is None:
            return None
        self._queue_depth.set(len(self.queue))
        if job.expired:
            # Dropped before it starts: the fast 504-style terminal state.
            # Expiring costs nothing, so it beats burning pool time on an
            # answer nobody is waiting for.
            self._expire(job, phase="pre_start")
            self._count_terminal(job)
            self._note_queue_wait()
            self._publish_metrics()
            if self.on_job_finish is not None:
                self.on_job_finish(job)
            return job
        job.attempts += 1
        job.transition(JobState.RUNNING)
        if self.on_job_start is not None:
            self.on_job_start(job)
        started_at = time.monotonic()
        if self.admission is not None:
            self.admission.job_started(job.spec)
        try:
            self._execute(job)
        except Exception as exc:
            self._handle_failure(job, exc)
        if self.admission is not None:
            # Only clean completions teach the service-time model: a failed,
            # halted, or deadline-truncated attempt measures the fault, not
            # the family's cost.
            clean = job.state in (JobState.DONE, JobState.CONVERGED) and (
                job.provenance is None or job.provenance.degraded is None
            )
            self.admission.job_finished(
                job.spec, time.monotonic() - started_at, success=clean
            )
            self._note_queue_wait()
        if job.state.terminal:
            self._count_terminal(job)
            self.pool.discard_job_metrics(job.job_id)
        self._publish_metrics()
        if self.on_job_finish is not None:
            self.on_job_finish(job)
        return job

    def _note_queue_wait(self) -> None:
        """Feed the brownout machine the queue's current expected wait, so
        sustained-overload state also decays as the backlog drains."""
        if self.admission is None:
            return
        queued = [queued_job.spec for queued_job in self.queue.snapshot()]
        self.admission.note_wait(self.admission.expected_wait(queued))

    def _expire(self, job: Job, phase: str) -> None:
        job.error = (
            f"deadline_s={job.spec.deadline_s:g} lapsed "
            f"{'before the job started' if phase == 'pre_start' else 'mid-run'}"
        )
        job.transition(JobState.EXPIRED)
        self.registry.counter(
            RESILIENCE_DEADLINE_EXPIRED, {"phase": phase},
        ).inc()

    def _handle_failure(self, job: Job, exc: BaseException) -> None:
        """Apply the retry policy to a failed attempt."""
        if isinstance(exc, JobHalted):
            # A graceful-drain stop is the service's choice, not the job's
            # failure: park it without consuming an attempt. Its chains
            # checkpointed on the way out, so a restarted server (or this
            # one, if the drain is abandoned) resumes instead of re-running.
            job.attempts -= 1
            job.was_halted = True
            job.failure_kind = "transient"
            job.attempt_errors.append(
                "attempt halted for graceful drain (not counted)"
            )
            job.transition(JobState.RETRYING)
            self._retry_seq += 1
            heapq.heappush(
                self._retries,
                (time.monotonic() + 0.1, self._retry_seq, job),
            )
            return
        kind = classify_failure(exc)
        job.failure_kind = kind
        job.attempt_errors.append(traceback.format_exc())
        if job.attempts < self.retry_policy.max_attempts:
            self.registry.counter(SERVE_JOB_RETRIES, {"kind": kind}).inc()
        if job.attempts >= self.retry_policy.max_attempts:
            job.fail(
                f"failed after {job.attempts} attempt(s) "
                f"(last failure: {kind}):\n" + job.attempt_errors[-1]
            )
            return
        job.transition(JobState.RETRYING)
        delay = self.retry_policy.backoff(kind, job.attempts)
        self._retry_seq += 1
        heapq.heappush(
            self._retries,
            (time.monotonic() + delay, self._retry_seq, job),
        )

    def _execute(self, job: Job) -> None:
        """Dispatch one attempt: amortized tiers first, exact as fallback.

        ``fast``/``checked`` jobs try the surrogate path; a served answer
        ends the attempt. An escalation (or any amortized-path error) falls
        through to the exact path in the *same* attempt — chain execution
        never reads ``mode``, so the escalated draws are bit-identical to a
        direct ``exact`` submission of the same sampling spec.
        """
        if job.spec.mode != "exact" and self._execute_amortized(job):
            return
        self._execute_exact(job)

    def _execute_amortized(self, job: Job) -> bool:
        """Try to answer ``job`` from its family's guide.

        Returns True when the job reached a terminal state here (surrogate
        served, or an escalation answered by a stored exact result). False
        means run the exact path: the checked tier rejected the surrogate,
        or the amortized path itself failed (a broken guide must degrade to
        exact service, never to a failed job).
        """
        spec = job.spec
        policy = self.escalation_policy
        try:
            model = self._model(spec)
            with self.tracer.span(
                "serve.amortize", job=job.job_id, workload=spec.workload,
                mode=spec.mode,
            ) as attrs:
                guide_breaker = self.breakers.get("guide_store")
                if not guide_breaker.allow():
                    # Open circuit: recent guide training/loads kept
                    # failing. Skip straight to the exact path instead of
                    # paying the failure again (the except below records
                    # the breadcrumb).
                    raise CircuitOpenError("guide_store")
                try:
                    record, trained = self.guide_store.get_or_train(model)
                except Exception:
                    guide_breaker.record_failure()
                    raise
                guide_breaker.record_success()
                attrs["guide"] = record.guide_id
                attrs["trained"] = trained
                if trained:
                    self.registry.counter(AMORTIZE_GUIDE_TRAINS).inc()
                    self.registry.counter(
                        AMORTIZE_GUIDE_TRAIN_SECONDS,
                    ).inc(record.train_seconds)

                rng = surrogate_rng(spec.seed)
                result = surrogate_result(
                    model, record.advi, spec.n_chains, spec.budget_kept, rng
                )

                k_hat: Optional[float] = None
                if spec.mode == "checked":
                    draws = np.vstack([c.samples for c in result.chains])
                    diagnostic = psis(
                        surrogate_log_ratios(
                            model, record.advi, draws,
                            max_draws=policy.psis_max_draws,
                        )
                    )
                    k_hat = float(diagnostic.k_hat)
                    attrs["k_hat"] = k_hat
                    self.registry.gauge(
                        AMORTIZE_KHAT, {"workload": spec.workload},
                    ).set(k_hat)
                    if policy.should_escalate(k_hat):
                        if (
                            self.admission is not None
                            and self.admission.brownout_active()
                        ):
                            # Brownout: sustained overload downgrades the
                            # escalation to the surrogate answer. The PSIS
                            # gate still ran — k̂ is recorded and the
                            # downgrade is explicit in provenance — but the
                            # expensive exact run is suppressed until the
                            # backlog drains. Degraded answers are never
                            # stored, so no future request inherits this.
                            attrs["brownout"] = True
                            job.provenance = Provenance(
                                mode=spec.mode,
                                tier="fast",
                                k_hat=k_hat,
                                k_hat_threshold=policy.k_hat_threshold,
                                guide_id=record.guide_id,
                                guide_trained=trained,
                                escalated=False,
                                degraded="brownout",
                            )
                            job.result = result
                            self.registry.counter(
                                RESILIENCE_BROWNOUT_DOWNGRADES,
                            ).inc()
                            self.registry.counter(
                                RESILIENCE_DEGRADED, {"reason": "brownout"},
                            ).inc()
                            self.registry.counter(
                                AMORTIZE_SERVED, {"tier": "fast"},
                            ).inc()
                            self._emit_tier_event(job)
                            job.transition(JobState.DONE)
                            return True
                        attrs["escalated"] = True
                        self.registry.counter(
                            AMORTIZE_ESCALATIONS,
                            {"workload": spec.workload},
                        ).inc()
                        job.provenance = Provenance(
                            mode=spec.mode,
                            tier="exact",
                            k_hat=k_hat,
                            k_hat_threshold=policy.k_hat_threshold,
                            guide_id=record.guide_id,
                            guide_trained=trained,
                            escalated=True,
                        )
                        self._emit_tier_event(job)
                        return self._serve_escalation_from_store(job)

            # Serve the surrogate.
            job.provenance = Provenance(
                mode=spec.mode,
                tier=spec.mode,
                k_hat=k_hat,
                k_hat_threshold=(
                    policy.k_hat_threshold if spec.mode == "checked" else None
                ),
                guide_id=record.guide_id,
                guide_trained=trained,
                escalated=False,
            )
            job.result = result
            self.registry.counter(AMORTIZE_SERVED, {"tier": spec.mode}).inc()
            self._emit_tier_event(job)
            self._store_put(
                spec.key(),
                StoredResult(
                    spec=spec, result=result, provenance=job.provenance
                ),
            )
            job.transition(JobState.DONE)
            return True
        except Exception:
            # Degrade, don't fail: whatever broke (guide training, the
            # PSIS check, a stale pickle) the exact path still answers.
            job.provenance = None
            job.attempt_errors.append(
                "amortized path failed, fell back to exact:\n"
                + traceback.format_exc()
            )
            return False

    def _emit_tier_event(self, job: Job) -> None:
        """Publish the tier decision on the progress stream (SSE seam)."""
        if self.on_progress is None or job.provenance is None:
            return
        self.on_progress(job, "tier", job.provenance.to_dict())

    def _serve_escalation_from_store(self, job: Job) -> bool:
        """Answer an escalated job from its exact twin's stored result.

        Escalated work inherits the exact tier's dedup: if the identical
        exact run is already stored, serve it (recording the escalated
        provenance under the checked key so repeats dedup directly) instead
        of sampling again. Returns False when no stored twin exists — the
        caller then runs the exact path inline.
        """
        spec = job.spec
        stored = self._store_get(spec.with_mode("exact").key())
        if stored is None:
            return False
        job.deduped = True
        job.result = stored.result
        job.placement = stored.placement
        job.elision = stored.elision
        self._store_put(
            spec.key(),
            StoredResult(
                spec=spec,
                result=stored.result,
                placement=stored.placement,
                elision=stored.elision,
                provenance=job.provenance,
            ),
        )
        job.transition(JobState.DONE)
        return True

    def _execute_exact(self, job: Job) -> None:
        spec = job.spec
        model = self._model(spec)

        with self.tracer.span(
            "serve.place", job=job.job_id, workload=spec.workload
        ) as attrs:
            profile = self._profile(spec)
            job.placement = self._place(self._cache_key(spec), profile)
            attrs["platform"] = job.placement.platform

        monitor: Optional[ConvergenceMonitor] = None
        if spec.elide and spec.n_chains >= 2:
            monitor = ConvergenceMonitor(
                n_chains=spec.n_chains,
                dim=model.dim,
                rhat_threshold=spec.rhat_threshold,
                check_interval=spec.check_interval,
                min_kept=spec.min_kept,
                registry=self.registry,
                job_id=job.job_id,
            )

        def on_draws(chain_index, kept_block):
            if monitor is None:
                return None
            seen = len(monitor.rhat_trace)
            stop_kept = monitor.observe(chain_index, kept_block)
            if self.on_progress is not None:
                # Every checkpoint the observe call just evaluated becomes
                # one progress event (a single block can cross several).
                for kept, rhat in zip(
                    monitor.checkpoints[seen:], monitor.rhat_trace[seen:]
                ):
                    self.on_progress(
                        job, "rhat", {"kept": int(kept), "rhat": float(rhat)}
                    )
            if stop_kept is None:
                return None
            return spec.resolved_warmup + stop_kept

        # A retry after a transient failure resumes each chain from its
        # checkpointed sampler state (bit-identical to starting over, by
        # construction, but skipping the already-computed prefix). Poison
        # failures replay from scratch — resuming cannot change a
        # deterministic outcome, and the failure may predate the checkpoint.
        resume = (
            (job.attempts > 1 or job.was_halted)
            and job.failure_kind == "transient"
            and self.checkpoint_dir is not None
        )
        with self.tracer.span(
            "serve.execute", job=job.job_id, workload=spec.workload,
            engine=spec.engine, n_chains=spec.n_chains,
            attempt=job.attempts, resume=resume,
        ) as attrs:
            try:
                chains = self.pool.run_job(
                    chain_tasks(
                        spec, job.job_id, self.checkpoint_dir, resume=resume
                    ),
                    on_draws=on_draws,
                    on_chain_restart=(
                        monitor.reset_chain if monitor is not None else None
                    ),
                    deadline_at=job.deadline_at,
                )
            except JobDeadlineExceeded as exc:
                attrs["deadline_expired"] = True
                self._finish_deadline_partial(job, model, exc.chains)
                return
            attrs["elided"] = monitor is not None and monitor.converged

        elided = monitor is not None and monitor.converged
        if elided:
            total = spec.resolved_warmup + monitor.converged_kept
            chains = [truncate_chain(chain, total) for chain in chains]

        job.result = SamplingResult(
            model_name=model.name,
            chains=chains,
            param_names=model.flat_param_names(),
        )
        if monitor is not None:
            job.elision = ElisionSummary(
                budget_kept=spec.budget_kept,
                converged_kept=monitor.converged_kept,
                rhat_threshold=spec.rhat_threshold,
                checkpoints=list(monitor.checkpoints),
                rhat_trace=list(monitor.rhat_trace),
            )
        if self._scheduler is not None:
            scheduled = self._scheduler.schedule(
                profile, list(job.result.chain_work)
            )
            job.simulated_seconds = scheduled.seconds
            job.baseline_seconds = scheduled.baseline_seconds

        if job.provenance is None:
            job.provenance = exact_provenance(spec.mode)
        with self.tracer.span("serve.store", job=job.job_id):
            self._store_put(
                spec.key(),
                StoredResult(
                    spec=spec,
                    result=job.result,
                    placement=job.placement,
                    elision=job.elision,
                    provenance=job.provenance,
                ),
            )
            if spec.mode != "exact":
                # The draws ARE the exact answer (mode never reaches chain
                # execution), so an escalated/fallen-back run also settles
                # the exact twin's key — a later exact submission dedups.
                exact_spec = spec.with_mode("exact")
                self._store_put(
                    exact_spec.key(),
                    StoredResult(
                        spec=exact_spec,
                        result=job.result,
                        placement=job.placement,
                        elision=job.elision,
                        provenance=exact_provenance(),
                    ),
                )
        job.transition(JobState.CONVERGED if elided else JobState.DONE)
        if self.checkpoint_dir is not None:
            # The result is stored; the partial-progress safety net served
            # its purpose. (Failed jobs keep theirs: a usable partial
            # posterior and the raw material for post-mortems.)
            CheckpointStore(self.checkpoint_dir).discard_job(job.job_id)

    def _finish_deadline_partial(self, job: Job, model, chains) -> None:
        """Settle a job whose deadline lapsed mid-run.

        Past warmup, the draws already produced are a valid (smaller)
        posterior sample — serve them, flagged ``degraded: deadline`` in
        provenance. The result is **never stored**: the store's contract is
        that a key's draws are the spec's full deterministic answer, and a
        partial sample depends on wall-clock timing. Before any chain
        clears warmup there is nothing defensible to serve, so the job ends
        EXPIRED (the gateway answers 504).

        Chains stop cooperatively at their next iteration, so their lengths
        differ by a few iterations; truncating all to the shortest keeps
        the result rectangular (the same invariant elision relies on).
        """
        spec = job.spec
        min_total = min(chain.n_iterations for chain in chains)
        kept = min_total - spec.resolved_warmup
        if kept < 1:
            self._expire(job, phase="mid_run")
            return
        chains = [truncate_chain(chain, min_total) for chain in chains]
        job.result = SamplingResult(
            model_name=model.name,
            chains=chains,
            param_names=model.flat_param_names(),
        )
        if job.provenance is None:
            job.provenance = exact_provenance(spec.mode)
        job.provenance.degraded = "deadline"
        self.registry.counter(
            RESILIENCE_DEGRADED, {"reason": "deadline"},
        ).inc()
        self.registry.counter(
            RESILIENCE_DEADLINE_EXPIRED, {"phase": "mid_run"},
        ).inc()
        self._emit_tier_event(job)
        job.transition(JobState.DONE)

    def run_until_drained(self) -> List[Job]:
        """Execute every job to a terminal state (priority order).

        Returns the jobs in completion order. Attempts that park in
        ``RETRYING`` are not returned; the job appears once, after its
        final attempt lands it in CONVERGED, DONE, or FAILED.
        """
        finished: List[Job] = []
        while True:
            job = self.run_next()
            if job is None:
                return finished
            if job.state.terminal:
                finished.append(job)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
