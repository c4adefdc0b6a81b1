"""The inference job service: submission, execution, elision.

:class:`InferenceServer` ties the subsystem together. A submitted
:class:`~repro.serve.job.JobSpec` is first checked against the result store
(deterministic execution makes every stored result authoritative — repeat
traffic costs nothing), then admitted to the priority queue. Draining the
queue runs each job through the paper's optimization story, now as a
service rather than an offline replay:

1. **Parallel execution** — the job's chains run in the
   :class:`~repro.serve.workers.ChainWorkerPool`'s worker processes,
   bit-identical to the sequential driver. :meth:`InferenceServer.run_next`
   is safe to call from several threads, so up to ``pool.n_workers`` jobs
   run at once.
2. **Mid-run elision** — streamed draws feed a
   :class:`~repro.serve.monitor.ConvergenceMonitor`; on detection the stop
   iteration is broadcast and the job ends in state ``CONVERGED`` with only
   the iterations it actually needed.

The paper's Section V platform predictor and scheduler are not here: every
job runs on the same pool, so a platform label would decide nothing. They
live in :mod:`repro.core` and :mod:`repro.arch`, which drive the figures.

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
import threading
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
# Bound here, called nowhere in the service: the ledger's trace shim
# (benchmarks/ledger/trace.py) patches this name; both go with ROADMAP
# item 3(e), the benchmark change that retires that probe.
from repro.arch.profile import profile_workload  # noqa: F401
from repro.inference.results import SamplingResult
from repro.serve.checkpoint import CheckpointStore
from repro.serve.filequeue import JobJournal
from repro.serve.job import ElisionSummary, Job, JobSpec, JobState
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
    """Job service over the chain worker pool; each :meth:`run_next` call
    runs one job attempt on its caller's thread."""

    def __init__(
        self,
        n_workers: Optional[int] = None,
        store: Optional[ResultStore] = None,
        pool: Optional[ChainWorkerPool] = None,
        checkpoint_dir: Optional[str] = None,
        max_pending: Optional[int] = 64,
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
        self.queue = JobQueue(max_pending=max_pending)
        # `is None`: a ResultStore is a sized container, so a freshly
        # injected (empty) one is falsy.
        self.store = store if store is not None else ResultStore()
        self.pool = pool if pool is not None else ChainWorkerPool(
            n_workers=n_workers, registry=self.registry,
        )
        self.checkpoint_dir = checkpoint_dir
        #: All jobs ever seen by this server, by id (submission order).
        self.jobs: Dict[str, Job] = {}
        #: The durable marks of every job (a no-op until a queue-log entry
        #: is recorded against a job; see :class:`JobJournal`).
        self.journal = JobJournal(self.registry)
        #: Guards the retry heap, the in-flight index and the model cache
        #: below: several threads may be inside :meth:`run_next` at once.
        #: Never held across a model load or a job.
        self._lock = threading.Lock()
        #: Queued, running and retrying jobs by key: a duplicate submission
        #: folds onto its in-flight twin instead of running a second time.
        self._live: Dict[str, Job] = {}
        self._models: Dict[Tuple, object] = {}
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
        #: Mid-run progress pub/sub seam, set by the gateway: called as
        #: ``on_progress(job, event, data)`` from the thread running the
        #: job — ``"rhat"`` (``{"kept": int, "rhat": float}``) once per
        #: online convergence checkpoint, ``"tier"`` with the provenance —
        #: the stream the gateway turns into Server-Sent Events.
        self.on_progress: Optional[Callable[[Job, str, Dict], None]] = None
        #: (due_monotonic, seq, job) min-heap of jobs waiting out a backoff.
        self._retries: List[Tuple[float, int, Job]] = []
        self._retry_seq = 0
        self._queue_depth = self.registry.gauge(SERVE_QUEUE_DEPTH)
        self._admission_rejections = self.registry.counter(
            SERVE_ADMISSION_REJECTIONS
        )

    # -- submission ------------------------------------------------------------

    def submit(self, spec: Union[JobSpec, str], **overrides) -> Job:
        """Admit a request; dedupe against the store and the jobs in flight.

        Accepts a full :class:`JobSpec` or a workload name plus spec fields.
        Returns the job tracking this work — possibly a queued, running or
        retrying duplicate, or an immediately-DONE job answered from the
        store.
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

        key = spec.key()
        # In-flight twins first: a job leaves the index only after its
        # answer is stored, so a twin missed here is found in the store.
        job = self._live.get(key)
        if job is not None:
            return job
        stored = self._store_get(key)
        provenance = stored_provenance(stored) if stored is not None else None
        if stored is None and spec.mode != "exact":
            # Dedup inheritance: an exact answer satisfies any mode of the
            # same sampling spec (the upgrade documented in JobSpec.key).
            stored = self._store_get(spec.with_mode("exact").key())
            if stored is not None:
                provenance = Provenance(mode=spec.mode, tier="exact")
        if stored is not None:
            job = Job(spec)
            self._take_stored(job, stored)
            job.provenance = provenance
            self.jobs[job.job_id] = job
            self._settle(job, JobState.DONE)
            return job

        if self.admission is not None:
            # Cost-aware shedding (a duplicate of work in flight folded
            # above, for free).
            try:
                self.admission.check(
                    spec,
                    self.admission.expected_wait(
                        [queued.spec for queued in self.queue.snapshot()],
                        self.pool.n_workers,
                    ),
                )
            except LoadSheddedError:
                self._admission_rejections.inc()
                raise

        with self._lock:
            job = self._live.get(key)
            if job is None:
                try:
                    job = self.queue.push(Job(spec))
                except AdmissionError:
                    self._admission_rejections.inc()
                    raise
                self._live[key] = job
                self.jobs[job.job_id] = job
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
        try:
            # Fill the summary memo before the record is pickled, so
            # restarts and other replicas read it from disk instead of
            # recomputing it on every result request.
            record.result.summary()
            self.store.put(key, record)
        except Exception as exc:
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

    # -- execution -------------------------------------------------------------

    def _model(self, spec: JobSpec):
        from repro.suite import load_workload

        key = (spec.workload, spec.scale, spec.dataset_seed)
        model = self._models.get(key)
        if model is None:
            # Loaded outside the lock, so a cold load stalls no other
            # thread; a racing duplicate is identical, and the first one
            # published is the one every job uses.
            loaded = load_workload(
                spec.workload, scale=spec.scale, seed=spec.dataset_seed
            )
            with self._lock:
                model = self._models.setdefault(key, loaded)
        return model

    def _next_job(self) -> Optional[Job]:
        """The next job to attempt: a due retry, else the queue's head.

        When only not-yet-due retries remain, sleeps until the earliest one
        is due rather than reporting the server drained.
        """
        while True:
            with self._lock:
                if not self._retries:
                    return self.queue.pop()
                due, _, retry = self._retries[0]
                now = time.monotonic()
                if due <= now:
                    heapq.heappop(self._retries)
                    return retry
                queued = self.queue.pop()
                if queued is not None:
                    return queued
            time.sleep(min(due - now, 1.0))

    def _park(self, job: Job, delay: float) -> None:
        """Put ``job`` on the retry heap, due ``delay`` seconds from now."""
        with self._lock:
            self._retry_seq += 1
            heapq.heappush(
                self._retries,
                (time.monotonic() + delay, self._retry_seq, job),
            )

    def run_next(self) -> Optional[Job]:
        """Run the next due job attempt; None when fully drained.

        The returned job may be terminal *or* parked in ``RETRYING`` (its
        next attempt will surface from a later ``run_next`` call once the
        backoff expires). Safe to call from several threads at once: each
        call takes a job of its own, and the pool runs up to
        ``pool.n_workers`` of them side by side.

        Every attempt, an expiry before the start included, ends the same
        way and in this order: :meth:`_settle`, the journal's marks, the
        queue-wait sample, the metrics file, ``on_job_finish``, and only
        then a retry's place on the backoff heap.
        """
        job = self._next_job()
        if job is None:
            return None
        self._queue_depth.set(len(self.queue))
        retry_in = None
        if job.expired:
            # Dropped before it starts: the fast 504-style terminal state.
            # Expiring costs nothing, so it beats burning pool time on an
            # answer nobody is waiting for.
            state = self._expire(job, phase="pre_start")
        else:
            job.attempts += 1
            job.transition(JobState.RUNNING)
            self.journal.started(job)
            if self.on_job_start is not None:
                self.on_job_start(job)
            started_at = time.monotonic()
            if self.admission is not None:
                ticket = self.admission.job_started(job.spec)
            try:
                state = self._execute(job)
            except Exception as exc:
                state, retry_in = self._failed(job, exc)
            if self.admission is not None:
                # Only full answers teach the service-time model: a failed,
                # halted, or degraded attempt measures the fault (or the
                # load), not the family's cost.
                self.admission.job_finished(
                    ticket, time.monotonic() - started_at,
                    success=self._full_answer(job, state),
                )
        self._settle(job, state)
        self.journal.settled(job)
        if self.admission is not None:
            # The queue's expected wait feeds the brownout machine, so an
            # overload state also decays as the backlog drains.
            waiting = [queued.spec for queued in self.queue.snapshot()]
            self.admission.note_wait(
                self.admission.expected_wait(waiting, self.pool.n_workers)
            )
        if self.metrics_file is not None:
            write_metrics_file(self.metrics_file, self.registry)
        try:
            if self.on_job_finish is not None:
                self.on_job_finish(job)
        finally:
            if retry_in is not None:
                # Parked last: a retry another drain thread picks up at
                # once must not start before this attempt's ending is
                # announced — and a callback that raises must not lose it.
                self._park(job, retry_in)
        return job

    @staticmethod
    def _full_answer(job: Job, state: JobState) -> bool:
        """True when an attempt ended in the spec's whole answer: the only
        kind that is stored and that teaches admission a service time. A
        degraded answer (brownout, deadline) depends on load or wall time;
        a store hit at submission ran no attempt and is already kept."""
        return (
            state in (JobState.DONE, JobState.CONVERGED)
            and job.attempts > 0
            and job.provenance.degraded is None
        )

    def _settle(self, job: Job, state: JobState) -> None:
        """Move ``job`` to any state but RUNNING: the one place a job ends.

        A store hit at submission, a surrogate, a brownout downgrade, an
        escalation answered by its stored twin, an exact or elided run, a
        deadline's partial draws, an expiry, a failure and a retry all
        arrive here. A full answer is stored *before* the state changes,
        so whoever sees DONE finds it in the store. An exact answer to an
        amortized request is also the ``exact`` twin's answer (mode never
        reaches the chains), so it settles that key too. A stored answer's
        checkpoints go; every other ending keeps them (a partial
        posterior, or a retry's resume point).
        """
        if self._full_answer(job, state):
            spec = job.spec
            answers = [(spec, job.provenance)]
            if spec.mode != "exact" and not job.deduped \
                    and job.provenance.tier == "exact":
                answers.append((spec.with_mode("exact"), exact_provenance()))
            with self.tracer.span("serve.store", job=job.job_id):
                for answered, provenance in answers:
                    self._store_put(answered.key(), StoredResult(
                        spec=answered, result=job.result,
                        elision=job.elision, provenance=provenance,
                    ))
            if self.checkpoint_dir is not None:
                CheckpointStore(self.checkpoint_dir).discard_job(job.job_id)
        job.transition(state)
        if state.terminal:
            self.registry.counter(SERVE_JOBS, {"state": state.value}).inc()
            self.pool.discard_job_metrics(job.job_id)
            with self._lock:
                if self._live.get(job.key) is job:
                    del self._live[job.key]

    @staticmethod
    def _take_stored(job: Job, stored: StoredResult) -> None:
        """Answer ``job`` with a stored result's draws and decisions."""
        job.deduped = True
        job.result = stored.result
        job.elision = stored.elision

    def _expire(self, job: Job, phase: str) -> JobState:
        job.error = (
            f"deadline_s={job.spec.deadline_s:g} lapsed "
            f"{'before the job started' if phase == 'pre_start' else 'mid-run'}"
        )
        self.registry.counter(
            RESILIENCE_DEADLINE_EXPIRED, {"phase": phase},
        ).inc()
        return JobState.EXPIRED

    def _failed(
        self, job: Job, exc: BaseException
    ) -> Tuple[JobState, Optional[float]]:
        """Apply the retry policy to a failed attempt: its ending, and the
        backoff before the next attempt (None when there is none)."""
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
            return JobState.RETRYING, 0.1
        kind = classify_failure(exc)
        job.failure_kind = kind
        job.attempt_errors.append(traceback.format_exc())
        if job.attempts >= self.retry_policy.max_attempts:
            job.error = (
                f"failed after {job.attempts} attempt(s) "
                f"(last failure: {kind}):\n" + job.attempt_errors[-1]
            )
            return JobState.FAILED, None
        self.registry.counter(SERVE_JOB_RETRIES, {"kind": kind}).inc()
        return JobState.RETRYING, self.retry_policy.backoff(kind, job.attempts)

    def _execute(self, job: Job) -> JobState:
        """Run one attempt and return its ending: amortized tiers first,
        exact as fallback.

        ``fast``/``checked`` jobs try the surrogate path; a served answer
        ends the attempt. An escalation (or any amortized-path error) falls
        through to the exact path in the *same* attempt — chain execution
        never reads ``mode``, so the escalated draws are bit-identical to a
        direct ``exact`` submission of the same sampling spec.
        """
        if job.spec.mode != "exact":
            state = self._execute_amortized(job)
            if state is not None:
                return state
        return self._execute_exact(job)

    def _execute_amortized(self, job: Job) -> Optional[JobState]:
        """Try to answer ``job`` from its family's guide.

        Returns DONE when an answer is ready (surrogate served, or an
        escalation answered by a stored exact result). None means run the
        exact path: the checked tier rejected the surrogate, or the
        amortized path itself failed (a broken guide must degrade to exact
        service, never to a failed job).
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
                            return JobState.DONE
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
                        # Escalated work inherits the exact tier's dedup: a
                        # stored exact twin answers it (settling records it
                        # under the checked key too), else the exact path
                        # runs in this attempt.
                        stored = self._store_get(
                            spec.with_mode("exact").key()
                        )
                        if stored is None:
                            return None
                        self._take_stored(job, stored)
                        return JobState.DONE

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
            return JobState.DONE
        except Exception:
            # Degrade, don't fail: whatever broke (guide training, the
            # PSIS check, a stale pickle) the exact path still answers.
            job.provenance = None
            job.attempt_errors.append(
                "amortized path failed, fell back to exact:\n"
                + traceback.format_exc()
            )
            return None

    def _emit_tier_event(self, job: Job) -> None:
        """Publish the tier decision on the progress stream (SSE seam)."""
        if self.on_progress is None or job.provenance is None:
            return
        self.on_progress(job, "tier", job.provenance.to_dict())

    def _execute_exact(self, job: Job) -> JobState:
        spec = job.spec
        model = self._model(spec)
        monitor: Optional[ConvergenceMonitor] = None
        if spec.elide and spec.n_chains >= 2:
            monitor = ConvergenceMonitor(
                spec.stop_rule.live(spec.n_chains, spec.budget_kept, model.dim),
                registry=self.registry,
                job_id=job.job_id,
            )

        def on_draws(chain_index, kept_block):
            if monitor is None:
                return None
            evaluated = monitor.observe(chain_index, kept_block)
            if self.on_progress is not None:
                # One progress event per checkpoint the block brought due.
                for kept, rhat in evaluated:
                    self.on_progress(
                        job, "rhat", {"kept": int(kept), "rhat": float(rhat)}
                    )
            stop_kept = monitor.report.converged_iteration
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
                        monitor.feed.reset_chain if monitor is not None else None
                    ),
                    deadline_at=job.deadline_at,
                )
            except JobDeadlineExceeded as exc:
                attrs["deadline_expired"] = True
                return self._deadline_partial(job, model, exc.chains)
            attrs["elided"] = monitor is not None and monitor.report.converged

        elided = monitor is not None and monitor.report.converged
        if elided:
            total = spec.resolved_warmup + monitor.report.converged_iteration
            chains = [truncate_chain(chain, total) for chain in chains]

        job.result = SamplingResult(
            model_name=model.name,
            chains=chains,
            param_names=model.flat_param_names(),
        )
        if monitor is not None:
            job.elision = ElisionSummary(
                budget_kept=spec.budget_kept,
                converged_kept=monitor.report.converged_iteration,
                checkpoints=list(monitor.report.checkpoints),
                rhat_trace=list(monitor.report.trace),
            )

        if job.provenance is None:
            job.provenance = exact_provenance(spec.mode)
        return JobState.CONVERGED if elided else JobState.DONE

    def _deadline_partial(self, job: Job, model, chains) -> JobState:
        """The ending of a job whose deadline lapsed mid-run.

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
            return self._expire(job, phase="mid_run")
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
        return JobState.DONE

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
