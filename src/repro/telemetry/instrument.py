"""Instrumentation glue between the samplers/serving layer and the registry.

Three pieces:

* :class:`SamplerInstrument` — a stats-aware ``iteration_hook`` that feeds
  per-iteration sampler statistics (gradient evaluations, NUTS tree depth,
  divergences, acceptance, step size) straight into a registry. Used on the
  in-process path (:func:`repro.inference.run_chains`).
* :class:`ChainTelemetry` — the worker-process side of serve telemetry: it
  accumulates *cumulative-through-iteration* chain statistics and flushes
  them through an emit callback on a fixed iteration grid. Cumulative
  snapshots are the key to exactly-once accounting across worker crashes:
  because chains are deterministic, the statistics through iteration ``t``
  are identical no matter which worker (original, respawned, or resumed
  from a checkpoint) computed them, so the parent can merge by
  high-watermark instead of trusting at-most-once event delivery.
* :class:`ChainMetricsMerger` — the parent-process side: folds flushed
  blocks into a registry, counting each chain iteration exactly once (the
  watermark), while *operational* deltas (checkpoint writes/bytes, chain
  wall-time) add unconditionally — a replayed chain really does redo that
  I/O and wall-time, so re-counting is the truthful reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.telemetry.metrics import MetricsRegistry, log_buckets

# -- metric names (the scheme is documented in docs/telemetry.md) --------------

SAMPLER_ITERATIONS = "repro_sampler_iterations_total"
SAMPLER_WORK = "repro_sampler_work_total"
SAMPLER_DIVERGENCES = "repro_sampler_divergences_total"
SAMPLER_ACCEPT = "repro_sampler_accept_total"
SAMPLER_TREE_DEPTH = "repro_sampler_tree_depth"
SAMPLER_STEP_SIZE = "repro_sampler_step_size"

SERVE_QUEUE_DEPTH = "repro_serve_queue_depth"
SERVE_ADMISSION_REJECTIONS = "repro_serve_admission_rejections_total"
SERVE_JOBS = "repro_serve_jobs_total"
SERVE_JOB_RETRIES = "repro_serve_job_retries_total"
SERVE_WORKER_RESTARTS = "repro_serve_worker_restarts_total"
SERVE_CHAIN_RETRIES = "repro_serve_chain_retries_total"
SERVE_CHECKPOINT_WRITES = "repro_serve_checkpoint_writes_total"
SERVE_CHECKPOINT_BYTES = "repro_serve_checkpoint_bytes_total"
SERVE_CHAIN_SECONDS = "repro_serve_chain_seconds"

MONITOR_RHAT = "repro_monitor_rhat"
MONITOR_CHECKS = "repro_monitor_checks_total"
MONITOR_CONVERGED_KEPT = "repro_monitor_converged_kept"

TAPE_RECORDS = "repro_tape_records_total"
TAPE_REPLAYS = "repro_tape_replays_total"
TAPE_VALUE_REPLAYS = "repro_tape_value_replays_total"
TAPE_FALLBACKS = "repro_tape_fallbacks_total"
TAPE_REPLAY_SECONDS = "repro_tape_replay_seconds_total"
TAPE_SUFFSTATS_ACTIVE = "repro_tape_suffstats_active"
TAPE_SUFFSTATS_FOLDED_OPS = "repro_tape_suffstats_folded_ops"
TAPE_SUFFSTATS_FOLDED_ELEMENTS = "repro_tape_suffstats_folded_elements"
TAPE_SUFFSTATS_DEMOTIONS = "repro_tape_suffstats_demotions_total"

AMORTIZE_SERVED = "repro_amortize_served_total"
AMORTIZE_ESCALATIONS = "repro_amortize_escalations_total"
AMORTIZE_GUIDE_TRAINS = "repro_amortize_guide_trains_total"
AMORTIZE_GUIDE_TRAIN_SECONDS = "repro_amortize_guide_train_seconds_total"
AMORTIZE_KHAT = "repro_amortize_khat"

GATEWAY_REQUESTS = "repro_gateway_requests_total"
GATEWAY_REQUEST_SECONDS = "repro_gateway_request_seconds"
GATEWAY_UNAUTHORIZED = "repro_gateway_unauthorized_total"
GATEWAY_RATELIMITED = "repro_gateway_ratelimited_total"
GATEWAY_SSE_EVENTS = "repro_gateway_sse_events_total"

RESILIENCE_DEADLINE_EXPIRED = "repro_resilience_deadline_expired_total"
RESILIENCE_DEGRADED = "repro_resilience_degraded_total"
RESILIENCE_SHED = "repro_resilience_shed_total"
RESILIENCE_BROWNOUT = "repro_resilience_brownout_active"
RESILIENCE_BROWNOUT_DOWNGRADES = "repro_resilience_brownout_downgrades_total"
RESILIENCE_BREAKER_STATE = "repro_resilience_breaker_state"
RESILIENCE_BREAKER_TRIPS = "repro_resilience_breaker_trips_total"
RESILIENCE_SERVICE_SECONDS = "repro_resilience_service_seconds"
RESILIENCE_QUEUE_TORN_LINES = "repro_resilience_queue_torn_lines_total"
RESILIENCE_SSE_DROPPED = "repro_resilience_sse_dropped_total"
RESILIENCE_CHAOS_INJECTED = "repro_resilience_chaos_injected_total"
RESILIENCE_DURABILITY_ERRORS = "repro_resilience_durability_errors_total"

BATCH_ROUNDS = "repro_batch_rounds_total"
BATCH_LANE_EVALS = "repro_batch_lane_evals_total"
BATCH_SOLO_CALLS = "repro_batch_solo_calls_total"
BATCH_DEMOTIONS = "repro_batch_demoted_instructions_total"
BATCH_WIDTH = "repro_batch_width"
BATCH_CHAINS = "repro_batch_chains_total"

FLEET_SHARD_QUEUE_DEPTH = "repro_fleet_shard_queue_depth"
FLEET_LEASE_EPOCH = "repro_fleet_lease_epoch"
FLEET_LEASE_ACQUIRED = "repro_fleet_lease_acquired_total"
FLEET_LEASE_LOST = "repro_fleet_lease_lost_total"
FLEET_LEASE_RENEWALS = "repro_fleet_lease_renewals_total"
FLEET_FENCED_WRITES = "repro_fleet_fenced_writes_total"
FLEET_ROUTED = "repro_fleet_routed_total"
FLEET_WRONG_REPLICA = "repro_fleet_wrong_replica_total"

#: Tree depths are small integers; powers of two resolve every real depth.
TREE_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
#: Chain wall-times from milliseconds to hours.
CHAIN_SECONDS_BUCKETS = log_buckets(1e-3, 1e4, per_decade=1)
#: HTTP request latencies from 100µs (healthz) to 1000s (an SSE stream
#: held open for a whole job counts as one long request).
REQUEST_SECONDS_BUCKETS = log_buckets(1e-4, 1e3, per_decade=1)

_HELP = {
    SAMPLER_ITERATIONS: "Sampler iterations completed (warmup included)",
    SAMPLER_WORK: "Gradient/log-density evaluations performed",
    SAMPLER_DIVERGENCES: "Divergent transitions recorded",
    SAMPLER_ACCEPT: "Sum of per-iteration acceptance statistics",
    SAMPLER_TREE_DEPTH: "NUTS trajectory tree depth per iteration",
    SAMPLER_STEP_SIZE: "Current integrator step size (last write wins)",
    SERVE_QUEUE_DEPTH: "Jobs currently waiting in the priority queue",
    SERVE_ADMISSION_REJECTIONS: "Submissions rejected by admission control",
    SERVE_JOBS: "Jobs that reached a lifecycle state",
    SERVE_JOB_RETRIES: "Job attempts that failed and were retried",
    SERVE_WORKER_RESTARTS: "Dead or hung worker processes respawned",
    SERVE_CHAIN_RETRIES: "Chains re-queued after losing their worker",
    SERVE_CHECKPOINT_WRITES: "Chain checkpoint files written",
    SERVE_CHECKPOINT_BYTES: "Bytes written to chain checkpoints",
    SERVE_CHAIN_SECONDS: "Per-chain wall time on a worker process",
    MONITOR_RHAT: "Latest online max R-hat per job",
    MONITOR_CHECKS: "Online R-hat checkpoint evaluations",
    MONITOR_CONVERGED_KEPT: "Kept iteration at which the monitor converged",
    TAPE_RECORDS: "Compiled-tape graph recordings (cache misses)",
    TAPE_REPLAYS: "Compiled-tape replays (cache hits)",
    TAPE_VALUE_REPLAYS: (
        "Replays that ran the forward-only value program (no gradient)"
    ),
    TAPE_FALLBACKS: "Gradient evaluations interpreted after tape fallback",
    TAPE_REPLAY_SECONDS: "Cumulative wall time spent in tape replays",
    TAPE_SUFFSTATS_ACTIVE: (
        "1 while the sufficient-statistics rewritten tape is installed"
    ),
    TAPE_SUFFSTATS_FOLDED_OPS: (
        "Data-pass folds the suffstats rewrite performed on this tape"
    ),
    TAPE_SUFFSTATS_FOLDED_ELEMENTS: (
        "Per-replay array elements the suffstats rewrite eliminated"
    ),
    TAPE_SUFFSTATS_DEMOTIONS: (
        "Rewritten tapes demoted after failing tolerance validation"
    ),
    AMORTIZE_SERVED: "Requests answered by an amortized serving tier",
    AMORTIZE_ESCALATIONS: "Checked-tier requests escalated to exact inference",
    AMORTIZE_GUIDE_TRAINS: "Amortized guides trained (cache misses)",
    AMORTIZE_GUIDE_TRAIN_SECONDS: "Wall seconds spent training guides",
    AMORTIZE_KHAT: "Latest PSIS tail-shape estimate per workload",
    GATEWAY_REQUESTS: "HTTP requests served by the gateway",
    GATEWAY_REQUEST_SECONDS: "Gateway HTTP request latency",
    GATEWAY_UNAUTHORIZED: "Requests rejected by bearer-token auth",
    GATEWAY_RATELIMITED: "Requests rejected by the per-token rate limiter",
    GATEWAY_SSE_EVENTS: "Server-sent events delivered to subscribers",
    RESILIENCE_DEADLINE_EXPIRED: (
        "Jobs that hit their deadline (phase: pre_start or mid_run)"
    ),
    RESILIENCE_DEGRADED: (
        "Degraded answers served (reason: deadline or brownout)"
    ),
    RESILIENCE_SHED: "Submissions rejected by cost-aware load shedding",
    RESILIENCE_BROWNOUT: "1 while brownout tier-downgrade mode is active",
    RESILIENCE_BROWNOUT_DOWNGRADES: (
        "checked-tier escalations suppressed by brownout"
    ),
    RESILIENCE_BREAKER_STATE: (
        "Circuit breaker state (0 closed, 0.5 half-open, 1 open)"
    ),
    RESILIENCE_BREAKER_TRIPS: "Circuit breaker closed/half-open -> open trips",
    RESILIENCE_SERVICE_SECONDS: "Measured per-attempt service time",
    RESILIENCE_QUEUE_TORN_LINES: (
        "Torn or undecodable FileJobQueue log lines skipped on load"
    ),
    RESILIENCE_SSE_DROPPED: (
        "SSE events dropped on bounded subscriber queues (slow consumers)"
    ),
    RESILIENCE_CHAOS_INJECTED: "Chaos faults injected, by kind",
    RESILIENCE_DURABILITY_ERRORS: (
        "Durability writes that failed and were degraded, by target"
    ),
    BATCH_ROUNDS: "Batched replay rounds (one per batched evaluate call)",
    BATCH_LANE_EVALS: "Per-lane gradient evaluations served by batched rounds",
    BATCH_SOLO_CALLS: (
        "Solo (unbatched) gradient evaluations made by the batched driver "
        "during acquisition, calibration, or fallback"
    ),
    BATCH_DEMOTIONS: (
        "Tape instructions demoted from vector to lane mode by calibration"
    ),
    BATCH_WIDTH: "Configured lane count of the most recent batched run",
    BATCH_CHAINS: "Chains completed through the batched replay driver",
    FLEET_SHARD_QUEUE_DEPTH: (
        "Live (pending + orphaned) entries per owned queue shard"
    ),
    FLEET_LEASE_EPOCH: "Current fencing epoch per owned shard lease",
    FLEET_LEASE_ACQUIRED: "Shard leases acquired (first claim or takeover)",
    FLEET_LEASE_LOST: "Shard leases lost to expiry, supersession, or chaos",
    FLEET_LEASE_RENEWALS: "Successful shard lease heartbeat renewals",
    FLEET_FENCED_WRITES: (
        "Consumer-side queue mutations vetoed by the lease fence"
    ),
    FLEET_ROUTED: "Submissions routed into an owned shard, by shard",
    FLEET_WRONG_REPLICA: (
        "Submissions redirected to another replica (421 wrong_replica)"
    ),
}


def help_for(name: str) -> Optional[str]:
    """Canonical help string for a telemetry metric name."""
    return _HELP.get(name)


class SamplerInstrument:
    """Per-iteration ``iteration_hook`` feeding a registry directly.

    Counter handles are resolved once at construction (labels are fixed for
    the chain), so the per-iteration cost is a handful of float adds — the
    overhead budget in ``benchmarks/bench_telemetry_overhead.py`` holds the
    instrumented sampler to <2% slowdown.
    """

    #: Samplers check this attribute and pass the stats dict when set.
    wants_stats = True

    def __init__(
        self,
        registry: MetricsRegistry,
        workload: str,
        engine: str,
    ) -> None:
        labels = {"workload": workload, "engine": engine}
        self._iterations = registry.counter(SAMPLER_ITERATIONS, labels)
        self._work = registry.counter(SAMPLER_WORK, labels)
        self._divergences = registry.counter(SAMPLER_DIVERGENCES, labels)
        self._accept = registry.counter(SAMPLER_ACCEPT, labels)
        self._depth = registry.histogram(
            SAMPLER_TREE_DEPTH, labels, buckets=TREE_DEPTH_BUCKETS,
        )
        self._step = registry.gauge(SAMPLER_STEP_SIZE, labels)

    def __call__(self, t: int, draw, stats: Optional[Mapping] = None) -> bool:
        if stats is not None:
            self._iterations.value += 1.0
            self._work.value += stats.get("work", 0.0)
            self._accept.value += stats.get("accept", 0.0)
            if stats.get("divergent"):
                self._divergences.value += 1.0
            depth = stats.get("tree_depth")
            if depth is not None:
                self._depth.observe(float(depth))
            step = stats.get("step_size")
            if step is not None:
                self._step.value = float(step)
        return True


# -- worker-side cumulative chain statistics -----------------------------------


@dataclass
class ChainStats:
    """Cumulative sampler statistics through iteration ``hi`` (exclusive)."""

    hi: int = 0
    work: float = 0.0
    divergences: int = 0
    accept_sum: float = 0.0
    depth_counts: Dict[int, int] = field(default_factory=dict)
    step_size: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "hi": self.hi,
            "work": self.work,
            "divergences": self.divergences,
            "accept_sum": self.accept_sum,
            # JSON object keys are strings; normalize here so a payload
            # round-tripped through the snapshot file stays comparable.
            "depth_counts": {str(d): n for d, n in self.depth_counts.items()},
            "step_size": self.step_size,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChainStats":
        return cls(
            hi=int(payload["hi"]),
            work=float(payload["work"]),
            divergences=int(payload["divergences"]),
            accept_sum=float(payload["accept_sum"]),
            depth_counts={
                int(d): int(n)
                for d, n in dict(payload.get("depth_counts", {})).items()
            },
            step_size=(
                float(payload["step_size"])
                if payload.get("step_size") is not None else None
            ),
        )


class ChainTelemetry:
    """Accumulates one chain's stats in a worker and flushes cumulatively.

    ``emit(payload)`` receives ``{"labels", "cum", "ops"}`` dicts:
    ``cum`` is the :class:`ChainStats` snapshot *through* the flush point,
    ``ops`` the operational deltas (checkpoint writes/bytes) since the last
    flush. Flushes land on the fixed grid ``(t + 1) % flush_interval == 0``
    plus one final flush, so original and resumed runs of the same chain
    produce blocks at compatible watermarks.
    """

    wants_stats = True

    def __init__(
        self,
        workload: str,
        engine: str,
        emit: Callable[[dict], None],
        flush_interval: int = 100,
    ) -> None:
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        self.labels = {"workload": workload, "engine": engine}
        self._emit = emit
        self.flush_interval = flush_interval
        self.stats = ChainStats()
        self._ops: Dict[str, float] = {}

    def seed_from_resume(self, resume_state: Mapping) -> None:
        """Reconstruct the restored prefix's statistics from a snapshot.

        The checkpoint's restored arrays carry per-iteration work and (for
        NUTS) tree depths, and the sampler-state scalars carry cumulative
        divergences and acceptance, so a resumed chain reports the same
        cumulative numbers an uninterrupted run would have at each
        watermark.
        """
        start = int(resume_state["t"]) + 1
        stats = self.stats
        stats.hi = start
        work = resume_state.get("work")
        if work is not None:
            stats.work = float(np.asarray(work)[:start].sum())
        depths = resume_state.get("tree_depths")
        if depths is not None:
            values, counts = np.unique(
                np.asarray(depths)[:start], return_counts=True
            )
            stats.depth_counts = {
                int(d): int(n) for d, n in zip(values, counts)
            }
        stats.divergences = int(resume_state.get("divergences", 0))
        stats.accept_sum = float(
            resume_state.get(
                "accept_stat_total", resume_state.get("accepts", start)
            )
        )
        step = resume_state.get("step")
        if step is not None:
            stats.step_size = float(step)

    # -- recording -------------------------------------------------------------

    def __call__(self, t: int, draw, stats: Optional[Mapping] = None) -> bool:
        if stats is not None:
            self.observe(t, stats)
        return True

    def observe(self, t: int, stats: Mapping) -> None:
        cum = self.stats
        cum.hi = t + 1
        cum.work += stats.get("work", 0.0)
        cum.accept_sum += stats.get("accept", 0.0)
        if stats.get("divergent"):
            cum.divergences += 1
        depth = stats.get("tree_depth")
        if depth is not None:
            depth = int(depth)
            cum.depth_counts[depth] = cum.depth_counts.get(depth, 0) + 1
        step = stats.get("step_size")
        if step is not None:
            cum.step_size = float(step)
        if (t + 1) % self.flush_interval == 0:
            self.flush()

    def count_op(self, name: str, amount: float = 1.0) -> None:
        """Record an operational delta (flushed with the next block)."""
        self._ops[name] = self._ops.get(name, 0.0) + amount

    def flush(self, final: bool = False) -> None:
        payload = {
            "labels": dict(self.labels),
            "cum": self.stats.to_dict(),
            "ops": dict(self._ops),
        }
        self._ops.clear()
        if final:
            payload["final"] = True
        self._emit(payload)


# -- compiled-tape counters ----------------------------------------------------


#: ops-payload key -> metric name for the compiled-tape counters a model's
#: ``tape_stats()`` exposes (``repro.autodiff.compile.CompiledFunction``).
_TAPE_METRICS = {
    "tape_records": TAPE_RECORDS,
    "tape_replays": TAPE_REPLAYS,
    "tape_value_replays": TAPE_VALUE_REPLAYS,
    "tape_fallbacks": TAPE_FALLBACKS,
    "tape_replay_seconds": TAPE_REPLAY_SECONDS,
    "tape_suffstats_active": TAPE_SUFFSTATS_ACTIVE,
    "tape_suffstats_folded_ops": TAPE_SUFFSTATS_FOLDED_OPS,
    "tape_suffstats_folded_elements": TAPE_SUFFSTATS_FOLDED_ELEMENTS,
    "tape_suffstats_demotions": TAPE_SUFFSTATS_DEMOTIONS,
}


def observe_tape_stats(
    registry: MetricsRegistry,
    deltas: Mapping,
    labels: Optional[Mapping] = None,
) -> None:
    """Add compiled-tape counter deltas to ``registry``.

    ``deltas`` may be any mapping containing (a subset of) the
    ``tape_records`` / ``tape_replays`` / ``tape_value_replays`` /
    ``tape_fallbacks`` / ``tape_replay_seconds`` / ``tape_suffstats_*``
    keys — a worker's ops payload or an in-process before/after difference
    of ``model.tape_stats()``.

    ``tape_suffstats_active`` is a gauge (its delta goes negative when a
    rewritten tape is demoted); everything else is a monotone counter.
    """
    labels = dict(labels or {})
    for key, metric in _TAPE_METRICS.items():
        amount = deltas.get(key, 0)
        if amount:
            if metric == TAPE_SUFFSTATS_ACTIVE:
                registry.gauge(metric, labels).inc(
                    float(amount)
                )
            else:
                registry.counter(metric, labels).inc(
                    float(amount)
                )


# -- parent-side merging -------------------------------------------------------


class ChainMetricsMerger:
    """Folds worker-flushed chain blocks into a registry, exactly once.

    Per ``(job, chain)`` the merger keeps the highest cumulative snapshot
    seen; an incoming block advances the registry by the difference, and a
    block at or below the watermark is dropped — its iterations were
    already counted, and by chain determinism its values are identical to
    what was counted. Operational deltas always add.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._watermarks: Dict[tuple, ChainStats] = {}

    def merge(self, job_id: str, chain_index: int, payload: Mapping) -> None:
        labels = dict(payload.get("labels", {}))
        raw_cum = payload.get("cum")
        cum = (
            ChainStats.from_dict(raw_cum) if raw_cum is not None
            else ChainStats()
        )
        key = (job_id, int(chain_index))
        prev = self._watermarks.get(key, ChainStats())
        registry = self.registry

        if cum.hi > prev.hi:
            registry.counter(SAMPLER_ITERATIONS, labels).inc(cum.hi - prev.hi)
            registry.counter(SAMPLER_WORK, labels).inc(cum.work - prev.work)
            registry.counter(
                SAMPLER_DIVERGENCES, labels
            ).inc(cum.divergences - prev.divergences)
            registry.counter(
                SAMPLER_ACCEPT, labels
            ).inc(max(cum.accept_sum - prev.accept_sum, 0.0))
            depth_hist = registry.histogram(
                SAMPLER_TREE_DEPTH, labels, buckets=TREE_DEPTH_BUCKETS,
            )
            for depth, count in cum.depth_counts.items():
                delta = count - prev.depth_counts.get(depth, 0)
                if delta > 0:
                    depth_hist.observe(float(depth), n=delta)
            if cum.step_size is not None:
                registry.gauge(SAMPLER_STEP_SIZE, labels).set(cum.step_size)
            self._watermarks[key] = cum

        ops = payload.get("ops", {})
        writes = ops.get("checkpoint_writes", 0)
        if writes:
            registry.counter(SERVE_CHECKPOINT_WRITES).inc(writes)
        cp_bytes = ops.get("checkpoint_bytes", 0)
        if cp_bytes:
            registry.counter(SERVE_CHECKPOINT_BYTES).inc(cp_bytes)
        cp_failures = ops.get("checkpoint_failures", 0)
        if cp_failures:
            registry.counter(
                RESILIENCE_DURABILITY_ERRORS, {"target": "checkpoint"},
            ).inc(cp_failures)
        seconds = ops.get("chain_seconds")
        if seconds is not None:
            registry.histogram(
                SERVE_CHAIN_SECONDS, labels, buckets=CHAIN_SECONDS_BUCKETS,
            ).observe(float(seconds))
        observe_tape_stats(registry, ops, labels=labels)

    def discard_job(self, job_id: str) -> None:
        """Drop a finished job's watermarks (the counters stay)."""
        for key in [k for k in self._watermarks if k[0] == job_id]:
            del self._watermarks[key]


# -- report-facing snapshot ----------------------------------------------------


@dataclass
class TelemetrySnapshot:
    """Everything :mod:`repro.report` needs to render a telemetry section."""

    metrics: dict
    spans: list

    @classmethod
    def capture(cls, registry, tracer) -> "TelemetrySnapshot":
        return cls(
            metrics=registry.snapshot(),
            spans=[span.to_dict() for span in tracer.spans()],
        )

    @property
    def empty(self) -> bool:
        counters = self.metrics.get("counters", [])
        gauges = self.metrics.get("gauges", [])
        histograms = self.metrics.get("histograms", [])
        return not (counters or gauges or histograms or self.spans)
