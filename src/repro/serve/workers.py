"""Chain execution for the serving layer: one protocol, two transports.

Chains are statistically independent (Algorithm 1's outer loop), so a job
is a set of chains plus a runtime stop broadcast. :func:`run_chain_group`
is the one way a chain runs: it rebuilds the model from the workload
registry, derives each chain's RNG stream through
:func:`repro.inference.chain.chain_start` — the exact code path of the
sequential driver, so draws are bit-identical to
:func:`repro.inference.run_chains` however the chains are placed — and
reports ``draws`` / ``metrics`` / ``done`` / ``error`` events while the
shared per-iteration hook streams kept draws (feeding the server's online
R-hat monitor), checkpoints sampler state, and polls the stop broadcast —
the mechanism behind mid-run convergence elision. :class:`_JobRun` is the
one place those events are acted on. :meth:`ChainWorkerPool.run_job`
connects the two: a homogeneous hmc/nuts job runs as one group in the
parent, batched across chains, its events handed over by direct call;
every other job is sharded one chain per group over worker processes, its
events carried by an ``mp.Queue``.

**Supervision** (worker transport). The parent polls the event queue on a
short interval instead of blocking, and between polls checks every worker
with ``Process.is_alive()``. Which chain a worker holds is recorded in a
shared claims array (written by the worker at task pickup, so it survives
a SIGKILL that loses any queue-buffered events). A dead worker is
respawned into the same slot and its lost chain is re-queued — resumed
from its latest checkpoint when one with sampler state exists, re-run from
scratch otherwise; either way the retried chain is bit-identical to the
lost one. Each re-queue bumps the chain's *epoch*; stale events from the
dead worker's epoch are dropped so the convergence monitor never
double-counts draws. Workers also heartbeat through the event queue, which
(optionally) catches hung-but-alive workers.

**Error taxonomy.** Because a chain's computation is a pure function of its
task, an exception raised *inside* a chain will recur on every replay — it
is reported as ``poison`` and fails the job immediately
(:class:`PoisonChainError` for the canonical case, a non-finite log-density
at the initial position). Losing the worker process, by contrast, says
nothing about the chain — that is ``transient``, retried up to
``max_chain_restarts`` times before the pool gives up. The server's retry
policy keys off this distinction via :attr:`ChainExecutionError.kinds`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.inference.chain import chain_start, resume_start
from repro.inference.engines import build_engine
from repro.inference.results import ChainResult, SamplingResult, StateCapture
from repro.telemetry.instrument import (
    SERVE_CHAIN_RETRIES,
    SERVE_WORKER_RESTARTS,
    ChainMetricsMerger,
    ChainTelemetry,
)

#: Draw-block size streamed to the monitor when elision is off: one flush at
#: the end of the chain keeps the event queue quiet.
_NO_MONITOR_INTERVAL = 1 << 30

#: Default iterations between worker metric flushes. Flushes are cumulative
#: snapshots (a few hundred bytes), so the cadence trades only freshness
#: against event-queue traffic, never correctness.
DEFAULT_METRICS_INTERVAL = 50


class PoisonChainError(RuntimeError):
    """The chain cannot make progress no matter how often it is retried.

    Canonical case: the model's log-density is non-finite at the chain's
    initial position, so every deterministic replay fails identically.
    """


@dataclass(frozen=True)
class ChainTask:
    """Everything one worker needs to run one chain of one job."""

    job_id: str
    chain_index: int
    workload: str
    scale: float
    dataset_seed: Optional[int]
    engine: str
    engine_options: Dict[str, Any]
    n_iterations: int
    n_warmup: int
    seed: int
    initial_jitter: float
    #: Kept draws per streamed block (the monitor's check granularity).
    report_interval: int = 20
    checkpoint_interval: int = 0
    checkpoint_dir: Optional[str] = None
    #: Path to a v2 checkpoint to resume from (None: start fresh).
    resume_from: Optional[str] = None
    #: Incarnation counter; bumped on every re-queue after a lost worker so
    #: the parent can tell this run's events from a dead predecessor's.
    epoch: int = 0
    #: Iterations between telemetry flushes (0 disables chain telemetry).
    metrics_interval: int = DEFAULT_METRICS_INTERVAL


class JobStoppedEarly(RuntimeError):
    """Base for the pool stopping a job on purpose, with its partial chains.

    Raised *instead of returning* so no caller can mistake the cooperative
    stop for a normal completion and store truncated chains as the job's
    authoritative (deduplicable) result. ``chains`` holds every chain in
    task order, each cut at whatever iteration it had reached when the stop
    broadcast caught it — lengths may differ across chains.
    """

    why = "stopped early"

    def __init__(self, job_id: str, chains: List[ChainResult]) -> None:
        self.job_id = job_id
        self.chains = chains
        super().__init__(f"job {job_id}: {self.why}")


class JobDeadlineExceeded(JobStoppedEarly):
    """The job's deadline lapsed mid-run; chains were stopped cooperatively."""

    why = "deadline exceeded mid-run; chains stopped cooperatively"


class JobHalted(JobStoppedEarly):
    """The pool was asked to halt (graceful drain) while this job ran."""

    why = "halted for graceful drain; chains checkpointed and stopped"


class ChainExecutionError(RuntimeError):
    """One or more chains of a job failed.

    ``kinds`` maps each failed chain to ``"poison"`` (an in-chain exception:
    deterministic, will recur on retry) or ``"transient"`` (the worker
    process was lost and the pool's restart budget ran out).
    """

    def __init__(
        self,
        job_id: str,
        tracebacks: Dict[int, str],
        kinds: Optional[Dict[int, str]] = None,
    ) -> None:
        self.job_id = job_id
        self.tracebacks = tracebacks
        self.kinds = kinds or {chain: "poison" for chain in tracebacks}
        chains = ", ".join(str(c) for c in sorted(tracebacks))
        super().__init__(
            f"job {job_id}: chain(s) {chains} failed:\n"
            + "\n".join(tb.rstrip("\n") for tb in tracebacks.values())
        )

    @property
    def poison(self) -> bool:
        """True when any failed chain fails deterministically."""
        return any(kind == "poison" for kind in self.kinds.values())

    @property
    def transient(self) -> bool:
        return not self.poison


def _load_resume_state(task: ChainTask) -> Optional[dict]:
    """The sampler state snapshot of ``task.resume_from``, if usable.

    Reads the checkpoint and asks :func:`repro.inference.chain.resume_start`
    — the one validation of a snapshot against a run — whether it fits the
    task; falls back to None, a fresh and still-deterministic re-run, when
    the file is unreadable or does not, warning so operators can see
    degraded resumes.
    """
    if not task.resume_from:
        return None
    from repro.serve.checkpoint import CheckpointStore

    record = CheckpointStore._read(Path(task.resume_from))
    if record is None or "sampler_state" not in record:
        return None
    state = record["sampler_state"]
    try:
        resume_start(state, task.engine, task.n_iterations)
    except ValueError as exc:
        warnings.warn(
            f"checkpoint {task.resume_from}: {exc}; restarting chain fresh",
            RuntimeWarning,
        )
        return None
    return state


def _iteration_hook(
    task: ChainTask,
    capture: StateCapture,
    checkpoints,
    chain_telemetry,
    emit: Optional[Callable[[np.ndarray], None]],
    stop_iteration: Optional[Callable[[], int]],
    heartbeat: Optional[Callable[[], None]] = None,
    faults=None,
):
    """The per-iteration hook of every chain, whichever evaluator drives it.

    Proves liveness, fires due injected faults, feeds chain telemetry,
    polls the stop broadcast, streams kept-draw blocks and checkpoints on
    the configured cadence — the same calls in the same order in a worker
    process and in a lane of the in-parent batched group.
    """
    pending: List[np.ndarray] = []

    def hook(t: int, draw: np.ndarray, stats: Optional[dict] = None) -> bool:
        if heartbeat is not None:
            heartbeat()
        if faults is not None:
            faults.on_iteration(t)
        if chain_telemetry is not None and stats is not None:
            chain_telemetry.observe(t, stats)
        stop = -1 if stop_iteration is None else int(stop_iteration())
        stopping = 0 <= stop <= t + 1
        last = stopping or t + 1 == task.n_iterations
        if emit is not None:
            if t + 1 > task.n_warmup:
                pending.append(draw.copy())
            if pending and (len(pending) >= task.report_interval or last):
                emit(np.asarray(pending))
                pending.clear()
        if checkpoints is not None and capture.bound and (
            (t + 1) % task.checkpoint_interval == 0 or last
        ):
            state = capture()
            try:
                path = checkpoints.save_chain(
                    task.job_id, task.chain_index,
                    samples=state["samples"],
                    iteration=t, n_warmup=task.n_warmup,
                    n_iterations=task.n_iterations,
                    logps=state["logps"],
                    work=state.get("work"),
                    tree_depths=state.get("tree_depths"),
                    sampler_state=state,
                )
            except OSError as exc:
                # A full or failing disk must not poison the chain: the
                # draws are still correct, only resumability degrades (the
                # chain falls back to an older checkpoint, or a fresh
                # deterministic re-run). Counted so operators see it.
                warnings.warn(
                    f"job {task.job_id} chain {task.chain_index}: checkpoint "
                    f"write failed ({exc}); continuing without it",
                    RuntimeWarning,
                )
                if chain_telemetry is not None:
                    chain_telemetry.count_op("checkpoint_failures", 1)
            else:
                if chain_telemetry is not None:
                    chain_telemetry.count_op("checkpoint_writes", 1)
                    try:
                        chain_telemetry.count_op(
                            "checkpoint_bytes", os.path.getsize(path)
                        )
                    except OSError:
                        pass
        return not stopping

    hook.wants_stats = chain_telemetry is not None
    return hook


def _resume_prologue(task: ChainTask, resume_state, chain_telemetry, emit) -> None:
    """Seed telemetry and re-emit the restored kept prefix on resume."""
    if resume_state is None:
        return
    if chain_telemetry is not None:
        # Reconstruct cumulative stats through the checkpoint so the resumed
        # chain's snapshots carry the same watermark values the lost run's
        # did — the merger then counts the overlap exactly once.
        chain_telemetry.seed_from_resume(resume_state)
    if emit is not None:
        # The monitor was reset for this chain; replay the restored kept
        # prefix so it sees the same stream an uninterrupted run emits.
        restored = np.asarray(resume_state["samples"])
        start = int(resume_state["t"]) + 1
        kept_prefix = restored[task.n_warmup:start]
        if len(kept_prefix):
            emit(kept_prefix.copy())


class _OpenChain(NamedTuple):
    """One opened chain: what either evaluator needs to drive it."""

    rng: np.random.Generator
    x0: np.ndarray
    #: The model the solo evaluator samples (fault-wrapped when targeted).
    model: Any
    faults: Any
    telemetry: Optional[ChainTelemetry]
    #: ``n_warmup`` / ``iteration_hook`` / ``state_capture`` /
    #: ``resume_state``, shared by ``sample_chain`` and ``sample_steps``.
    sampler_kwargs: Dict[str, Any]


def run_chain_group(
    tasks: List[ChainTask],
    send: Optional[Callable[[tuple], None]] = None,
    stop_iteration: Optional[Callable[[], int]] = None,
    heartbeat: Optional[Callable[[], None]] = None,
    registry=None,
):
    """Open the chains of one job and drive them to their endings.

    Each chain is started as the sequential driver would start it
    (:func:`chain_start`), wrapped by the fault injector, checked for a
    poisoned initial position, given the shared :func:`_iteration_hook`,
    and resumed from ``task.resume_from`` when set (re-emitting the
    restored kept prefix, so downstream monitors see the stream of an
    uninterrupted run). A group of one runs on the solo evaluator
    (``sampler.sample_chain``, any engine); a larger group must be
    homogeneous (:meth:`ChainWorkerPool._batchable`) and advances its
    chains' step generators in lockstep against one
    :class:`~repro.batch.engine.BatchedEvaluator` — each generator receives
    exactly the numbers its solo evaluation would have produced.

    ``send`` receives ``(kind, job_id, chain_index, epoch, payload)``
    events: ``draws`` (a kept block per ``report_interval`` draws),
    ``metrics`` (cumulative chain statistics per ``metrics_interval``
    iterations — mergeable across crashes and resumes without double
    counting — plus operational deltas), then per chain one ``done`` (the
    :class:`ChainResult`) or ``error`` (``("poison", traceback)``).
    ``stop_iteration()`` is polled every iteration, and a non-negative
    value stops the chain once ``t + 1`` reaches it; ``heartbeat()`` is
    called once per iteration. Nothing is decided here: stopping, halting
    and failing the job belong to whoever handles the events.

    Returns ``(chains, failures)`` by chain index: the finished results and
    the in-chain exceptions.
    """
    from repro.resilience import chaos
    from repro.serve.checkpoint import CheckpointStore
    from repro.suite import load_workload

    first = tasks[0]
    labels = {"workload": first.workload, "engine": first.engine}
    chains: Dict[int, ChainResult] = {}
    failures: Dict[int, Exception] = {}
    tape_seen: Dict[str, float] = {}
    started_at = time.monotonic()

    def event(kind: str, task: ChainTask, payload) -> None:
        if send is not None:
            send((kind, task.job_id, task.chain_index, task.epoch, payload))

    def fail(task: ChainTask, exc: Exception) -> None:
        failures[task.chain_index] = exc
        event("error", task, ("poison", traceback.format_exc()))

    def open_chain(task: ChainTask) -> _OpenChain:
        rng, x0 = chain_start(model, task.seed, task.chain_index, task.initial_jitter)
        faults = (
            None if injector is None
            else injector.for_chain(task.job_id, task.chain_index)
        )
        chain_model = model if faults is None else faults.wrap_model(model)
        # Poison detection at admission to the chain: a non-finite
        # log-density at the initial position fails every deterministic
        # replay identically, so fail fast instead of burning the retry
        # budget on sampling.
        logp0 = chain_model.logp(x0)
        if not np.isfinite(logp0):
            raise PoisonChainError(
                f"job {task.job_id} chain {task.chain_index}: non-finite "
                f"log-density ({logp0}) at the initial position"
            )
        telemetry = emit = None
        if send is not None:
            def emit(block: np.ndarray) -> None:
                event("draws", task, block)

            if task.metrics_interval > 0:
                telemetry = ChainTelemetry(
                    task.workload, task.engine,
                    lambda payload: event("metrics", task, payload),
                    flush_interval=task.metrics_interval,
                )
        capture = StateCapture()
        hook = _iteration_hook(
            task, capture,
            CheckpointStore(task.checkpoint_dir)
            if task.checkpoint_dir and task.checkpoint_interval > 0 else None,
            telemetry, emit, stop_iteration, heartbeat, faults,
        )
        resume_state = _load_resume_state(task)
        _resume_prologue(task, resume_state, telemetry, emit)
        return _OpenChain(
            rng, x0, chain_model, faults, telemetry,
            dict(n_warmup=task.n_warmup, iteration_hook=hook,
                 state_capture=capture, resume_state=resume_state),
        )

    def close(task: ChainTask, opened: _OpenChain, chain: ChainResult) -> None:
        telemetry = opened.telemetry
        if telemetry is not None:
            # One model serves the whole group, so each closing chain
            # reports the tape counters' advance since the previous close:
            # the group's totals are attributed exactly once.
            stats = getattr(model, "tape_stats", lambda: None)() or {}
            for key, value in stats.items():
                delta = value - tape_seen.get(key, 0)
                if delta:
                    telemetry.count_op(f"tape_{key}", delta)
            tape_seen.update(stats)
            telemetry.flush(final=True)
        # Wall-time is an operational delta, not a cumulative chain
        # statistic: a replayed chain genuinely spends the time again.
        event("metrics", task, {
            "labels": labels, "cum": None,
            "ops": {"chain_seconds": time.monotonic() - started_at},
        })
        chains[task.chain_index] = chain
        event("done", task, chain)

    def lane(task: ChainTask, opened: _OpenChain):
        """One chain of a batched group as a step generator whose ending
        becomes an event instead of crashing the round loop."""
        gen = sampler.sample_steps(
            opened.x0, task.n_iterations, opened.rng, **opened.sampler_kwargs,
        )
        try:
            chain = yield from (
                gen if opened.faults is None else opened.faults.wrap_steps(gen)
            )
        except Exception as exc:
            fail(task, exc)
        else:
            close(task, opened, chain)

    try:
        model = load_workload(
            first.workload, scale=first.scale, seed=first.dataset_seed
        )
        sampler = build_engine(first.engine, first.engine_options)
        injector = chaos.active()
    except Exception as exc:
        for task in tasks:
            fail(task, exc)
        return chains, failures

    batched = len(tasks) > 1
    if batched:
        from repro.batch.driver import BatchedChainDriver
        from repro.batch.engine import BatchedEvaluator

        driver = BatchedChainDriver(
            BatchedEvaluator(model, len(tasks), registry=registry, labels=labels),
            registry=registry, labels=labels,
        )
    for task in tasks:
        try:
            opened = open_chain(task)
            chain = None if batched else sampler.sample_chain(
                opened.model, opened.x0, task.n_iterations, opened.rng,
                **opened.sampler_kwargs,
            )
        except Exception as exc:
            fail(task, exc)
        else:
            if batched:
                driver.submit(task.chain_index, lane(task, opened))
            else:
                close(task, opened, chain)
    if batched:
        driver.run()
    return chains, failures


def execute_chain(
    task: ChainTask,
    emit: Optional[Callable[[int, np.ndarray], None]] = None,
    stop_iteration: Optional[Callable[[], int]] = None,
) -> ChainResult:
    """Run one chain exactly as the sequential driver would.

    The one-chain, in-process case of :func:`run_chain_group`:
    ``emit(chain_index, kept_block)`` receives the streamed draw blocks,
    ``stop_iteration()`` is the stop poll, and an in-chain exception is
    re-raised as it was.
    """
    send = None
    if emit is not None:
        def send(event: tuple) -> None:
            if event[0] == "draws":
                emit(event[2], event[4])

    chains, failures = run_chain_group([task], send, stop_iteration)
    if failures:
        raise failures[task.chain_index]
    return chains[task.chain_index]


def truncate_chain(chain: ChainResult, n_iterations: int) -> ChainResult:
    """A copy of ``chain`` cut to its first ``n_iterations`` iterations.

    The elided result: by per-iteration RNG sequencing, this equals what the
    chain would have recorded had it been stopped at that point.
    """
    if chain.n_iterations <= n_iterations:
        return chain
    return ChainResult(
        samples=chain.samples[:n_iterations].copy(),
        logps=chain.logps[:n_iterations].copy(),
        work_per_iteration=chain.work_per_iteration[:n_iterations].copy(),
        n_warmup=chain.n_warmup,
        accept_rate=chain.accept_rate,
        divergences=chain.divergences,
        tree_depths=(
            chain.tree_depths[:n_iterations].copy()
            if chain.tree_depths is not None else None
        ),
        step_size=chain.step_size,
    )


def _worker_loop(
    worker_id: int,
    tasks: mp.Queue,
    events: mp.Queue,
    stop_value,
    claims,
    heartbeat_interval: float,
) -> None:
    """Worker process main: pull chain tasks until the None sentinel.

    The worker advertises its current chain in ``claims[worker_id]``
    (``chain_index + 1``; 0 means no claim) *before* starting it and clears
    the claim only at the *next* pickup — so if the process dies after
    finishing a chain but before its ``done`` event survives the queue's
    feeder thread, the parent still knows which chain to re-run.
    """
    # A terminal Ctrl-C (e.g. stopping `repro serve --http`) signals the
    # whole foreground process group; the parent owns worker shutdown, so
    # workers ignore SIGINT instead of dying mid-chain with a traceback.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        task = tasks.get()
        if task is None:
            claims[worker_id] = 0
            return
        claims[worker_id] = task.chain_index + 1
        last_beat = [time.monotonic()]

        def heartbeat() -> None:
            now = time.monotonic()
            if now - last_beat[0] >= heartbeat_interval:
                last_beat[0] = now
                events.put((
                    "heartbeat", task.job_id, task.chain_index, task.epoch,
                    worker_id,
                ))

        run_chain_group(
            [task], events.put, lambda: stop_value.value, heartbeat
        )


class _JobRun:
    """The parent side of one running job: its state and every decision.

    :meth:`on_event` takes the events of :func:`run_chain_group` one at a
    time — off the pool's ``mp.Queue`` when the chains run in worker
    processes, by direct call when the group runs in the parent — and
    :meth:`poll` is the periodic check (the pool loop calls it between
    event waits, an in-parent group's hooks call it as their stop poll).
    ``stop`` is the broadcast every chain's hook reads through
    ``stop_iteration``: anything with a ``value`` (``-1``: keep going).
    """

    def __init__(self, pool: "ChainWorkerPool", tasks, on_draws, deadline_at, stop):
        self.pool = pool
        self.job_id = tasks[0].job_id
        self.tasks = tasks
        self.on_draws = on_draws
        self.deadline_at = deadline_at
        self.stop = stop
        stop.value = -1
        self._give_up_at = time.monotonic() + pool.job_timeout
        #: Current incarnation of each chain; events of another are stale.
        self.epochs = {task.chain_index: task.epoch for task in tasks}
        self.chains: Dict[int, ChainResult] = {}
        self.errors: Dict[int, str] = {}
        self.kinds: Dict[int, str] = {}
        #: Why the pool itself stopped the job: JobHalted,
        #: JobDeadlineExceeded or TimeoutError (None: it did not).
        self.ending: Optional[type] = None

    @property
    def outstanding(self) -> int:
        return len(self.tasks) - len(self.chains) - len(self.errors)

    def resolved(self, chain_index: int) -> bool:
        return chain_index in self.chains or chain_index in self.errors

    def on_event(self, event: tuple) -> None:
        kind, job_id, chain_index, epoch, payload = event
        if kind == "metrics":
            # No epoch filter: cumulative blocks are path-independent, so a
            # dead predecessor's buffered block merges exactly once by
            # watermark. Other jobs' blocks are dropped — their watermarks
            # may already be discarded.
            if job_id == self.job_id:
                self.pool._merger.merge(job_id, chain_index, payload)
        elif (
            job_id != self.job_id
            or epoch != self.epochs.get(chain_index)
            or self.resolved(chain_index)
        ):
            pass  # stale: a dead predecessor's buffered event
        elif kind == "draws":
            if self.on_draws is not None and not self.errors:
                stop_at = self.on_draws(chain_index, payload)
                # The elision broadcast; an earlier stop stands.
                if stop_at is not None and self.stop.value < 0:
                    self.stop.value = int(stop_at)
        elif kind == "done":
            self.chains[chain_index] = payload
        elif kind == "error":
            self.fail(chain_index, *payload)

    def fail(self, chain_index: int, kind: str, tb: str) -> None:
        self.errors[chain_index] = tb
        self.kinds[chain_index] = kind
        self.stop.value = 0  # halt the surviving chains at their next iteration

    def poll(self) -> int:
        """Apply halt, deadline and job timeout; returns the stop broadcast.

        Halt and deadline stop the chains only when no stop (elision or
        error) is already broadcast: a job whose elision fired first wins
        the race and completes normally — its result is whole.
        """
        now = time.monotonic()
        if now > self._give_up_at:
            ending = TimeoutError
        elif self.stop.value >= 0:
            return self.stop.value
        elif self.pool.halt_requested:
            ending = JobHalted
        elif self.deadline_at is not None and now >= self.deadline_at:
            ending = JobDeadlineExceeded
        else:
            return -1
        self.ending = ending
        self.stop.value = 0
        return 0

    def result(self) -> List[ChainResult]:
        """The job's ending: its chains in task order, or the exception."""
        if self.ending is TimeoutError:
            raise TimeoutError(
                f"job {self.job_id}: not finished within "
                f"{self.pool.job_timeout:.0f}s"
            )
        if self.errors:
            raise ChainExecutionError(self.job_id, self.errors, self.kinds)
        ordered = [self.chains[task.chain_index] for task in self.tasks]
        if self.ending is not None:
            raise self.ending(self.job_id, ordered)
        return ordered


class ChainWorkerPool:
    """Runs jobs one at a time, over a supervised, persistent set of
    chain-worker processes or — for a batchable job — in the parent.

    The parent blocks at most ``poll_interval`` seconds per event wait, so a
    SIGKILL'd worker is detected within about one poll interval, not at
    ``job_timeout``. ``heartbeat_timeout`` additionally reaps workers that
    are alive but silent (hung) for that long; None disables the check. A
    chain is restarted at most ``max_chain_restarts`` times per job before
    the pool reports a transient failure.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        job_timeout: float = 3600.0,
        poll_interval: float = 0.5,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: Optional[float] = None,
        max_chain_restarts: int = 2,
        registry=None,
    ) -> None:
        self.n_workers = n_workers or min(4, os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if start_method is None:
            # fork keeps startup cheap where available (Linux/macOS CLI).
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self.job_timeout = job_timeout
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_chain_restarts = max_chain_restarts
        self._procs: List[mp.Process] = []
        self._tasks = None
        self._events = None
        self._stop = None
        self._claims = None
        self._last_seen: Dict[int, float] = {}
        #: Set by :meth:`request_halt` (graceful drain): the running job is
        #: stopped cooperatively and surfaces as :class:`JobHalted`.
        self._halt = threading.Event()
        #: Worker deaths noticed by supervision since pool start.
        self.restarted_workers = 0
        if registry is None:
            from repro import telemetry

            registry = telemetry.get_registry()
        self.registry = registry
        self._merger = ChainMetricsMerger(registry)
        self._worker_restarts = registry.counter(SERVE_WORKER_RESTARTS)
        self._chain_retries = registry.counter(SERVE_CHAIN_RETRIES)

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _spawn(self, slot: int) -> None:
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                slot, self._tasks, self._events, self._stop, self._claims,
                self.heartbeat_interval,
            ),
            daemon=True,
            name=f"repro-chain-worker-{slot}",
        )
        proc.start()
        self._procs[slot] = proc
        self._last_seen[slot] = time.monotonic()

    def _ensure_started(self) -> None:
        if self._procs:
            return
        self._tasks = self._ctx.Queue()
        self._events = self._ctx.Queue()
        self._stop = self._ctx.Value("q", -1)
        self._claims = self._ctx.Array("q", self.n_workers, lock=False)
        self._procs = [None] * self.n_workers
        for slot in range(self.n_workers):
            self._spawn(slot)

    def shutdown(self) -> None:
        if not self._procs:
            return
        for _ in self._procs:
            self._tasks.put(None)
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._procs = []
        self._tasks = self._events = self._stop = self._claims = None
        self._last_seen = {}

    def request_halt(self) -> None:
        """Ask the pool to stop the in-flight job at its next iteration.

        Callable from any thread (a signal handler's worker thread, the
        gateway's drain path). The running chains take a final checkpoint
        when checkpointing is configured — the stop broadcast makes the
        next iteration their last, and the worker hook checkpoints on the
        last iteration — and :meth:`run_job` raises :class:`JobHalted`
        instead of returning, so the caller parks the job for a resumed
        re-run rather than storing a truncated result. The flag is sticky
        until :meth:`clear_halt`: jobs submitted after a halt are stopped
        immediately too.
        """
        self._halt.set()

    def clear_halt(self) -> None:
        self._halt.clear()

    @property
    def halt_requested(self) -> bool:
        return self._halt.is_set()

    def __enter__(self) -> "ChainWorkerPool":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution -------------------------------------------------------------

    def run_job(
        self,
        tasks: List[ChainTask],
        on_draws: Optional[Callable[[int, np.ndarray], Optional[int]]] = None,
        on_chain_restart: Optional[Callable[[int], None]] = None,
        deadline_at: Optional[float] = None,
    ) -> List[ChainResult]:
        """Execute one job's chains; block until every chain returns.

        Returns the chains in task order. ``on_draws(chain_index,
        kept_block)`` receives streamed draw blocks and may return an
        absolute iteration at which every chain should stop (the elision
        broadcast). Raises :class:`ChainExecutionError` if any chain failed
        (the remaining chains are halted at their next iteration first, so
        the pool stays drained and reusable), or :class:`TimeoutError` when
        the whole job exceeds ``job_timeout``.
        ``on_chain_restart(chain_index)`` fires just before a lost chain is
        re-queued, so the caller can reset any per-chain monitor state (the
        restarted chain re-emits its kept draws from the beginning or from
        its checkpoint prefix).

        ``deadline_at`` (a ``time.monotonic()`` instant) arms cooperative
        mid-run cancellation: when it lapses, the stop is broadcast — the
        same seam elision uses — whatever each chain had produced is
        collected, and :class:`JobDeadlineExceeded` carries the partial
        chains. :meth:`request_halt` works the same way but raises
        :class:`JobHalted`.
        """
        if not tasks:
            return []
        if self._batchable(tasks):
            # The whole job as one group in this process, its events handed
            # straight to the handler.
            run = _JobRun(
                self, tasks, on_draws, deadline_at, SimpleNamespace(value=-1)
            )
            run_chain_group(
                tasks, run.on_event, run.poll, registry=self.registry
            )
            return run.result()

        # One group per chain, sharded across the worker processes.
        self._ensure_started()
        run = _JobRun(self, tasks, on_draws, deadline_at, self._stop)
        now = time.monotonic()
        for slot in range(self.n_workers):
            # Workers are idle between jobs (run_job drains fully), so the
            # parent can safely clear last job's residual claims.
            self._claims[slot] = 0
            self._last_seen[slot] = now
        task_by_chain = {task.chain_index: task for task in tasks}
        restarts = dict.fromkeys(task_by_chain, 0)
        for task in tasks:
            self._tasks.put(task)

        while run.outstanding:
            try:
                event = self._events.get(timeout=self.poll_interval)
            except queue_module.Empty:
                pass
            else:
                if event[0] == "heartbeat":
                    self._last_seen[event[4]] = time.monotonic()
                else:
                    run.on_event(event)
            run.poll()
            if run.ending is TimeoutError:
                # Workers may be hung past any cooperative stop.
                self.shutdown()
                break
            for lost in self._sweep(time.monotonic(), run):
                if lost not in task_by_chain or run.resolved(lost):
                    continue
                restarts[lost] += 1
                if restarts[lost] > self.max_chain_restarts:
                    run.fail(lost, "transient", (
                        f"job {run.job_id} chain {lost}: worker lost "
                        f"{restarts[lost]} times (restart budget "
                        f"{self.max_chain_restarts}); giving up\n"
                    ))
                    continue
                run.epochs[lost] += 1
                task_by_chain[lost] = dataclasses.replace(
                    task_by_chain[lost],
                    epoch=run.epochs[lost],
                    resume_from=self._resume_path(task_by_chain[lost]),
                )
                self._chain_retries.inc()
                if on_chain_restart is not None:
                    on_chain_restart(lost)
                self._tasks.put(task_by_chain[lost])
        return run.result()

    @staticmethod
    def _batchable(tasks: List[ChainTask]) -> bool:
        """True when a job's chains run as one in-parent batched group.

        Requirements: the kill switch is on (``REPRO_BATCH=0`` routes every
        job to the process pool), the engine exposes a step generator
        (gradient-based HMC/NUTS), and the job has at least two chains
        sharing one model and sampler configuration.
        """
        from repro import batch as batch_mod

        if not batch_mod.enabled() or len(tasks) < 2:
            return False
        first = tasks[0]
        if first.engine not in ("hmc", "nuts") or first.n_iterations < 2:
            return False

        def shape(task: ChainTask) -> tuple:
            # Compared as a tuple, so a NaN jitter (the poison rehearsal)
            # shared by the job's tasks matches by identity.
            return (
                task.workload, task.scale, task.dataset_seed, task.engine,
                task.engine_options, task.n_iterations, task.n_warmup,
                task.seed, task.initial_jitter,
            )

        return all(shape(task) == shape(first) for task in tasks)

    def discard_job_metrics(self, job_id: str) -> None:
        """Drop a finished job's merge watermarks (its counters stay)."""
        self._merger.discard_job(job_id)

    def _sweep(self, now: float, run: _JobRun) -> List[int]:
        """Respawn dead/hung workers; return the chains they were holding.

        A silent worker whose claimed chain is already resolved (finished
        or failed) is merely idle — claims clear at the *next* pickup —
        not hung.
        """
        lost: List[int] = []
        for slot in range(self.n_workers):
            proc = self._procs[slot]
            if proc.is_alive():
                if (
                    self.heartbeat_timeout is not None
                    and self._claims[slot]
                    and not run.resolved(self._claims[slot] - 1)
                    and now - self._last_seen[slot] > self.heartbeat_timeout
                ):
                    # Alive but silent past the heartbeat deadline: hung.
                    proc.kill()
                    proc.join(timeout=5)
                else:
                    continue
            claim = self._claims[slot]
            self._claims[slot] = 0
            self.restarted_workers += 1
            self._worker_restarts.inc()
            self._spawn(slot)
            if claim:
                lost.append(int(claim) - 1)
        return lost

    @staticmethod
    def _resume_path(task: ChainTask) -> Optional[str]:
        if not task.checkpoint_dir or task.checkpoint_interval <= 0:
            return None
        from repro.serve.checkpoint import CheckpointStore

        return CheckpointStore(task.checkpoint_dir).resume_path(
            task.job_id, task.chain_index
        )


def chain_tasks(
    spec,
    job_id: str,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    metrics_interval: int = DEFAULT_METRICS_INTERVAL,
) -> List[ChainTask]:
    """Shard a :class:`~repro.serve.job.JobSpec` into per-chain tasks.

    With ``resume=True``, chains whose checkpoint carries sampler state pick
    up where the previous attempt stopped instead of re-running from scratch.
    ``metrics_interval`` sets the chains' telemetry flush cadence (0
    disables worker-side chain telemetry).
    """
    from repro.serve.checkpoint import CheckpointStore

    report_interval = (
        spec.check_interval if spec.elide and spec.n_chains >= 2
        else _NO_MONITOR_INTERVAL
    )
    store = (
        CheckpointStore(checkpoint_dir)
        if resume and checkpoint_dir and spec.checkpoint_interval > 0
        else None
    )
    return [
        ChainTask(
            job_id=job_id,
            chain_index=chain_index,
            workload=spec.workload,
            scale=spec.scale,
            dataset_seed=spec.dataset_seed,
            engine=spec.engine,
            engine_options=dict(spec.engine_options),
            n_iterations=spec.n_iterations,
            n_warmup=spec.resolved_warmup,
            seed=spec.seed,
            initial_jitter=spec.initial_jitter,
            report_interval=report_interval,
            checkpoint_interval=spec.checkpoint_interval,
            checkpoint_dir=checkpoint_dir,
            resume_from=(
                store.resume_path(job_id, chain_index) if store else None
            ),
            metrics_interval=metrics_interval,
        )
        for chain_index in range(spec.n_chains)
    ]


def parallel_run_chains(
    spec,
    pool: Optional[ChainWorkerPool] = None,
    job_id: str = "adhoc",
) -> SamplingResult:
    """The worker-pool equivalent of :func:`repro.inference.run_chains`.

    Runs the spec's chains in parallel with no monitor (full budget) and
    assembles the same :class:`SamplingResult` the sequential driver returns
    — bit-identical, which the determinism regression test asserts.
    """
    from repro.suite import load_workload

    owned = pool is None
    if owned:
        pool = ChainWorkerPool(n_workers=min(spec.n_chains, os.cpu_count() or 1))
    try:
        chains = pool.run_job(chain_tasks(spec, job_id))
    finally:
        if owned:
            pool.shutdown()
    model = load_workload(spec.workload, scale=spec.scale, seed=spec.dataset_seed)
    return SamplingResult(
        model_name=model.name,
        chains=chains,
        param_names=model.flat_param_names(),
    )
