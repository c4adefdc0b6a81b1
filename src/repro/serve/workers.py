"""Chain execution for the serving layer: one protocol, one transport.

Chains are statistically independent (Algorithm 1's outer loop), so a job
is a set of chains plus a runtime stop broadcast. :func:`run_chain_group`
is the one way a chain runs: it rebuilds the model from the workload
registry, derives each chain's RNG stream through
:func:`repro.inference.chain.chain_start` — the exact code path of the
sequential driver, so draws are bit-identical to
:func:`repro.inference.run_chains` however the chains are grouped — and
reports ``draws`` / ``metrics`` / ``done`` / ``error`` events while the
shared per-iteration hook streams kept draws (feeding the server's online
R-hat monitor), checkpoints sampler state, and polls the stop broadcast —
the mechanism behind mid-run convergence elision. :class:`_JobRun` is the
one place those events are acted on. :meth:`ChainWorkerPool.run_job`
connects the two: it cuts a job into *groups* — every chain of a
homogeneous job, of any engine, as one lane group, one chain per group
otherwise — and runs each group in a worker process, its events carried
back over that worker's own channel. Every group runs through the same
round loop and injects faults at the same seam, whatever its size or
engine.

**Dispatch.** Each worker process fills a *slot* with its own channel (a
duplex pipe: groups out, events back) and its own stop value. The parent
hands a group only to an idle slot and records the assignment on its side,
so it can always name what a lost worker was holding; when every slot is
busy, groups wait in one FIFO. Several jobs run at once, each blocking
only the thread that called ``run_job``: each caller waits on the channels
of the slots holding its job's groups and acts only on those slots. No
process writes another's channel, so nothing a killed process held can
stall another slot.

**Supervision.** A caller waits for its channels on a short interval
instead of blocking, and between waits checks its slots with
``Process.is_alive()``. A channel that cannot be read (EOF once its worker
died, a torn or unreadable frame) loses its worker just as a dead process
does. A lost worker is respawned into the same slot with a fresh channel
and its group's unresolved chains are re-sent there — resumed from their
latest checkpoints when ones with sampler state exist, re-run from scratch
otherwise; either way the retried chains are bit-identical to the lost
ones, and only that slot's chains pay for it. Each re-send bumps the
chains' *epoch*. Workers also heartbeat over their channel, which
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
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.inference.chain import chain_start, resume_start
from repro.inference.engines import build_engine
from repro.inference.results import ChainResult, StateCapture
from repro.telemetry.instrument import (
    FLUSH_INTERVAL,
    SERVE_CHAIN_RETRIES,
    SERVE_WORKER_RESTARTS,
    ChainMetricsMerger,
    ChainTelemetry,
    group_counters,
)

#: Draw-block size streamed to the monitor when elision is off: one flush at
#: the end of the chain keeps the channel quiet.
_NO_MONITOR_INTERVAL = 1 << 30


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
    metrics_interval: int = FLUSH_INTERVAL


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

    ``kinds`` maps each failed chain to ``"poison"`` (an in-chain exception,
    or one a caller's callback raised on the chain's draws: deterministic,
    will recur on retry) or ``"transient"`` (the worker process was lost and
    the pool's restart budget ran out).
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
    the configured cadence — the same calls in the same order whether the
    chain runs alone or as a lane of a batched group.
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


def run_chain_group(
    tasks: List[ChainTask],
    send: Optional[Callable[[tuple], None]] = None,
    stop_iteration: Optional[Callable[[], int]] = None,
    heartbeat: Optional[Callable[[], None]] = None,
):
    """Open the chains of one job and drive them to their endings.

    Each chain is started as the sequential driver would start it
    (:func:`chain_start`), checked for a poisoned initial position, given
    the shared :func:`_iteration_hook`, and resumed from
    ``task.resume_from`` when set (re-emitting the restored kept prefix, so
    downstream monitors see the stream of an uninterrupted run). Every
    group, a group of one included, then runs its chains' fault-wrapped
    step generators in the rounds of one
    :class:`~repro.batch.driver.BatchedChainDriver`, opened by
    :meth:`~repro.batch.driver.BatchedChainDriver.for_group` — its lanes
    answered as :func:`~repro.batch.driver.lane_evaluator` picks, an MH
    group's widened to ``depth`` per chain where
    :func:`~repro.batch.driver.wide_pays` prices that cheaper — each generator receiving exactly the numbers its solo
    evaluation would have produced.

    ``send`` receives ``(kind, job_id, chain_index, epoch, payload)``
    events: ``draws`` (a kept block per ``report_interval`` draws),
    ``metrics`` (cumulative chain statistics per ``metrics_interval``
    iterations — mergeable across crashes and resumes without double
    counting — plus operational deltas, among them the advance of the
    group's tape and batch counters at each chain's close), then per chain
    one ``done`` (the :class:`ChainResult`) or ``error`` (``("poison",
    traceback)``). Chains close in chain-index order: a lane that runs
    out early sends its final ``metrics`` and ``done`` once the lanes
    before it have ended.
    ``stop_iteration()`` is polled every iteration, and a non-negative
    value stops the chain once ``t + 1`` reaches it; ``heartbeat()`` is
    called once per iteration. Nothing is decided here: stopping, halting
    and failing the job belong to whoever handles the events.

    Returns ``(chains, failures)`` by chain index: the finished results and
    the in-chain exceptions.
    """
    from repro.batch.driver import BatchedChainDriver
    from repro.resilience import chaos
    from repro.serve.checkpoint import CheckpointStore
    from repro.suite import load_workload

    first = tasks[0]
    labels = {"workload": first.workload, "engine": first.engine}
    chains: Dict[int, ChainResult] = {}
    failures: Dict[int, Exception] = {}
    started_at = time.monotonic()

    def event(kind: str, task: ChainTask, payload) -> None:
        if send is not None:
            send((kind, task.job_id, task.chain_index, task.epoch, payload))

    def fail(task: ChainTask, exc: Exception) -> None:
        failures[task.chain_index] = exc
        event("error", task, ("poison", traceback.format_exc()))

    def open_chain(task: ChainTask):
        """The chain's lane: its step generator, fault-wrapped, whose
        ending becomes an event instead of crashing the round loop."""
        rng, x0 = chain_start(model, task.seed, task.chain_index, task.initial_jitter)
        faults = (
            None if injector is None
            else injector.for_chain(task.job_id, task.chain_index)
        )
        # Poison detection at admission to the chain: a non-finite
        # log-density at the initial position fails every deterministic
        # replay identically, so fail fast instead of burning the retry
        # budget on sampling. An injected NaN follows the faults' own rule
        # for the initial evaluation.
        logp0 = model.logp(x0)
        if faults is not None:
            logp0 = faults.poison(logp0)
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
        gen = sampler.sample_steps(
            x0, task.n_iterations, rng, task.n_warmup, hook, capture,
            resume_state, depth=driver.depth,
        )
        if faults is not None:
            start = -1 if resume_state is None else resume_start(
                resume_state, task.engine, task.n_iterations,
            )
            gen = faults.wrap_steps(gen, start)
        return lane(task, gen, telemetry)

    def lane(task: ChainTask, gen, telemetry: Optional[ChainTelemetry]):
        try:
            chain = yield from gen
        except Exception as exc:
            fail(task, exc)
            ended(task)
        else:
            ended(task, lambda: close(task, telemetry, chain))

    # Lanes run out in whatever order their evaluations do (a slice or
    # NUTS chain spends its own number per iteration), but a group closes
    # its chains in chain-index order, as run_chains does: a finished
    # lane waits for the lanes before it, so the last-writer step-size
    # gauge holds the last chain's value. A failure is reported at once.
    endings: Dict[int, Callable[[], None]] = {}
    waiting = [task.chain_index for task in tasks]

    def ended(task: ChainTask, action: Callable[[], None] = lambda: None):
        endings[task.chain_index] = action
        while waiting and waiting[0] in endings:
            endings.pop(waiting.pop(0))()

    def close(task: ChainTask, telemetry, chain: ChainResult) -> None:
        if telemetry is not None:
            if driver.counters():
                telemetry.count_op("batch_chains", 1)
            telemetry.close(group_counters(model, driver), seen)
        # Wall-time is an operational delta, not a cumulative chain
        # statistic: a replayed chain genuinely spends the time again.
        event("metrics", task, {
            "labels": labels, "cum": None,
            "ops": {"chain_seconds": time.monotonic() - started_at},
        })
        chains[task.chain_index] = chain
        event("done", task, chain)

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
    seen = group_counters(model)

    driver = BatchedChainDriver.for_group(
        model, sampler, len(tasks), first.n_iterations,
    )
    for task in tasks:
        try:
            gen = open_chain(task)
        except Exception as exc:
            fail(task, exc)
            ended(task)
        else:
            driver.submit(task.chain_index, gen)
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
    slot: int,
    channel: connection.Connection,
    stops,
    heartbeat_interval: float,
) -> None:
    """Worker process main: run the groups ``channel`` brings until None.

    The parent hands a slot a group only while the slot is idle, and
    records the assignment on its own side, so a worker dies holding
    nothing the parent cannot name. Events go back over the same channel,
    sent from the sampling thread. ``stops[slot]`` is this slot's stop
    broadcast.
    """
    # A terminal Ctrl-C (e.g. stopping `repro serve --http`) signals the
    # whole foreground process group; the parent owns worker shutdown, so
    # workers ignore SIGINT instead of dying mid-chain with a traceback.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        tasks = channel.recv()
        if tasks is None:
            return
        first = tasks[0]
        last_beat = [time.monotonic()]

        def heartbeat() -> None:
            now = time.monotonic()
            if now - last_beat[0] >= heartbeat_interval:
                last_beat[0] = now
                channel.send((
                    "heartbeat", first.job_id, first.chain_index, first.epoch,
                    None,
                ))

        run_chain_group(tasks, channel.send, lambda: stops[slot], heartbeat)


class _JobRun:
    """The parent side of one running job: its state and every decision.

    :meth:`on_event` takes the events of :func:`run_chain_group` that the
    job's slots send, one at a time, and :meth:`poll` is the periodic
    check; both run on the thread that called
    :meth:`ChainWorkerPool.run_job`. ``stop`` is the job's stop broadcast
    (``-1``: keep going), which the pool copies to every slot holding one
    of the job's groups.
    """

    def __init__(
        self, pool: "ChainWorkerPool", tasks, on_draws, on_chain_restart,
        deadline_at,
    ):
        self.pool = pool
        self.job_id = tasks[0].job_id
        self.tasks = tasks
        self.on_draws = on_draws
        self.on_chain_restart = on_chain_restart
        self.deadline_at = deadline_at
        self.stop = -1
        #: Written by whichever thread hands one of the job's groups to a
        #: slot, so the caller waiting on its other slots reads that one
        #: at once.
        self.wake, self.waker = connection.Pipe(duplex=False)
        self._give_up_at = time.monotonic() + pool.job_timeout
        #: Current incarnation of each chain; events of another epoch are
        #: stale.
        self.current = {task.chain_index: task for task in tasks}
        #: Times each chain's worker was lost.
        self.restarts = dict.fromkeys(self.current, 0)
        self.chains: Dict[int, ChainResult] = {}
        #: Chains whose current incarnation no worker runs any more.
        self.ended: set = set()
        self.errors: Dict[int, str] = {}
        self.kinds: Dict[int, str] = {}
        #: Why the pool itself stopped the job: JobHalted,
        #: JobDeadlineExceeded or TimeoutError (None: it did not).
        self.ending: Optional[type] = None

    @property
    def outstanding(self) -> int:
        return len(self.tasks) - len(self.ended)

    @property
    def over(self) -> bool:
        """Every chain resolved — or the job timed out, which waits for
        nothing."""
        return not self.outstanding or self.ending is TimeoutError

    def resolved(self, chain_index: int) -> bool:
        return chain_index in self.ended

    def on_event(self, event: tuple) -> None:
        kind, _, chain_index, epoch, payload = event
        if kind == "metrics":
            # No epoch filter: cumulative blocks are path-independent, so a
            # dead predecessor's buffered block merges exactly once by
            # watermark.
            self.pool._merger.merge(self.job_id, chain_index, payload)
        elif (
            epoch != self.current[chain_index].epoch
            or self.resolved(chain_index)
        ):
            pass  # not the chain's live incarnation
        elif kind == "draws":
            if self.on_draws is not None and not self.errors:
                stop_at = self.call(chain_index, self.on_draws, payload)
                # The elision broadcast; an earlier stop stands.
                if stop_at is not None and self.stop < 0:
                    self.stop = int(stop_at)
        elif kind == "done":
            # A chain failed by the parent ran on until this stop.
            if chain_index not in self.errors:
                self.chains[chain_index] = payload
            self.ended.add(chain_index)
        elif kind == "error":
            self.ended.add(chain_index)
            self.fail(chain_index, *payload)

    def fail(self, chain_index: int, kind: str, tb: str) -> None:
        self.errors[chain_index] = tb
        self.kinds[chain_index] = kind
        self.stop = 0  # halt the surviving chains at their next iteration

    def call(self, chain_index: int, callback: Callable, *args):
        """Run one of the caller's callbacks for ``chain_index``.

        An exception fails the job as ``poison`` like an in-chain error,
        and the stop goes out: the still-running chains end at their next
        iteration, so their worker is not killed and serves the next job.
        """
        try:
            return callback(chain_index, *args)
        except Exception:
            self.fail(chain_index, "poison", traceback.format_exc())
            return None

    def poll(self) -> None:
        """Apply halt, deadline and job timeout to the stop broadcast.

        Halt and deadline stop the chains only when no stop (elision or
        error) is already broadcast: a job whose elision fired first wins
        the race and completes normally — its result is whole.
        """
        if self.ending is TimeoutError:
            return
        now = time.monotonic()
        if now > self._give_up_at:
            self.ending = TimeoutError
        elif self.stop >= 0:
            return
        elif self.pool.halt_requested:
            self.ending = JobHalted
        elif self.deadline_at is not None and now >= self.deadline_at:
            self.ending = JobDeadlineExceeded
        else:
            return
        self.stop = 0

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


class _Slot:
    """One worker process, its channel, and the group the parent handed it."""

    def __init__(self, proc, channel) -> None:
        self.proc = proc
        #: The parent's end of the worker's duplex pipe: groups go out on
        #: it and the worker's events come back, read only by the thread
        #: whose job the slot is running.
        self.channel = channel
        #: When the worker last sent anything (or was handed a group).
        self.last_seen = time.monotonic()
        #: The job whose ``group`` this slot is running (None: idle).
        self.run: Optional[_JobRun] = None
        self.group: List[ChainTask] = []

    def read(self) -> None:
        """Hand the events waiting on the channel to the slot's job.

        One that cannot be read — EOF once the worker died, a torn or
        unreadable frame — loses the worker, as a dead process does: it is
        killed here, and supervision respawns the slot and re-sends its
        unresolved chains.
        """
        while True:
            try:
                event = self.channel.recv()
            except Exception:
                self.proc.kill()
                self.proc.join(timeout=5)
                return
            self.last_seen = time.monotonic()
            self.run.on_event(event)
            if not self.channel.poll():
                return

    def unresolved(self) -> List[ChainTask]:
        return [
            task for task in self.group
            if not self.run.resolved(task.chain_index)
        ]


class ChainWorkerPool:
    """Runs jobs over a supervised, persistent set of chain-worker
    processes, one group per worker, as many jobs at once as callers.

    A caller blocks at most ``poll_interval`` seconds per wait on its
    slots' channels; a SIGKILL'd worker's channel reads as EOF at once, and
    a dead process is noticed within one poll interval in any case, not at
    ``job_timeout``. ``heartbeat_timeout`` additionally reaps workers that
    are alive but silent (hung) for that long; None disables the check. A
    chain is restarted at most ``max_chain_restarts`` times per job before
    the pool reports a transient failure.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        job_timeout: float = 3600.0,
        poll_interval: float = 0.5,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: Optional[float] = None,
        max_chain_restarts: int = 2,
        registry=None,
    ) -> None:
        self.n_workers = (
            min(4, os.cpu_count() or 1) if n_workers is None else n_workers
        )
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        # fork keeps startup cheap where available (Linux/macOS CLI).
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self.job_timeout = job_timeout
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_chain_restarts = max_chain_restarts
        #: Guards the slots, the waiting groups and the running jobs.
        self._lock = threading.Lock()
        self._slots: List[_Slot] = []
        #: One stop broadcast per slot.
        self._stops = None
        #: Groups no slot was free for, oldest first: ``(run, tasks)``.
        self._waiting: deque = deque()
        #: The jobs in flight, by id.
        self._runs: Dict[str, _JobRun] = {}
        #: Set by :meth:`request_halt` (graceful drain): running jobs are
        #: stopped cooperatively and surface as :class:`JobHalted`.
        self._halt = threading.Event()
        #: Called by :meth:`clear_halt`: a server wakes its job queue.
        self.on_halt_cleared: Callable[[], None] = lambda: None
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
        return bool(self._slots)

    def _spawn(self, index: int) -> _Slot:
        """A worker process for slot ``index`` with a fresh channel. The
        parent closes its copy of the worker's end once the worker has
        started, so the channel reads as EOF when the worker dies."""
        channel, worker_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(index, worker_end, self._stops, self.heartbeat_interval),
            daemon=True,
            name=f"repro-chain-worker-{index}",
        )
        proc.start()
        worker_end.close()
        return _Slot(proc, channel)

    def _ensure_started(self) -> None:
        with self._lock:
            if self._slots:
                return
            self._stops = self._ctx.Array("q", self.n_workers, lock=False)
            self._slots = [
                self._spawn(index) for index in range(self.n_workers)
            ]

    def shutdown(self) -> None:
        with self._lock:
            slots, self._slots = self._slots, []
        if not slots:
            return
        for slot in slots:
            try:
                slot.channel.send(None)
            except OSError:
                pass  # the worker is gone already
        for slot in slots:
            slot.proc.join(timeout=10)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5)
        self._stops = None

    def request_halt(self) -> None:
        """Ask the pool to stop every job in flight at its next iteration.

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
        self.on_halt_cleared()

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

        Safe to call from several threads at once: each call blocks only
        its caller, and its callbacks run on that caller's thread. Returns
        the chains in task order. ``on_draws(chain_index, kept_block)``
        receives streamed draw blocks and may return an absolute iteration
        at which every chain should stop (the elision broadcast). Raises
        :class:`ChainExecutionError` if any chain failed or a callback
        raised (a ``poison`` failure of its chain; the remaining chains are
        halted at their next iteration first, so the pool stays drained and
        reusable), or :class:`TimeoutError` when the whole job
        exceeds ``job_timeout`` (its workers are then killed and
        respawned; other jobs' are not touched).
        ``on_chain_restart(chain_index)`` fires just after a lost chain is
        re-sent, before any of its new events are handled, so the caller
        can reset any per-chain monitor state (the restarted chain
        re-emits its kept draws from the beginning or from its checkpoint
        prefix).

        ``deadline_at`` (a ``time.monotonic()`` instant) arms cooperative
        mid-run cancellation: when it lapses, the stop is broadcast — the
        same seam elision uses — whatever each chain had produced is
        collected, and :class:`JobDeadlineExceeded` carries the partial
        chains. :meth:`request_halt` works the same way but raises
        :class:`JobHalted`.
        """
        if not tasks:
            return []
        self._ensure_started()
        run = self._open(tasks, on_draws, on_chain_restart, deadline_at)
        try:
            while not run.over:
                self._step(run, self.poll_interval)
        finally:
            self._close(run)
        return run.result()

    def _step(self, run: _JobRun, timeout: float) -> None:
        """One turn of a caller's loop: wait up to ``timeout`` for the
        channels of the slots holding its job's groups, handle what they
        carry, apply the job's polls, and supervise its slots."""
        with self._lock:
            slots = [slot for slot in self._slots if slot.run is run]
        ready = connection.wait(
            [run.wake] + [slot.channel for slot in slots], timeout
        )
        while run.wake.poll():
            run.wake.recv_bytes()
        for slot in slots:
            if slot.channel in ready:
                slot.read()
        run.poll()
        if not self.started:
            raise ConnectionError(
                f"job {run.job_id}: worker pool shut down mid-run"
            )
        self._supervise(run)

    def _open(self, tasks, on_draws, on_chain_restart, deadline_at) -> _JobRun:
        """Register a job and queue its groups (a batchable job is one
        group, anything else one group per chain); returns its run."""
        run = _JobRun(self, tasks, on_draws, on_chain_restart, deadline_at)
        # A halt or a lapsed deadline goes out with the first dispatch.
        run.poll()
        groups = (
            [tasks] if self._batchable(tasks) else [[task] for task in tasks]
        )
        with self._lock:
            if run.job_id in self._runs:
                raise ValueError(f"job {run.job_id} is already running")
            self._runs[run.job_id] = run
            self._waiting.extend((run, group) for group in groups)
            self._dispatch()
        return run

    def _close(self, run: _JobRun) -> None:
        """Forget a finished job: drop its waiting groups, free its slots,
        kill and respawn any slot still running its chains (a job that
        timed out may be hung past any cooperative stop), and close its
        wake pipe."""
        with self._lock:
            del self._runs[run.job_id]
            self._waiting = deque(
                item for item in self._waiting if item[0] is not run
            )
            for index, slot in enumerate(self._slots):
                if slot.run is not run:
                    continue
                if slot.unresolved():
                    slot.proc.kill()
                    slot.proc.join(timeout=5)
                    self._slots[index] = self._spawn(index)
                else:
                    slot.run, slot.group = None, []
            self._dispatch()
        run.wake.close()
        run.waker.close()

    def _assign(self, index: int, run: _JobRun, group: List[ChainTask]) -> None:
        """Hand ``group`` to slot ``index`` (lock held, slot idle) and wake
        the job's caller, which may be waiting on its other slots."""
        slot = self._slots[index]
        slot.run, slot.group = run, group
        self._stops[index] = run.stop
        slot.last_seen = time.monotonic()
        try:
            slot.channel.send(group)
        except OSError:
            pass  # died idle: supervision respawns it and re-sends the group
        run.waker.send_bytes(b"")

    def _dispatch(self) -> None:
        """Hand waiting groups, oldest first, to idle slots (lock held)."""
        for index, slot in enumerate(self._slots):
            if not self._waiting:
                return
            if slot.run is not None:
                continue
            if not slot.proc.is_alive():
                # Died idle: nothing to re-run, just a worker to replace.
                self._count_restart()
                self._slots[index] = self._spawn(index)
            self._assign(index, *self._waiting.popleft())

    def _supervise(self, run: _JobRun) -> None:
        """Act on the slots holding ``run``'s groups: copy its stop
        broadcast to them, free those whose chains have all resolved, and
        respawn dead or hung ones, re-sending what they held; then hand
        waiting groups to idle slots."""
        now = time.monotonic()
        resent: List[int] = []
        with self._lock:
            for index, slot in enumerate(self._slots):
                if slot.run is not run:
                    continue
                lost = slot.unresolved()
                if not lost:
                    slot.run, slot.group = None, []
                    continue
                self._stops[index] = run.stop
                if slot.proc.is_alive():
                    silent = now - slot.last_seen
                    if (
                        self.heartbeat_timeout is None
                        or silent <= self.heartbeat_timeout
                    ):
                        continue
                    # Alive but silent past the heartbeat deadline: hung.
                    slot.proc.kill()
                    slot.proc.join(timeout=5)
                self._count_restart()
                self._slots[index] = self._spawn(index)
                retry = self._retry(run, lost)
                if retry:
                    self._assign(index, run, retry)
                    resent.extend(task.chain_index for task in retry)
            self._dispatch()
        if run.on_chain_restart is not None:
            for chain_index in resent:
                run.call(chain_index, run.on_chain_restart)

    def _retry(self, run: _JobRun, lost: List[ChainTask]) -> List[ChainTask]:
        """The next incarnations of a lost group's chains: resumed from
        their checkpoints, one epoch on — or failed as ``transient`` once a
        chain has used up its restart budget."""
        retry = []
        for task in lost:
            chain_index = task.chain_index
            run.restarts[chain_index] += 1
            if run.restarts[chain_index] > self.max_chain_restarts:
                run.ended.add(chain_index)
                run.fail(chain_index, "transient", (
                    f"job {run.job_id} chain {chain_index}: worker lost "
                    f"{run.restarts[chain_index]} times (restart budget "
                    f"{self.max_chain_restarts}); giving up\n"
                ))
                continue
            task = dataclasses.replace(
                task, epoch=task.epoch + 1, resume_from=self._resume_path(task),
            )
            run.current[chain_index] = task
            self._chain_retries.inc()
            retry.append(task)
        return retry

    def _count_restart(self) -> None:
        self.restarted_workers += 1
        self._worker_restarts.inc()

    @staticmethod
    def _batchable(tasks: List[ChainTask]) -> bool:
        """True when a job's chains run as one lane group, whatever the
        engine: HMC and NUTS lanes replay value and gradient, MH and slice
        lanes the value program.

        Requirements: the kill switch is on (``REPRO_BATCH=0`` gives every
        chain a group of its own), and the job has at least two chains
        sharing one model and sampler configuration. One group, not one
        per free worker: with as many callers as workers a job split over
        the idle ones leaves the next caller's job waiting, and two
        half-width groups cost more CPU than one (``docs/serving.md``).
        """
        from repro import batch as batch_mod

        if not batch_mod.enabled() or len(tasks) < 2:
            return False
        first = tasks[0]
        if first.n_iterations < 2:
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
    metrics_interval: int = FLUSH_INTERVAL,
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
