"""Fault injection for the serving stack: one plan, one injector.

Real crashes, full disks and flaky networks are timing-dependent and hard
to script; this module makes them deterministic. A *plan* is a JSON list
of :class:`ChaosFault` entries whose path travels through the
``REPRO_CHAOS`` environment variable, which ``fork`` and ``spawn`` worker
processes inherit. Ten kinds, fired from named hook points:

*Chain faults* target one ``(job_id, chain_index)`` (None matches any) at
one ``iteration`` and fire from the shared per-iteration hook of
:mod:`repro.serve.workers` — identically whether the chain runs alone in
its pool worker or as a lane of a batched group:

* ``raise`` — raise :class:`InjectedFaultError` inside the chain (an
  in-chain software bug: deterministic, therefore poison);
* ``nan_logp`` — NaN log-density (and gradient) for that chain from
  iteration ``k`` on (``k = -1`` poisons the initial evaluation), injected
  at the step-generator boundary (:meth:`ChainFaults.wrap_steps`) whatever
  evaluator answers the chain. Persistent: ignores ``max_fires``;
* ``hang`` — sleep ``seconds`` inside the hook, in whichever process hosts
  the chain;
* ``kill`` — SIGKILL the hosting process (an OOM kill or hardware loss:
  nothing is flushed, queues may lose buffered events).

*I/O faults* fire inside whichever process performs the operation:

* ``enospc`` — raise ``OSError(ENOSPC)`` from the durability write named by
  ``target`` (``filequeue``, ``checkpoint``, ``store``, ``guide``);
* ``http_5xx`` / ``conn_drop`` / ``delay`` — fail, drop or stall
  (``seconds``) a gateway request; ``target`` optionally restricts to one
  route template (e.g. ``/v1/jobs/{id}/events``);
* ``sse_truncate`` — cut an SSE stream after ``after_events`` events
  without a terminal event (a half-open stream);
* ``lease_expire`` — make a fleet replica observe its shard lease as lost
  at the next fence check (``target``: the shard index as a string).

Every kind but ``nan_logp`` fires at most ``max_fires`` times *across
processes*: a respawned worker replaying the same chain must not re-trip
the fault, or nothing would ever recover. Once-semantics use
``O_CREAT | O_EXCL`` sentinel files next to the plan — whichever process
creates the sentinel first owns the firing.

With no plan installed :func:`active` is one ``os.environ`` lookup and
every hook point a ``None`` check. The module ships in the package (not
the test tree) so operators can rehearse failure handling against a live
service the same way the test suites do.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.durable import atomic_write

#: Environment variable carrying the plan path into processes.
ENV_VAR = "REPRO_CHAOS"

#: Kinds fired from the per-iteration chain hook.
CHAIN_KINDS = ("kill", "raise", "hang", "nan_logp")

CHAOS_KINDS = CHAIN_KINDS + (
    "enospc", "http_5xx", "conn_drop", "delay", "sse_truncate",
    "lease_expire",
)

#: Valid ``target`` values for ``enospc`` faults.
DISK_TARGETS = ("filequeue", "checkpoint", "store", "guide")


class InjectedFaultError(RuntimeError):
    """Raised inside a chain by a ``raise`` fault."""


@dataclass(frozen=True)
class ChaosFault:
    """One scripted failure."""

    kind: str
    #: Chain kinds: the iteration at which to fire (0-based, warmup
    #: included). ``-1`` with ``nan_logp`` poisons the initial evaluation.
    iteration: int = 0
    #: Chain kinds: restrict to one job id / chain (None matches every one).
    job_id: Optional[str] = None
    chain_index: Optional[int] = None
    #: ``enospc``: the durability path to fail. HTTP kinds: the route
    #: template. ``lease_expire``: the shard index (None matches any).
    target: Optional[str] = None
    #: ``hang`` / ``delay``: how long to sleep (default 3600 s / 0.5 s).
    seconds: Optional[float] = None
    #: ``sse_truncate`` only: cut the stream after this many events.
    after_events: int = 1
    #: Fire at most this many times across all processes.
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; one of {CHAOS_KINDS}"
            )
        if self.kind == "enospc" and self.target not in DISK_TARGETS:
            raise ValueError(
                f"enospc target {self.target!r}; one of {DISK_TARGETS}"
            )
        if self.max_fires < 1:
            raise ValueError("max_fires must be >= 1")
        if self.seconds is None:
            object.__setattr__(
                self, "seconds", 3600.0 if self.kind == "hang" else 0.5
            )


class ChainFaults:
    """The chain-side hook points, bound to one ``(job, chain)``.

    Built by :meth:`ChaosInjector.for_chain` from the plan entries that
    match the chain, so a chain no fault targets carries ``None`` and pays
    one ``None`` check per iteration even while a plan is armed.
    """

    def __init__(
        self,
        injector: "ChaosInjector",
        job_id: str,
        chain_index: int,
        faults: Sequence[Tuple[int, ChaosFault]],
    ) -> None:
        self._injector = injector
        self._where = f"job {job_id} chain {chain_index}"
        self._one_shot = [(i, f) for i, f in faults if f.kind != "nan_logp"]
        nan_from = [f.iteration for _, f in faults if f.kind == "nan_logp"]
        self._nan_from = min(nan_from) if nan_from else None
        #: The iteration whose evaluations are in flight; ``-1`` is the
        #: pre-loop evaluation of the initial position.
        self._t = -1

    def on_iteration(self, t: int) -> None:
        """Called once per finished iteration ``t``: fire what is due."""
        self._t = t + 1
        for index, fault in self._one_shot:
            if fault.iteration != t or not self._injector._claim(index, fault):
                continue
            if fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault.kind == "raise":
                raise InjectedFaultError(
                    f"injected fault: {self._where} iteration {t}"
                )
            else:
                time.sleep(fault.seconds)

    # -- the evaluation seam for nan_logp ----------------------------------

    def poison(self, answer, t: Optional[int] = None):
        """An evaluation's answer as evaluated, or NaN if it serves the
        poison iteration or a later one — iteration ``t``, by default the
        one in flight: a NaN value, or an all-NaN ``(logp, grad)`` pair."""
        if t is None:
            t = self._t
        if self._nan_from is None or t < self._nan_from:
            return answer
        if not isinstance(answer, tuple):
            return float("nan")
        grad = np.asarray(answer[1], dtype=float)
        return float("nan"), np.full_like(grad, np.nan)

    def wrap_steps(self, gen, start: int = -1):
        """The step generator a driver should hold, whatever answers its
        lane: the model stays clean and this chain's answers are poisoned
        on the way in, at the generator boundary. ``start`` is the
        iteration its first request serves: ``-1``, the initial
        evaluation, or a resumed chain's first iteration."""
        self._t = start
        return gen if self._nan_from is None else self._poison_steps(gen)

    def _poison_steps(self, gen):
        result = None
        while True:
            try:
                request = gen.send(result)
            except StopIteration as stop:
                return stop.value
            result = yield request
            if isinstance(result, list):
                # Row j of a block serves iteration _t + j. In place: the
                # driver's answer list counts the rows the chain uses.
                for j, answer in enumerate(result):
                    result[j] = self.poison(answer, self._t + j)
            else:
                result = self.poison(result)


class ChaosInjector:
    """Evaluates a plan inside one process."""

    def __init__(
        self, faults: List[ChaosFault], plan_path: Optional[str] = None
    ) -> None:
        self.faults = faults
        self.plan_path = plan_path

    def _claim(self, index: int, fault: ChaosFault) -> bool:
        """Atomically claim one firing of fault ``index``; False when spent."""
        if self.plan_path is None:
            return True
        for n in range(fault.max_fires):
            sentinel = f"{self.plan_path}.fired-{index}-{n}"
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def _fire(
        self, kinds: Tuple[str, ...], target: Optional[str] = None
    ) -> Optional[ChaosFault]:
        """Claim the first unspent fault of ``kinds`` aimed at ``target``
        (a fault without a target matches every one)."""
        for index, fault in enumerate(self.faults):
            if (
                fault.kind in kinds
                and fault.target in (None, target)
                and self._claim(index, fault)
            ):
                return fault
        return None

    # -- hook points -------------------------------------------------------

    def for_chain(self, job_id: str, chain_index: int) -> Optional[ChainFaults]:
        """The chain hook points for one chain (None: nothing targets it)."""
        mine = [
            (index, fault)
            for index, fault in enumerate(self.faults)
            if fault.kind in CHAIN_KINDS
            and fault.job_id in (None, job_id)
            and fault.chain_index in (None, chain_index)
        ]
        return ChainFaults(self, job_id, chain_index, mine) if mine else None

    def fail_write(self, target: str) -> None:
        """Raise ``OSError(ENOSPC)`` if an ``enospc`` fault claims this
        write; otherwise return normally."""
        if self._fire(("enospc",), target) is not None:
            raise OSError(
                errno.ENOSPC,
                f"injected chaos: no space left on device ({target})",
            )

    def http_fault(self, route: str) -> Optional[ChaosFault]:
        """Claim at most one HTTP-side fault for this request."""
        return self._fire(("http_5xx", "conn_drop", "delay"), route)

    def sse_fault(self) -> Optional[ChaosFault]:
        """Claim at most one ``sse_truncate`` fault for this stream."""
        return self._fire(("sse_truncate",))

    def lease_fault(self, shard: int) -> bool:
        """True when a ``lease_expire`` fault claims this shard's fence
        check — the holder must then behave exactly as if its lease had
        expired under it (raise, stop draining, let a successor claim)."""
        return self._fire(("lease_expire",), str(shard)) is not None


# -- process-wide lookup -------------------------------------------------------

#: Identity (path, inode, mtime, size) of the plan file last parsed, and its
#: injector: an installed plan is parsed once per process per version.
_cache: Tuple[Optional[tuple], Optional[ChaosInjector]] = (None, None)


def active() -> Optional[ChaosInjector]:
    """The process's current injector (or None when no plan is armed).

    A plan file that does not exist yet is looked for again on the next
    call, so a plan written after :func:`installed` still arms; a vanished
    or malformed plan disables injection rather than breaking the service
    for a reason unrelated to the experiment.
    """
    global _cache
    plan_path = os.environ.get(ENV_VAR)
    if not plan_path:
        return None
    try:
        stat = os.stat(plan_path)
    except OSError:
        return None
    key = (plan_path, stat.st_ino, stat.st_mtime_ns, stat.st_size)
    if key != _cache[0]:
        try:
            injector = ChaosInjector(read_plan(plan_path), plan_path)
        except (OSError, ValueError):
            injector = None
        _cache = (key, injector)
    return _cache[1]


def check_write(target: str) -> None:
    """Durability-write hook: no-op unless an installed plan fails it."""
    injector = active()
    if injector is not None:
        injector.fail_write(target)


# -- plan files ----------------------------------------------------------------


def write_plan(path: str, faults: List[ChaosFault]) -> str:
    """Serialize a plan (atomically: processes that already run under
    :func:`installed` may be reading it); returns the path."""
    plan = json.dumps([asdict(f) for f in faults], indent=2)
    atomic_write(path, plan.encode())
    return str(path)


def read_plan(path: str) -> List[ChaosFault]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"chaos plan {path} must be a JSON list")
    return [ChaosFault(**entry) for entry in payload]


@contextmanager
def installed(path: str) -> Iterator[str]:
    """Point ``REPRO_CHAOS`` at ``path`` for the duration.

    Must wrap worker-pool *startup*: workers read their own (inherited)
    environment, so the variable has to be set before the processes fork.
    The plan file itself may be written later.
    """
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(path)
    try:
        yield str(path)
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
