"""Job model for the inference service.

A :class:`JobSpec` is the plain-data description of one sampling request —
everything needed to reproduce the run exactly, and nothing else. It travels
through JSON (the CLI submit queue) and across process boundaries (the worker
pool), and its :meth:`~JobSpec.key` is the dedup/result-store identity: two
specs with the same key are guaranteed to produce bit-identical draws, so the
service never runs the same work twice.

A :class:`Job` wraps a spec with service state: the QUEUED → RUNNING →
{CONVERGED, DONE, FAILED} lifecycle (with a RUNNING ⇄ RETRYING loop while
the retry policy has attempts left) and the execution outcome.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.amortize.policy import DEFAULT_MODE, Provenance, validate_mode
from repro.core.elision import RHAT_THRESHOLD, StopRule
from repro.inference.engines import build_engine, engine_names
from repro.inference.results import SamplingResult


class JobState(str, Enum):
    """Lifecycle of a job inside the service."""

    QUEUED = "queued"
    RUNNING = "running"
    #: Stopped mid-run by the convergence monitor (iterations elided).
    CONVERGED = "converged"
    #: Ran its full budget (or was answered from the result store).
    DONE = "done"
    FAILED = "failed"
    #: Failed an attempt; waiting out its backoff before running again.
    RETRYING = "retrying"
    #: Hit its ``deadline_s`` before producing any kept draws (a 504-style
    #: terminal state — no result, but not a failure of the service).
    EXPIRED = "expired"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.CONVERGED, JobState.DONE, JobState.FAILED,
            JobState.EXPIRED,
        )


_TRANSITIONS = {
    JobState.QUEUED: {
        JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.EXPIRED,
    },
    JobState.RUNNING: {
        JobState.CONVERGED, JobState.DONE, JobState.FAILED, JobState.RETRYING,
        JobState.EXPIRED,
    },
    JobState.RETRYING: {JobState.RUNNING, JobState.FAILED, JobState.EXPIRED},
    JobState.CONVERGED: set(),
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.EXPIRED: set(),
}


@dataclass(frozen=True)
class JobSpec:
    """One sampling request. Frozen: the key must not drift after submit."""

    workload: str
    engine: str = "nuts"
    #: Serving tier: ``fast`` (amortized surrogate, unconditional),
    #: ``checked`` (surrogate iff PSIS k̂ passes, else escalate), or
    #: ``exact`` (full MCMC — the default and the pre-amortization path).
    mode: str = DEFAULT_MODE
    n_iterations: int = 400
    n_warmup: Optional[int] = None
    n_chains: int = 4
    seed: int = 0
    #: Dataset scale (1.0 full, 0.5/0.25 the paper's -h/-q variants).
    scale: float = 1.0
    #: Overrides the workload's default synthetic-dataset seed.
    dataset_seed: Optional[int] = None
    initial_jitter: float = 1.0
    #: Extra sampler constructor arguments (e.g. ``{"max_tree_depth": 8}``).
    engine_options: Dict[str, Any] = field(default_factory=dict)
    #: Higher runs first; ties are FIFO.
    priority: int = 0
    #: Monitor R-hat online and stop the job once converged.
    elide: bool = True
    rhat_threshold: float = RHAT_THRESHOLD
    #: Kept-draw interval between online R-hat evaluations.
    check_interval: int = 20
    #: Kept draws required before the first R-hat evaluation.
    min_kept: int = 40
    #: Iterations between chain checkpoints (0 disables checkpointing).
    checkpoint_interval: int = 0
    #: End-to-end deadline in seconds, measured from submission. ``None``
    #: (the default) never expires. An expired job is dropped before it
    #: starts, or — once past warmup — answered with the draws produced so
    #: far and a ``degraded: deadline`` provenance flag.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_iterations < 2:
            raise ValueError("n_iterations must be at least 2")
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.n_warmup is not None and self.n_warmup >= self.n_iterations:
            raise ValueError("n_warmup must be smaller than n_iterations")
        if self.engine not in engine_names():
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"available: {', '.join(engine_names())}"
            )
        if not isinstance(self.elide, bool):
            raise ValueError(f"elide must be true or false, got {self.elide!r}")
        self.stop_rule  # the rule checks its own parameters
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive")
        validate_mode(self.mode)

    @property
    def resolved_warmup(self) -> int:
        """Warmup iterations after applying the samplers' half-run default."""
        return (
            self.n_warmup if self.n_warmup is not None
            else self.n_iterations // 2
        )

    @property
    def budget_kept(self) -> int:
        """Post-warmup iterations the user asked for."""
        return self.n_iterations - self.resolved_warmup

    @property
    def stop_rule(self) -> StopRule:
        """The elision rule this job's monitor runs."""
        return StopRule(self.rhat_threshold, self.check_interval, self.min_kept)

    def build_sampler(self):
        return build_engine(self.engine, self.engine_options)

    def with_mode(self, mode: str) -> "JobSpec":
        """This spec at a different serving mode (same sampling identity).

        The escalation and dedup-inheritance paths use the ``exact`` twin:
        an escalated ``checked`` job produces draws bit-identical to what
        ``with_mode("exact")`` would have produced directly.
        """
        return self if mode == self.mode else replace(self, mode=mode)

    # -- identity --------------------------------------------------------------

    def key(self) -> str:
        """Stable digest of every field that determines the produced draws.

        ``priority`` and ``checkpoint_interval`` affect scheduling and
        fault-tolerance, never the draws, so they are excluded — a repeat
        submission at a different priority still dedupes.

        ``mode`` IS part of the key: a ``fast`` submission is answered by
        an amortized surrogate, so its stored result must never satisfy a
        later ``exact`` submission of the same sampling spec (and vice
        versa — the tiers produce different draws by design). The server
        still lets a stored *exact* result answer an amortized request,
        but that inheritance is an explicit upgrade in
        :meth:`~repro.serve.server.InferenceServer.submit`, not a key
        collision.

        The spec is frozen, so its key is computed once and kept.
        """
        key = self.__dict__.get("_key")
        if key is not None:
            return key
        payload = asdict(self)
        payload["n_warmup"] = self.resolved_warmup
        payload.pop("priority")
        payload.pop("checkpoint_interval")
        # A deadline changes what the job may produce (partial draws), so
        # two submissions differing only in deadline must not dedupe onto
        # each other — ``deadline_s`` is part of the key when set. Dropping
        # it when unset keeps every pre-deadline key (and every stored
        # result) byte-identical to earlier releases.
        if payload.get("deadline_s") is None:
            payload.pop("deadline_s")
        blob = json.dumps(payload, sort_keys=True, default=str)
        key = hashlib.sha256(blob.encode()).hexdigest()[:16]
        object.__setattr__(self, "_key", key)
        return key

    # -- (de)serialization for the CLI submit queue ----------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class ElisionSummary:
    """What the online monitor decided for one job."""

    budget_kept: int
    converged_kept: Optional[int]
    rhat_threshold: float
    checkpoints: List[int] = field(default_factory=list)
    rhat_trace: List[float] = field(default_factory=list)

    @property
    def elided(self) -> bool:
        return self.converged_kept is not None

    @property
    def iterations_saved_fraction(self) -> float:
        if not self.elided:
            return 0.0
        return 1.0 - self.converged_kept / self.budget_kept


class Job:
    """A spec plus its service-side state."""

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.job_id = uuid.uuid4().hex[:12]
        self.state = JobState.QUEUED
        #: Monotonic submission instant — the deadline clock starts here.
        self.submitted_at = time.monotonic()
        self.result: Optional[SamplingResult] = None
        self.elision: Optional[ElisionSummary] = None
        #: Which tier produced the result and why (set on every answer —
        #: surrogate, escalated, deduped, or plain exact).
        self.provenance: Optional[Provenance] = None
        self.error: Optional[str] = None
        #: True when the result was answered from the store without sampling.
        self.deduped = False
        #: Execution attempts started (1 on the first run).
        self.attempts = 0
        #: Captured traceback of each failed attempt, oldest first.
        self.attempt_errors: List[str] = []
        #: Classification of the latest failure: "poison" (deterministic,
        #: will recur on replay) or "transient" (worker loss / timeout).
        self.failure_kind: Optional[str] = None
        #: True when an attempt was stopped by a graceful-drain halt (the
        #: halted attempt is not counted, but its checkpoints are resumable).
        self.was_halted = False

    @property
    def key(self) -> str:
        return self.spec.key()

    @property
    def deadline_at(self) -> Optional[float]:
        """Monotonic instant the job's deadline lapses (None: no deadline)."""
        if self.spec.deadline_s is None:
            return None
        return self.submitted_at + self.spec.deadline_s

    @property
    def expired(self) -> bool:
        """True once the deadline has lapsed (regardless of state)."""
        deadline_at = self.deadline_at
        return deadline_at is not None and time.monotonic() >= deadline_at

    def transition(self, new_state: JobState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, workload={self.spec.workload!r}, "
            f"state={self.state.value})"
        )
