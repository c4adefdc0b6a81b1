"""Durable submit queue with crash recovery for the CLI service.

``repro submit`` and ``repro serve`` run in different processes at different
times, so the hand-off lives on disk: one append-only JSONL event log per
queue directory. Each line is an operation::

    {"op": "submit",   "id": "<entry>", "spec": {...}}
    {"op": "running",  "id": "<entry>"}
    {"op": "finished", "id": "<entry>", "state": "done"}

Replaying the log classifies every entry: *finished* entries are dropped,
*submitted-never-started* entries are pending, and *running-but-never-
finished* entries are **orphans** — a previous ``repro serve`` process died
mid-job. Because execution is deterministic and results are keyed by spec,
re-running an orphan is always safe: it either re-computes the identical
result or is answered from the store if the crash happened after the result
landed.

Legacy queues (bare spec dicts, one per line, from earlier releases) load
as pending entries.

The log is append-only while a server drains, so a crash at any point
leaves a replayable record. Compaction is the one way history leaves it:
``compact()`` atomically rewrites the log to just its live (pending +
orphaned) entries, and ``load()`` does the same whenever the replayed
records outnumber the live entries by more than :data:`COMPACT_RATIO` —
finished history is dropped, bounding the file for deployments that submit
and finish work forever. Every append and every read → rewrite holds one
:class:`repro.durable.FileLock` on ``<log>.lock`` beside the log, so a
``repro submit`` landing mid-compaction is appended after it, not erased,
however long the compaction pauses (the kernel, not a timer, decides
when the lock is free).

A draining server writes its ``running`` and ``finished`` marks (and the
gateway its ``submit`` records) through one :class:`JobJournal`, the
server's ``journal``: entries are recorded against jobs, and the server
marks them as its jobs start and settle.
"""

from __future__ import annotations

import json
import threading
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.durable import FileLock, atomic_write
from repro.resilience.errors import MutationFencedError
from repro.serve.job import JobSpec

#: ``load()`` compacts once replayed records exceed this many times the
#: live entries (4× ≈ the submit/running/finished triple plus slack, so a
#: healthy in-flight queue is never rewritten on every restart).
COMPACT_RATIO = 4


def _logged_spec(payload: Dict) -> JobSpec:
    """A logged spec. The per-job R-hat threshold an earlier release
    logged is dropped, so the job loads and runs under the system's stop
    rule: an upgrade loses no accepted job."""
    payload = dict(payload)
    payload.pop("rhat_threshold", None)
    return JobSpec.from_dict(payload)


@dataclass(frozen=True)
class QueueEntry:
    """One recovered submission."""

    entry_id: str
    spec: JobSpec
    #: True when a previous server started this entry but never finished it.
    orphaned: bool = False


@dataclass
class QueueRecovery:
    """What replaying the log found."""

    #: Submitted but never started, in submission order.
    pending: List[QueueEntry] = field(default_factory=list)
    #: Started by a server that never marked them finished (crash/kill).
    orphaned: List[QueueEntry] = field(default_factory=list)

    @property
    def entries(self) -> List[QueueEntry]:
        """Everything that still needs running: orphans first (they were
        admitted earlier), then pending submissions."""
        return self.orphaned + self.pending


class FileJobQueue:
    """Append-only JSONL submit queue shared by ``submit`` and ``serve``.

    ``mutation_guard`` fences the *consumer-side* operations — running/
    finished marks, compaction rewrites, truncation — for queues shared by
    several processes: the guard (typically :meth:`repro.fleet.lease.
    ShardLease.check`) is called immediately before each such write and
    vetoes it by raising :class:`~repro.resilience.errors.
    MutationFencedError`. Producer-side ``submit`` appends are deliberately
    unguarded: any process may hand work to a shard; only draining it is
    exclusive.
    """

    def __init__(
        self,
        path,
        mutation_guard: Optional[Callable[[], None]] = None,
    ) -> None:
        self.path = Path(path)
        self.mutation_guard = mutation_guard

    def _guard(self) -> None:
        if self.mutation_guard is not None:
            self.mutation_guard()

    def _lock(self) -> FileLock:
        """Serializes appends with the read → rewrite of a compaction, so
        a ``repro submit`` landing mid-compaction is never erased."""
        return FileLock(self.path.with_name(self.path.name + ".lock"))

    def _append(self, record: Dict) -> None:
        from repro.resilience import chaos

        chaos.check_write("filequeue")
        line = json.dumps(record) + "\n"
        # (taking the lock makes the queue directory when it is missing)
        with self._lock(), self.path.open("a") as handle:
            handle.write(line)

    @staticmethod
    def _count_torn_line() -> None:
        """Count a skipped log line in the process-global registry (the
        queue has no injected registry — it predates telemetry — and a
        recovery anomaly must be visible wherever metrics are scraped)."""
        from repro import telemetry
        from repro.telemetry.instrument import RESILIENCE_QUEUE_TORN_LINES

        telemetry.get_registry().counter(RESILIENCE_QUEUE_TORN_LINES).inc()

    # -- producer side (repro submit) ------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Record one submission; returns its entry id."""
        entry_id = uuid.uuid4().hex[:12]
        self._append({"op": "submit", "id": entry_id, "spec": spec.to_dict()})
        return entry_id

    # -- consumer side (repro serve) -------------------------------------------

    def mark_running(self, entry_id: str) -> None:
        self._guard()
        self._append({"op": "running", "id": entry_id})

    def mark_finished(self, entry_id: str, state: str = "done") -> None:
        self._guard()
        self._append({"op": "finished", "id": entry_id, "state": state})

    def load(self, compact: bool = True) -> QueueRecovery:
        """Replay the log into pending and orphaned entries.

        Unparseable lines (torn writes from a crash mid-append) and specs
        that no longer validate are skipped with a warning rather than
        blocking the rest of the queue. With ``compact=True`` (the
        default), a log whose replayed records exceed
        :data:`COMPACT_RATIO` times the live entries is rewritten in place
        to just those entries, keeping long-lived deployments bounded.
        """
        if not compact or not self.path.exists():
            return self._replay()[0]
        with self._lock():
            recovery, n_records = self._replay()
            if n_records > COMPACT_RATIO * max(len(recovery.entries), 1):
                try:
                    self._rewrite(recovery)
                except MutationFencedError as exc:
                    # Opportunistic compaction is a tidy-up, not a
                    # correctness step: a reader that does not hold the
                    # shard's lease (a status command, a stale ex-holder)
                    # must never rewrite a log another process is actively
                    # draining. Explicit :meth:`compact` calls propagate
                    # the veto instead.
                    warnings.warn(
                        f"{self.path}: skipping compaction ({exc})",
                        RuntimeWarning,
                    )
        return recovery

    def _replay(self):
        """Classify the log's entries: ``(recovery, parseable records)``."""
        recovery = QueueRecovery()
        n_records = 0
        specs: Dict[str, JobSpec] = {}
        order: List[str] = []
        started: Dict[str, bool] = {}
        finished: Dict[str, bool] = {}
        # Read bytes and decode per line: a crash (or ENOSPC) mid-append can
        # tear the final line anywhere, including inside a multi-byte UTF-8
        # sequence — read_text() would then raise UnicodeDecodeError and
        # take the *whole* queue down with it. Decoding line-by-line
        # quarantines the damage to the torn line.
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
        for lineno, raw_line in enumerate(raw.split(b"\n"), 1):
            if not raw_line.strip():
                continue
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError as exc:
                warnings.warn(
                    f"{self.path}:{lineno}: skipping torn (undecodable) "
                    f"queue line ({exc})",
                    RuntimeWarning,
                )
                self._count_torn_line()
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                warnings.warn(
                    f"{self.path}:{lineno}: skipping unparseable queue "
                    f"line ({exc})",
                    RuntimeWarning,
                )
                self._count_torn_line()
                continue
            n_records += 1
            try:
                if "op" not in record:
                    # Legacy format: the line *is* the spec.
                    entry_id = f"legacy-{lineno}"
                    specs[entry_id] = _logged_spec(record)
                    order.append(entry_id)
                elif record["op"] == "submit":
                    entry_id = record["id"]
                    specs[entry_id] = _logged_spec(record["spec"])
                    order.append(entry_id)
                elif record["op"] == "running":
                    started[record["id"]] = True
                elif record["op"] == "finished":
                    finished[record["id"]] = True
            except (KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"{self.path}:{lineno}: skipping invalid queue "
                    f"record ({exc})",
                    RuntimeWarning,
                )
        for entry_id in order:
            if finished.get(entry_id):
                continue
            entry = QueueEntry(
                entry_id=entry_id,
                spec=specs[entry_id],
                orphaned=bool(started.get(entry_id)),
            )
            (recovery.orphaned if entry.orphaned else recovery.pending).append(
                entry
            )
        return recovery, n_records

    def compact(self) -> QueueRecovery:
        """Rewrite the log to just its live entries, unconditionally.

        Lease-guarded: raises :class:`MutationFencedError` when this
        queue's ``mutation_guard`` vetoes the rewrite.
        """
        with self._lock():
            recovery = self._replay()[0]
            self._rewrite(recovery)
        return recovery

    def _rewrite(self, recovery: QueueRecovery) -> None:
        """Atomically replace the log with the recovery's live entries
        (the caller holds :meth:`_lock` since before it read them).

        Orphans keep their ``running`` marker so a subsequent replay still
        classifies them as orphaned; everything finished is dropped.
        """
        self._guard()
        lines = []
        for entry in recovery.entries:  # orphans first: admitted earlier
            lines.append(json.dumps(
                {"op": "submit", "id": entry.entry_id, "spec": entry.spec.to_dict()}
            ))
        for entry in recovery.orphaned:
            lines.append(json.dumps({"op": "running", "id": entry.entry_id}))
        content = "".join(line + "\n" for line in lines)
        atomic_write(self.path, content.encode(), chaos_target="filequeue")


class JobJournal:
    """Every durable mark a server makes for the jobs it runs.

    A job answers the log entries recorded against it — several when
    duplicate submissions fold onto one job, each in its own log when a
    fleet replica drains several shards. The server marks them
    ``running`` as each attempt starts and ``finished`` once, when the job
    settles in a terminal state; an entry recorded against a job that has
    already settled (answered from the result store at submission) is
    marked finished on the spot. A finished job's entries are forgotten.

    No mark fails its caller. A full or dying disk under the log must not
    fail the request or the job — the in-memory server is still correct;
    what is lost is crash recovery for this entry. Likewise a lease fence
    veto (this replica lost the shard; its successor owns the entry now)
    must not fail the running job. Both are warned and counted in
    ``registry`` (``repro_resilience_durability_errors_total{target=
    "filequeue"}``, ``repro_fleet_fenced_writes_total``) so operators see
    the gap.
    """

    def __init__(self, registry) -> None:
        self.registry = registry
        self._entries: Dict[str, List[Tuple[FileJobQueue, str]]] = {}
        #: Makes "record an entry" and "settle its job" one or the other
        #: first, so every entry is marked finished exactly once.
        self._lock = threading.Lock()

    def record(
        self, job, log: FileJobQueue, entry_id: Optional[str] = None
    ) -> Optional[str]:
        """Record a log entry against ``job``; returns its id.

        Without ``entry_id`` the submission is appended to ``log`` first
        (None is returned when that append failed); a recovered entry
        passes the id it was logged under.
        """
        if entry_id is None:
            entry_id = self._write(log.submit, job.spec)
            if entry_id is None:
                return None
        with self._lock:
            settled = job.state.terminal
            if not settled:
                self._entries.setdefault(job.job_id, []).append(
                    (log, entry_id)
                )
                if job.attempts:
                    # Its attempt started before this entry was recorded;
                    # marked under the lock, so before any ``finished``.
                    self._write(log.mark_running, entry_id)
        if settled:
            self._write(log.mark_finished, entry_id, state=job.state.value)
        return entry_id

    def started(self, job) -> None:
        """Mark ``job``'s entries running (at every attempt's start)."""
        with self._lock:
            entries = list(self._entries.get(job.job_id, ()))
        for log, entry_id in entries:
            self._write(log.mark_running, entry_id)

    def settled(self, job) -> None:
        """Mark ``job``'s entries finished if it settled terminally (a
        RETRYING job's entries are still in flight)."""
        if not job.state.terminal:
            return
        with self._lock:
            entries = self._entries.pop(job.job_id, ())
        for log, entry_id in entries:
            self._write(log.mark_finished, entry_id, state=job.state.value)

    def _write(self, append, *args, **kwargs):
        """One append to a log: its value, or None when it failed."""
        from repro.telemetry.instrument import (
            FLEET_FENCED_WRITES,
            RESILIENCE_DURABILITY_ERRORS,
        )

        try:
            return append(*args, **kwargs)
        except MutationFencedError as exc:
            warnings.warn(
                f"durable queue write fenced ({exc}); "
                "the shard's new owner will finish this entry",
                RuntimeWarning,
            )
            self.registry.counter(FLEET_FENCED_WRITES).inc()
            return None
        except OSError as exc:
            warnings.warn(
                f"durable queue append failed ({exc}); "
                "continuing without durability for this entry",
                RuntimeWarning,
            )
            self.registry.counter(
                RESILIENCE_DURABILITY_ERRORS, {"target": "filequeue"}
            ).inc()
            return None
