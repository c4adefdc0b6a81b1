"""The gateway: one process that drains the queue *and* serves HTTP.

:class:`Gateway` wraps an :class:`~repro.serve.server.InferenceServer` with
a network boundary built entirely on the stdlib (``http.server.
ThreadingHTTPServer``; the repo's hard constraint is the baked-in
toolchain). Two thread groups share the server:

* the **drain threads** — one per pool worker, each looping
  :meth:`InferenceServer.run_next` as ``repro serve --drain`` does, but
  forever: an empty queue parks on a wake event instead of exiting. So up
  to ``pool.n_workers`` jobs run at once, each group in its own worker;
* the **handler threads** — one per HTTP connection, submitting into the
  priority queue (admission control applies: a full queue is a 429 at the
  front door) and reading job state.

Progress flows the other way through the server's callback seams:
``on_job_start``/``on_job_finish`` (state transitions) and the
``on_progress`` hook (per-checkpoint online R-hat, the same stream the
convergence monitor sees) publish into an :class:`~repro.gateway.sse.
EventBroker`, which feeds ``GET /v1/jobs/{id}/events`` subscribers. The
gateway *composes* with callbacks already installed on the server — it
chains, never replaces.

With a ``file_queue``, every HTTP submission is also appended to the
durable JSONL log and marked running/finished as the job progresses, so a
crashed gateway recovers exactly like a crashed ``repro serve``: orphans
re-run (deterministically, or answered from the result store).

With a ``fleet`` (:class:`~repro.fleet.member.FleetMember`) instead, the
gateway is one **replica** of several sharing a sharded queue root:
submissions route by the weighted consistent-hash ring (a spec belonging
to another replica's shard is refused with the owner's address — HTTP 421
``wrong_replica``), durable marks go to lease-fenced per-shard logs, and a
heartbeat thread renews held leases, adopts shards whose drainer died, and
replays the adopted shards' orphans through the normal recovery path.
"""

from __future__ import annotations

import threading
import warnings
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.fleet.member import FleetMember, WrongReplicaError
from repro.gateway.auth import BearerAuth
from repro.gateway.ratelimit import RateLimiter
from repro.gateway.routes import GatewayDrainingError, GatewayRequestHandler
from repro.gateway.sse import DEFAULT_SUBSCRIBER_LIMIT, EventBroker, JobEvent
from repro.resilience.errors import MutationFencedError
from repro.serve.filequeue import append_or_degrade
from repro.serve.job import Job, JobSpec, JobState
from repro.serve.server import InferenceServer
from repro.telemetry.instrument import (
    FLEET_LEASE_ACQUIRED,
    FLEET_LEASE_EPOCH,
    FLEET_LEASE_LOST,
    FLEET_LEASE_RENEWALS,
    FLEET_ROUTED,
    FLEET_SHARD_QUEUE_DEPTH,
    FLEET_WRONG_REPLICA,
)


class _GatewayHTTPServer(ThreadingHTTPServer):
    #: SSE connections may be parked in a keep-alive wait at shutdown;
    #: daemon threads let the process exit instead of hanging on them.
    daemon_threads = True
    block_on_close = False
    #: Set by :class:`Gateway` after construction.
    gateway: "Gateway"


class Gateway:
    """HTTP front door plus queue drainer over one inference server."""

    def __init__(
        self,
        server: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tokens=None,
        auth: Optional[BearerAuth] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
        file_queue=None,
        fleet: Optional[FleetMember] = None,
        sse_keepalive: float = 15.0,
        sse_subscriber_limit: int = DEFAULT_SUBSCRIBER_LIMIT,
        idle_poll: float = 0.05,
    ) -> None:
        if fleet is not None and file_queue is not None:
            raise ValueError(
                "pass either file_queue (single durable log) or fleet "
                "(sharded leased logs), not both"
            )
        self.server = server
        self.registry = server.registry
        self.tracer = server.tracer
        self.auth = auth if auth is not None else (
            BearerAuth(tokens) if tokens else None
        )
        self.ratelimit = (
            RateLimiter(rate_limit, burst, registry=self.registry)
            if rate_limit is not None else None
        )
        self.events = EventBroker()
        self.file_queue = file_queue
        self.fleet = fleet
        self.replica_id = fleet.replica_id if fleet is not None else None
        self.sse_keepalive = sse_keepalive
        self.sse_subscriber_limit = sse_subscriber_limit
        self.idle_poll = idle_poll
        #: Durable-queue entry ids riding on each job (duplicates fold),
        #: each tagged with its shard (None in single-log mode).
        self._entries: Dict[str, List[Tuple[Optional[int], str]]] = {}
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drain_threads: List[threading.Thread] = []
        self._http_thread: Optional[threading.Thread] = None
        self._lease_thread: Optional[threading.Thread] = None
        self._chain_callbacks()
        self.http = _GatewayHTTPServer((host, port), GatewayRequestHandler)
        self.http.gateway = self

    # -- callback wiring -------------------------------------------------------

    def _chain_callbacks(self) -> None:
        server = self.server
        prev_start = server.on_job_start
        prev_finish = server.on_job_finish
        prev_progress = server.on_progress

        def on_start(job: Job) -> None:
            if prev_start is not None:
                prev_start(job)
            for shard, entry_id in self._job_entries(job):
                append_or_degrade(
                    self.registry, self._mark_running, shard, entry_id
                )
            self.events.publish(job.job_id, self._state_event(job))

        def on_finish(job: Job) -> None:
            if prev_finish is not None:
                prev_finish(job)
            if job.state.terminal:
                for shard, entry_id in self._job_entries(job):
                    append_or_degrade(
                        self.registry,
                        self._mark_finished,
                        shard,
                        entry_id,
                        state=job.state.value,
                    )
            self.events.publish(job.job_id, self._state_event(job))

        def on_progress(job: Job, event: str, data: Dict) -> None:
            if prev_progress is not None:
                prev_progress(job, event, data)
            payload = {"job_id": job.job_id}
            payload.update(data)
            self.events.publish(job.job_id, JobEvent(event=event, data=payload))

        server.on_job_start = on_start
        server.on_job_finish = on_finish
        server.on_progress = on_progress

    def _job_entries(self, job: Job) -> List[Tuple[Optional[int], str]]:
        if self.file_queue is None and self.fleet is None:
            return []
        with self._lock:
            return list(self._entries.get(job.job_id, ()))

    # -- durable-log plumbing --------------------------------------------------

    def _mark_running(self, shard: Optional[int], entry_id: str) -> None:
        self._entry_queue(shard).mark_running(entry_id)

    def _mark_finished(
        self, shard: Optional[int], entry_id: str, state: str = "done"
    ) -> None:
        self._entry_queue(shard).mark_finished(entry_id, state=state)

    def _entry_queue(self, shard: Optional[int]):
        """The (possibly lease-fenced) log an entry's marks belong in."""
        if shard is None:
            return self.file_queue
        return self.fleet.consumer(shard)

    def _durable_submit(self, shard: Optional[int], spec: JobSpec) -> str:
        """Producer-side append — deliberately unguarded (any process may
        hand work to a shard; only draining it is exclusive)."""
        if shard is None:
            return self.file_queue.submit(spec)
        return self.fleet.producer(shard).submit(spec)

    @staticmethod
    def _state_event(job: Job) -> JobEvent:
        data = {
            "job_id": job.job_id,
            "state": job.state.value,
            "attempts": job.attempts,
        }
        if job.state is JobState.FAILED and job.error:
            data["error"] = job.error.rstrip().splitlines()[-1]
        if job.failure_kind and not job.state.terminal:
            data["failure_kind"] = job.failure_kind
        if job.elision is not None and job.elision.elided:
            data["converged_kept"] = int(job.elision.converged_kept)
        if job.deduped:
            data["deduped"] = True
        return JobEvent(
            event="state", data=data, terminal=job.state.terminal
        )

    # -- submission and lookup (handler threads) -------------------------------

    def submit(
        self,
        spec: JobSpec,
        entry_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> Job:
        """Admit a spec; record it durably; publish its first event(s).

        ``entry_id`` links an already-recorded durable-queue entry (startup
        recovery) instead of appending a fresh one; recovery callers in
        fleet mode pass the entry's ``shard`` explicitly, bypassing ring
        routing (a taken-over shard's entries belong to *that* shard even
        when the ring would now place them elsewhere). Raises
        :class:`~repro.serve.queue.AdmissionError` on a full queue and
        ``KeyError`` on an unknown workload, exactly like the in-process
        server; :class:`~repro.gateway.routes.GatewayDrainingError` once
        :meth:`begin_drain` has been called; :class:`~repro.fleet.member.
        WrongReplicaError` (HTTP: 421 + the owner's address) when the spec
        hashes to a shard another replica drains.
        """
        if self.draining:
            raise GatewayDrainingError(
                "gateway is draining; not accepting new jobs"
            )
        if self.fleet is not None and shard is None:
            try:
                shard = self.fleet.route(spec)
            except WrongReplicaError:
                self.registry.counter(FLEET_WRONG_REPLICA).inc()
                raise
            self.registry.counter(
                FLEET_ROUTED,
                {"shard": str(shard)},
            ).inc()
        with self._lock:
            known = set(self.server.jobs)
            job = self.server.submit(spec)
            fresh = job.job_id not in known
            if self.file_queue is not None or self.fleet is not None:
                if entry_id is None:
                    entry_id = append_or_degrade(
                        self.registry, self._durable_submit, shard, spec
                    )
                if entry_id is not None:
                    self._entries.setdefault(job.job_id, []).append(
                        (shard, entry_id)
                    )
                    if job.state.terminal:
                        # Answered from the result store without running.
                        append_or_degrade(
                            self.registry,
                            self._mark_finished,
                            shard,
                            entry_id,
                            state=job.state.value,
                        )
        if fresh:
            self.events.publish(
                job.job_id,
                JobEvent(
                    event="state",
                    data={
                        "job_id": job.job_id,
                        "state": JobState.QUEUED.value,
                        "attempts": 0,
                    },
                ),
            )
            if job.state is not JobState.QUEUED:
                self.events.publish(job.job_id, self._state_event(job))
        self._wake.set()
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self.server.jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return list(self.server.jobs.values())

    def health(self) -> Dict:
        health = {
            "status": "draining" if self.draining else "ok",
            "queued": len(self.server.queue),
            "jobs": len(self.server.jobs),
            "draining": any(
                thread.is_alive() for thread in self._drain_threads
            ),
            "accepting": not self.draining,
        }
        if self.server.admission is not None:
            health["brownout"] = self.server.admission.brownout_active()
        breakers = getattr(self.server, "breakers", None)
        if breakers is not None:
            health["breakers"] = breakers.snapshot()
        if self.fleet is not None:
            health["replica_id"] = self.replica_id
            health["n_shards"] = self.fleet.topology.n_shards
            health["leases"] = self.fleet.lease_view()
        return health

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.http.server_address[1]

    @property
    def url(self) -> str:
        host = self.http.server_address[0]
        return f"http://{host}:{self.port}"

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            job = self.server.run_next()
            if job is None:
                # Fully drained (no queued work, no pending retries): park
                # until a submission wakes us, polling as a backstop.
                self._wake.wait(timeout=self.idle_poll)
                self._wake.clear()

    # -- fleet heartbeat -------------------------------------------------------

    def _recover_shard(self, shard: int) -> None:
        """Replay an owned shard's log into the server (startup/takeover).

        Entries resubmit with their recorded entry id and an *explicit*
        shard, so their marks land back in the log they came from.
        Deterministic execution (or the shared result store) makes the
        replay bit-identical to what the previous drainer would have
        produced.
        """
        try:
            recovery = self.fleet.consumer(shard).load()
        except (OSError, MutationFencedError) as exc:
            warnings.warn(
                f"shard {shard}: recovery load failed ({exc})",
                RuntimeWarning,
            )
            return
        for entry in recovery.entries:
            try:
                self.submit(entry.spec, entry_id=entry.entry_id, shard=shard)
            except Exception as exc:
                # A rejected entry (full queue, drain race) stays in the
                # shard log — never marked finished — so a later tick or
                # restart replays it again.
                warnings.warn(
                    f"shard {shard}: could not resubmit recovered entry "
                    f"{entry.entry_id} ({exc})",
                    RuntimeWarning,
                )

    def _lease_tick(self) -> None:
        fleet = self.fleet
        lost = fleet.renew_all()
        if lost:
            self.registry.counter(FLEET_LEASE_LOST).inc(len(lost))
            warnings.warn(
                f"replica {self.replica_id!r} lost shard lease(s) {lost}",
                RuntimeWarning,
            )
        if fleet.leases:
            self.registry.counter(FLEET_LEASE_RENEWALS).inc(len(fleet.leases))
        if not self.draining:
            for shard in fleet.takeover_scan():
                self.registry.counter(
                    FLEET_LEASE_ACQUIRED,
                    {"shard": str(shard)},
                ).inc()
                self._recover_shard(shard)
        for shard, lease in list(fleet.leases.items()):
            labels = {"shard": str(shard)}
            self.registry.gauge(FLEET_LEASE_EPOCH, labels).set(lease.epoch)
            try:
                depth = fleet.queue.depth(shard)
            except OSError:
                continue
            self.registry.gauge(
                FLEET_SHARD_QUEUE_DEPTH,
                labels,
            ).set(depth)

    def _lease_loop(self) -> None:
        # Renew at a third of the TTL: two heartbeats of slack before a
        # stall lets the lease lapse and a peer adopts the shard.
        interval = max(0.05, self.fleet.ttl / 3.0)
        while not self._stop.wait(interval):
            try:
                self._lease_tick()
            except Exception as exc:
                warnings.warn(
                    f"lease heartbeat failed ({exc})", RuntimeWarning
                )

    def start(self) -> "Gateway":
        if self._http_thread is not None:
            return self
        self._stop.clear()
        if self.fleet is not None:
            for shard in self.fleet.acquire_preferred():
                self.registry.counter(
                    FLEET_LEASE_ACQUIRED,
                    {"shard": str(shard)},
                ).inc()
                self._recover_shard(shard)
            self._lease_thread = threading.Thread(
                target=self._lease_loop,
                name="repro-gateway-lease",
                daemon=True,
            )
            self._lease_thread.start()
        self._drain_threads = [
            threading.Thread(
                target=self._drain_loop, name=f"repro-gateway-drain-{index}",
                daemon=True,
            )
            for index in range(self.server.pool.n_workers)
        ]
        for thread in self._drain_threads:
            thread.start()
        self._http_thread = threading.Thread(
            target=self.http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-gateway-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` has refused further admissions."""
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Start a graceful shutdown: refuse new work, checkpoint old work.

        New submissions raise (HTTP: 503 + Retry-After) from this point on.
        Every in-flight job's chains are asked to halt at their next
        iteration boundary — the stop broadcast makes it a checkpointed
        "last" iteration, so each job parks as RETRYING and a later server
        resumes it from the checkpoint, bit-identical. Follow with
        :meth:`stop` to join the threads.
        """
        self._draining.set()
        self.server.pool.request_halt()
        self._wake.set()

    def stop(self, timeout: float = 30.0) -> List[str]:
        """Stop the HTTP and drain threads; returns names of stuck threads.

        A thread still alive after its bounded join is *reported* — named
        in the returned list and warned about — never silently abandoned:
        a caller about to exit needs to know a drain thread is still
        mid-job (its checkpoint may be incomplete).
        """
        self._stop.set()
        self._wake.set()
        self.http.shutdown()
        stuck: List[str] = []
        if self._lease_thread is not None:
            self._lease_thread.join(timeout=timeout)
            if self._lease_thread.is_alive():
                stuck.append(self._lease_thread.name)
            self._lease_thread = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=timeout)
            if self._http_thread.is_alive():
                stuck.append(self._http_thread.name)
            self._http_thread = None
        for thread in self._drain_threads:
            # run_next blocks for the job in flight; bounded join so stop()
            # cannot hang forever on a pathological chain.
            thread.join(timeout=timeout)
            if thread.is_alive():
                stuck.append(thread.name)
        self._drain_threads = []
        for name in stuck:
            warnings.warn(
                f"gateway thread {name!r} did not stop within {timeout:.1f}s",
                RuntimeWarning,
            )
        if self.fleet is not None and not stuck:
            # Hand the shards back only once every drain thread is truly
            # done: releasing earlier would fence our own final marks. A
            # stuck drain keeps its leases and lets them expire — the
            # takeover path, not a clean hand-off, is then correct.
            self.fleet.release_all()
        self.http.server_close()
        return stuck

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
