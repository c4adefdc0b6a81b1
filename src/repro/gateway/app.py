"""The gateway: one process that drains the queue *and* serves HTTP.

:class:`Gateway` wraps an :class:`~repro.serve.server.InferenceServer` with
a network boundary built entirely on the stdlib (``http.server.
ThreadingHTTPServer``; the repo's hard constraint is the baked-in
toolchain). Two thread groups share the server:

* the **drain threads** — one per pool worker, each looping
  :meth:`InferenceServer.run_next` as ``repro serve --drain`` does, but
  forever: with nothing runnable it waits on the server's queue, which a
  submission, a parked retry or :meth:`Gateway.stop` wakes at once. So up
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
durable JSONL log through the server's
:class:`~repro.serve.filequeue.JobJournal`, which marks it running and
finished as the job progresses, so a crashed gateway recovers exactly like
a crashed ``repro serve``: orphans re-run (deterministically, or answered
from the result store).

With a ``fleet`` (:class:`~repro.fleet.member.FleetMember`) instead, the
gateway is one **replica** of several sharing a sharded queue root:
submissions route by the weighted consistent-hash ring (a spec belonging
to another replica's shard is refused with the owner's address — HTTP 421
``wrong_replica``), durable marks go to lease-fenced per-shard logs, and a
heartbeat thread renews held leases, adopts shards whose drainer died, and
replays the adopted shards' orphans through the normal recovery path.
"""

from __future__ import annotations

import socket
import threading
import warnings
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Set

from repro.fleet.member import FleetMember, WrongReplicaError
from repro.gateway.auth import BearerAuth
from repro.gateway.ratelimit import RateLimiter
from repro.gateway.routes import GatewayDrainingError, GatewayRequestHandler
from repro.gateway.sse import DEFAULT_SUBSCRIBER_LIMIT, EventBroker, JobEvent
from repro.resilience.errors import MutationFencedError
from repro.serve.job import Job, JobSpec, JobState
from repro.serve.server import InferenceServer
from repro.telemetry.instrument import FLEET_WRONG_REPLICA


class _GatewayHTTPServer(ThreadingHTTPServer):
    #: SSE connections may be parked in a keep-alive wait at shutdown;
    #: daemon threads let the process exit instead of hanging on them.
    daemon_threads = True
    block_on_close = False
    #: Set by :class:`Gateway` after construction.
    gateway: "Gateway"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        #: Open client connections. A kept-alive one outlives its request,
        #: so :meth:`end_connections` must end it at shutdown.
        self._connections: Set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Stop reading every open connection: an idle kept one closes
        now, one mid-request answers first (an event stream runs on to
        its terminal event)."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile


class Gateway:
    """HTTP front door plus queue drainer over one inference server."""

    def __init__(
        self,
        server: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tokens=None,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
        file_queue=None,
        fleet: Optional[FleetMember] = None,
        sse_keepalive: float = 15.0,
        sse_subscriber_limit: int = DEFAULT_SUBSCRIBER_LIMIT,
    ) -> None:
        if fleet is not None and file_queue is not None:
            raise ValueError(
                "pass either file_queue (single durable log) or fleet "
                "(sharded leased logs), not both"
            )
        self.server = server
        self.registry = server.registry
        self.tracer = server.tracer
        self.auth = BearerAuth(tokens) if tokens else None
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
        #: Makes "is this job new?" one step with its submission, so one
        #: handler thread alone publishes a new job's first events, before
        #: any state event of a drain thread.
        self._lock = threading.Lock()
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
        prev_progress = server.on_progress

        def on_state(previous):
            def publish(job: Job) -> None:
                if previous is not None:
                    previous(job)
                with self._lock:
                    self.events.publish(job.job_id, self._state_event(job))

            return publish

        def on_progress(job: Job, event: str, data: Dict) -> None:
            if prev_progress is not None:
                prev_progress(job, event, data)
            payload = {"job_id": job.job_id}
            payload.update(data)
            self.events.publish(job.job_id, JobEvent(event=event, data=payload))

        server.on_job_start = on_state(server.on_job_start)
        server.on_job_finish = on_state(server.on_job_finish)
        server.on_progress = on_progress

    def _log(self, shard: Optional[int]):
        """The durable log a submission is journalled in: the flat queue,
        the shard's lease-fenced log, or None without either."""
        if self.fleet is not None:
            return self.fleet.consumer(shard)
        return self.file_queue

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
        with self._lock:
            known = set(self.server.jobs)
            job = self.server.submit(spec)
            log = self._log(shard)
            if log is not None:
                self.server.journal.record(job, log, entry_id)
            if job.job_id not in known:
                queued = {"job_id": job.job_id,
                          "state": JobState.QUEUED.value, "attempts": 0}
                self.events.publish(
                    job.job_id, JobEvent(event="state", data=queued)
                )
                # Answered from the store: it never reaches a drain thread.
                if job.state is JobState.DONE:
                    self.events.publish(job.job_id, self._state_event(job))
        return job

    def recover(self, entries, shard: Optional[int] = None) -> int:
        """Resubmit a log's recovered entries under their recorded ids;
        returns how many were admitted.

        An entry the server refuses (a full queue, shedding, a drain race)
        is warned about and left unfinished in its log, so a later takeover
        or restart replays it; it never stops the rest, nor the start-up.
        """
        admitted = 0
        for entry in entries:
            try:
                self.submit(entry.spec, entry_id=entry.entry_id, shard=shard)
            except Exception as exc:
                warnings.warn(
                    f"could not resubmit recovered entry {entry.entry_id} "
                    f"(shard {shard}): {exc}",
                    RuntimeWarning,
                )
            else:
                admitted += 1
        return admitted

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
        health["breakers"] = self.server.breakers.snapshot()
        if self.fleet is not None:
            health["replica_id"] = self.replica_id
            health["n_shards"] = self.fleet.topology.n_shards
            health["leases"] = self.fleet.lease_view()
            # What a fleet client routes by: the ring is a pure function
            # of (topology, spec), so it sends each spec to its owner.
            health["topology"] = self.fleet.topology.to_dict()
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
            if self.server.run_next() is None:
                # Nothing runnable: wait, outside run_next, for the queue.
                self.server.queue.wait(self._stop)

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
        self.recover(recovery.entries, shard)

    def _lease_tick(self) -> None:
        lost = self.fleet.renew_all()
        if lost:
            warnings.warn(
                f"replica {self.replica_id!r} lost shard lease(s) {lost}",
                RuntimeWarning,
            )
        if not self.draining:
            for shard in self.fleet.takeover_scan():
                self._recover_shard(shard)

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
        "last" iteration, so each job parks as RETRYING (held while the
        halt stands) and a later server resumes it from the checkpoint,
        bit-identical. Follow with :meth:`stop` to join the threads.
        """
        self._draining.set()
        self.server.pool.request_halt()

    def stop(self, timeout: float = 30.0) -> List[str]:
        """Stop the HTTP and drain threads; returns names of stuck threads.

        A thread still alive after its bounded join is *reported* — named
        in the returned list and warned about — never silently abandoned:
        a caller about to exit needs to know a drain thread is still
        mid-job (its checkpoint may be incomplete).
        """
        self._stop.set()
        self.server.queue.wake()
        self.http.shutdown()
        # A client's kept connection must not go on reaching a stopped
        # gateway's handlers.
        self.http.end_connections()
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
