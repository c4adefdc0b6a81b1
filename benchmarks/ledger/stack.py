"""Boot the real serving stack in-process and drive jobs through it.

The composition mirrors ``repro serve --http`` with its defaults: an
on-disk :class:`ResultStore`, a directory-backed :class:`GuideStore`, a
``checkpoint_dir``, placement on, a default :class:`AdmissionController`,
and either one :class:`Gateway` over a flat :class:`FileJobQueue` or — for
a fleet workload — two replicas over four leased shard logs, all under one
fresh temp root. No service time is emulated; jobs cost what they cost.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.amortize.guides import GuideStore
from repro.client import FleetClient, GatewayClient
from repro.fleet import FleetBox, FleetMember, FleetPlacement, FleetTopology
from repro.gateway import Gateway
from repro.resilience.admission import AdmissionController
from repro.serve import FileJobQueue, InferenceServer, JobSpec
from repro.serve.store import ResultStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

import trace as ledger_trace
from workloads import FLEET_REPLICAS, FLEET_SHARDS, PlannedJob, Workload

#: Generous: a healthy job answers in seconds; this only bounds a hang.
CLIENT_TIMEOUT_S = 150.0


@dataclass
class Stack:
    """The booted servers, gateways and the client that talks to them."""

    servers: List[InferenceServer]
    gateways: List[Gateway]
    client: object
    topology: Optional[FleetTopology] = None

    def close(self) -> None:
        """Stop HTTP and drain threads, then reap the pool workers."""
        for gateway in self.gateways:
            gateway.stop()
        for server in self.servers:
            server.close()


def _server(root: Path, n_workers: int, on_job_start) -> InferenceServer:
    return InferenceServer(
        n_workers=n_workers,
        store=ResultStore(str(root / "results")),
        checkpoint_dir=str(root / "checkpoints"),
        guide_store=GuideStore(directory=str(root / "guides")),
        admission=AdmissionController(),
        registry=MetricsRegistry(),
        tracer=Tracer(),
        on_job_start=on_job_start,
    )


def _topology(urls) -> FleetTopology:
    per = FLEET_SHARDS // FLEET_REPLICAS
    return FleetTopology(
        n_shards=FLEET_SHARDS,
        boxes=tuple(
            FleetBox(f"r{i}", "skylake", urls[i],
                     tuple(range(i * per, (i + 1) * per)))
            for i in range(FLEET_REPLICAS)
        ),
    )


def boot(
    workload: Workload,
    root: Path,
    on_job_start: Optional[Callable] = None,
) -> Stack:
    """Start the stack for ``workload`` on the fresh directory ``root``.

    ``on_job_start`` is handed to the server *before* the gateway chains
    its own callback onto the same seam, so the traced run sees each job
    start without patching anything.
    """
    if not workload.fleet:
        server = _server(root, workload.n_workers, on_job_start)
        gateway = Gateway(
            server, port=0, file_queue=FileJobQueue(root / "queue.jsonl")
        ).start()
        client = GatewayClient(gateway.url, timeout=CLIENT_TIMEOUT_S)
        return Stack([server], [gateway], client)

    servers, gateways = [], []
    for index in range(FLEET_REPLICAS):
        server = _server(root, workload.n_workers, on_job_start)
        member = FleetMember(
            root / "queue", _topology([None] * FLEET_REPLICAS), f"r{index}"
        )
        servers.append(server)
        gateways.append(Gateway(server, port=0, fleet=member).start())
    # Ports are known only after binding; give every member the real map
    # so a 421 can name the owner's address.
    topology = _topology([gateway.url for gateway in gateways])
    for gateway in gateways:
        gateway.fleet.topology = topology
        gateway.fleet.placement.topology = topology
    client = FleetClient(
        [gateway.url for gateway in gateways], timeout=CLIENT_TIMEOUT_S
    )
    return Stack(servers, gateways, client, topology)


def warmup_specs(workload: Workload, specs: List[Dict], stack: Stack) -> List[Dict]:
    """The warm-up jobs: one per (family, mode) — per replica on a fleet.

    Every replica builds its own models and loads its own guides, so each
    must see each family once before the clock starts; the seed is walked
    forward until the spec hashes to a shard the replica prefers.
    """
    if stack.topology is None:
        return specs
    placement = FleetPlacement(stack.topology)
    out = []
    for spec in specs:
        for box in stack.topology.boxes:
            candidate = dict(spec)
            while placement.shard_for(JobSpec(**candidate)) not in box.shards:
                candidate["seed"] += 1
            out.append(candidate)
    return out


def run_job(client, planned: PlannedJob, recorder=None, keep_draws=False) -> Dict:
    """One closed-loop step: submit, stream to the terminal event, download.

    Latency runs from the submit call to the draws being a numpy array.
    Never raises: a client-side exception is an outcome with ``error`` set.
    """
    outcome: Dict = {
        "spec": planned.spec, "repeat_of": planned.repeat_of,
        "job_id": None, "error": None,
    }
    root = recorder.begin(ledger_trace.ROOT_SPAN) if recorder else None
    start = outcome["submitted_at"] = time.perf_counter()
    try:
        view = client.submit(planned.spec)
        job_id = outcome["job_id"] = view["job_id"]
        if root is not None:
            root.job = job_id
        state = None
        for event, data in client.stream(job_id, timeout=CLIENT_TIMEOUT_S):
            if event == "state":
                state = data["state"]
        result = client.result(job_id, include_draws=True)
        draws = GatewayClient.draws(result)
    except Exception as exc:  # any client-visible failure is a failed job
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["latency_s"] = time.perf_counter() - start
        if root is not None:
            root.error = True
            recorder.end(root)
        return outcome
    outcome["latency_s"] = time.perf_counter() - start
    if root is not None:
        recorder.end(root)
        # Outside the span: sizing the body must not count as latency.
        outcome["result_bytes"] = len(json.dumps(result))

    ess = [row["ess"] for row in result["summary"]]
    elision = result["elision"] or {}
    outcome.update(
        deduped=bool(view["deduped"]),
        stream_state=state,
        state=result["state"],
        tier=(result["provenance"] or {}).get("tier"),
        shape=list(draws.shape),
        expected_shape=[result["n_chains"], result["n_kept"],
                        len(result["param_names"])],
        finite=bool(np.isfinite(draws).all()),
        digest=hashlib.sha1(np.ascontiguousarray(draws).tobytes()).hexdigest(),
        ess_mean=float(np.mean(ess)),
        ess_min=float(np.min(ess)),
        total_work=float(result["total_work"]),
        n_kept=int(result["n_kept"]),
        n_warmup=int(result["n_warmup"]),
        budget_kept=int(elision.get("budget_kept") or result["n_kept"]),
        rhat_checks=len(elision.get("checkpoints") or ()),
    )
    if keep_draws:
        outcome["draws"] = draws
    return outcome


def drive(stack: Stack, clients: List[List[PlannedJob]], recorder=None):
    """The timed phase: one thread per client list, closed loop.

    Returns ``(start, end, outcomes)``: perf-counter stamps of the phase,
    and the outcomes in (client, position) order; the first job of client 0
    keeps its draws for the identity check.
    """
    outcomes: List[List[Dict]] = [[] for _ in clients]

    def loop(index: int) -> None:
        for position, planned in enumerate(clients[index]):
            outcome = run_job(
                stack.client, planned, recorder,
                keep_draws=(index == 0 and position == 0),
            )
            outcome["client"], outcome["position"] = index, position
            outcomes[index].append(outcome)

    threads = [
        threading.Thread(target=loop, args=(index,), name=f"ledger-client-{index}")
        for index in range(len(clients))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return start, end, [outcome for per in outcomes for outcome in per]
