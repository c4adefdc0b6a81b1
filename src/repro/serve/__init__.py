"""repro.serve — the inference job service.

Turns the repo's offline replay of the paper's optimizations into a
schedulable, interruptible, resumable job service:

* :mod:`repro.serve.job` — job specs, identity keys, and the QUEUED →
  RUNNING → {CONVERGED, DONE, FAILED} lifecycle;
* :mod:`repro.serve.queue` — bounded priority queue with admission
  control;
* :mod:`repro.serve.workers` — the parallel chain worker pool
  (bit-identical to the sequential driver by seeded RNG streams);
* :mod:`repro.serve.monitor` — online stop-rule monitoring for mid-run
  computation elision;
* :mod:`repro.serve.checkpoint` — periodic per-chain sampler-state
  snapshots, the substrate of deterministic chain resume;
* :mod:`repro.serve.store` — the deduplicating result store;
* :mod:`repro.serve.server` — :class:`InferenceServer`, the orchestrator,
  with a :class:`RetryPolicy` that distinguishes transient worker loss from
  deterministic poison failures, and the ``fast | checked | exact``
  amortized serving tiers backed by :mod:`repro.amortize`;
* :mod:`repro.serve.filequeue` — the durable JSONL submit queue behind the
  CLI, with crash recovery of interrupted jobs, and the
  :class:`~repro.serve.filequeue.JobJournal` through which a server makes
  every durable mark.

Scripted fault injection (worker kills, NaN log-densities, hangs) for
rehearsing the failure paths lives in :mod:`repro.resilience.chaos`.

Quick start::

    from repro.serve import InferenceServer

    with InferenceServer(n_workers=4) as server:
        server.submit("12cities", n_iterations=400, scale=0.25)
        server.submit("votes", engine="mh", n_iterations=600)
        for job in server.run_until_drained():
            print(job.state, job.elision)
"""

from repro.serve.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.serve.filequeue import FileJobQueue, QueueEntry, QueueRecovery
from repro.serve.job import ElisionSummary, Job, JobSpec, JobState
from repro.serve.monitor import ConvergenceMonitor
from repro.serve.queue import AdmissionError, JobQueue
from repro.serve.server import InferenceServer, RetryPolicy, classify_failure
from repro.serve.store import ResultStore, StoredResult, stored_provenance
from repro.serve.workers import (
    ChainExecutionError,
    ChainTask,
    ChainWorkerPool,
    JobDeadlineExceeded,
    JobHalted,
    JobStoppedEarly,
    PoisonChainError,
    chain_tasks,
    execute_chain,
    truncate_chain,
)

__all__ = [
    "AdmissionError",
    "CHECKPOINT_VERSION",
    "ChainExecutionError",
    "ChainTask",
    "ChainWorkerPool",
    "CheckpointStore",
    "ConvergenceMonitor",
    "ElisionSummary",
    "FileJobQueue",
    "InferenceServer",
    "Job",
    "JobDeadlineExceeded",
    "JobHalted",
    "JobStoppedEarly",
    "JobQueue",
    "JobSpec",
    "JobState",
    "PoisonChainError",
    "QueueEntry",
    "QueueRecovery",
    "ResultStore",
    "RetryPolicy",
    "StoredResult",
    "chain_tasks",
    "classify_failure",
    "execute_chain",
    "stored_provenance",
    "truncate_chain",
]
