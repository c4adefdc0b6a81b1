"""Priority job queue with admission control and duplicate detection.

Jobs are ordered by descending priority, FIFO within a priority level.
Admission control is a hard cap on queued jobs — a service absorbing heavy
traffic must shed load at the front door, not by collapsing under it — and
duplicate submissions (same :meth:`JobSpec.key`) are folded onto the already
queued job instead of occupying a second slot.

The queue is thread-safe: the gateway's HTTP handler threads push while
the drain threads pop, so every heap/index mutation happens under one
internal lock (uncontended in the single-threaded CLI path).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, List, Optional

# Canonical home is the dependency-free repro.resilience.errors leaf;
# re-exported here because queue admission was its first caller and the
# rest of the codebase imports it from this module.
from repro.resilience.errors import AdmissionError
from repro.serve.job import Job, JobState


class JobQueue:
    """Bounded priority queue over :class:`Job`."""

    def __init__(self, max_pending: Optional[int] = 64) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self.max_pending = max_pending
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._by_key: Dict[str, Job] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def full(self) -> bool:
        return self.max_pending is not None and len(self._heap) >= self.max_pending

    def push(self, job: Job) -> Job:
        """Admit a job, or return the queued duplicate it folds onto."""
        with self._lock:
            duplicate = self._by_key.get(job.key)
            if duplicate is not None:
                return duplicate
            if self.full:
                raise AdmissionError(
                    f"queue is full ({self.max_pending} pending jobs); "
                    f"rejecting {job.spec.workload!r}"
                )
            heapq.heappush(
                self._heap, (-job.spec.priority, next(self._counter), job)
            )
            self._by_key[job.key] = job
            return job

    def pop(self) -> Optional[Job]:
        """The highest-priority queued job, or None when drained."""
        with self._lock:
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                self._by_key.pop(job.key, None)
                if job.state is JobState.QUEUED:
                    return job
            return None

    def snapshot(self) -> List[Job]:
        """Queued jobs in pop order (for status displays)."""
        with self._lock:
            return [entry[2] for entry in sorted(self._heap)]
