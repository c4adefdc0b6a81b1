"""The one job queue: queued jobs and parked retries, one wait for both.

Queued jobs go by descending priority, FIFO within a priority level; a
parked retry is handed out once its backoff ends, before any queued job,
and one a graceful-drain halt parked once no halt stands. Admission
control is a hard cap on queued jobs (a parked retry was admitted
already): a service must shed load at the front door, not by collapsing
under it. Duplicate submissions never reach the queue: the server folds
them onto their in-flight twin. Handler threads push while drain threads
pop, under one condition that a push, a park, a cleared halt or a stop
wakes at once; only the earliest backoff bounds a wait, so a fresh job
never waits out another job's backoff.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional

# Canonical home is the dependency-free repro.resilience.errors leaf;
# re-exported here because queue admission was its first caller and the
# rest of the codebase imports it from this module.
from repro.resilience.errors import AdmissionError
from repro.serve.job import Job


class JobQueue:
    """Bounded priority queue over :class:`Job`, with parked retries;
    ``halted()`` tells whether a graceful-drain halt stands."""

    def __init__(
        self,
        max_pending: Optional[int] = 64,
        halted: Callable[[], bool] = lambda: False,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self.max_pending = max_pending
        self._halted = halted
        #: Queued: (-priority, seq, job); parked: (due_monotonic, seq, job).
        self._heap: List[tuple] = []
        self._parked: List[tuple] = []
        #: Parked by a halt, in park order.
        self._held: List[Job] = []
        self._counter = itertools.count()
        self._ready = threading.Condition()

    def __len__(self) -> int:
        with self._ready:
            return len(self._heap)

    def push(self, job: Job) -> Job:
        """Admit a job (returned, for chaining)."""
        with self._ready:
            if self.max_pending is not None and len(self._heap) >= self.max_pending:
                raise AdmissionError(
                    f"queue is full ({self.max_pending} pending jobs); "
                    f"rejecting {job.spec.workload!r}"
                )
            heapq.heappush(
                self._heap, (-job.spec.priority, next(self._counter), job)
            )
            self._ready.notify_all()
            return job

    def park(self, job: Job, delay: Optional[float]) -> None:
        """Park a retry due in ``delay`` seconds (None: parked by a halt)."""
        with self._ready:
            if delay is None:
                self._held.append(job)
            else:
                heapq.heappush(self._parked, (
                    time.monotonic() + delay, next(self._counter), job,
                ))
            self._ready.notify_all()

    def wake(self) -> None:
        with self._ready:
            self._ready.notify_all()

    def pop(self) -> Optional[Job]:
        """A due retry (a halted job once no halt stands, first), else the
        head of the queue; while only retries backing off remain, waits
        for the earliest. None when nothing runnable is left."""
        with self._ready:
            while True:
                if self._held and not self._halted():
                    return self._held.pop(0)
                now = time.monotonic()
                if self._parked and self._parked[0][0] <= now:
                    return heapq.heappop(self._parked)[2]
                if self._heap:
                    return heapq.heappop(self._heap)[2]
                if not self._parked:
                    return None
                self._ready.wait(self._parked[0][0] - now)

    def wait(self, stop: threading.Event) -> None:
        """Block until :meth:`pop` has a job to hand out or wait for, or
        ``stop`` is set (whoever sets it calls :meth:`wake`)."""
        with self._ready:
            while not (stop.is_set() or self._heap or self._parked
                       or self._held and not self._halted()):
                self._ready.wait()

    def snapshot(self) -> List[Job]:
        """Queued jobs in pop order (for status displays)."""
        with self._ready:
            return [entry[2] for entry in sorted(self._heap)]
