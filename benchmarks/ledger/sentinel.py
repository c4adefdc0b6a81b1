"""The machine-speed reference: a fixed loop sampled all through a run.

This box is a few cores of a shared host, and the host changes speed under
it: the wall time of *identical* work drifts by 30-60 % over minutes (a
fixed 1 s sampling run took anything from 0.64 to 1.6 s within four
minutes), in states that last from seconds to minutes, so medians within a
run do not reject it and runs of the same code spread 15-28 % — as much as
any bound the benchmark could set. What slows the program slows a
reference loop alike, so the ledger reports every time divided by it:

    reference seconds = wall seconds x NOMINAL_MS / (reading, same interval)

A child process times a fixed pure-Python + numpy loop (~3.5 ms of work, a
*probe*) every ``PERIOD_S`` from before the stack boots until after it is
shut down, by the wall clock and by its own CPU clock; the parent asks for
the reading over any interval afterwards. The child is its own process so
that it neither holds nor waits for the benchmark's GIL; it uses ~8 % of
one core. Each probe is pinned to the next of the allowed cores in turn:
left to the scheduler a probe wakes on the idle core, and a job that runs
on one thread keeps its own core for a whole run — it is that core's state
(its hyperthread sibling is a neighbour's) that sets the job's speed. On
14 runs of ``small-exact`` with both kinds of child beside the stack, the
pinned one left a spread of 7-8 % where the unpinned one left 9-10 %.

The *reading* is the geometric mean of the probes' mean wall time and
their mean CPU time. Wall time over-reads: woken from sleep beside a busy
stack a probe waits its turn for a core every other time, how often
depending on where the scheduler put whom, not on the host. CPU time
under-reads: it is blind to time the host takes away from the guest. On
the runs compared in ``README.md`` (*Reference seconds*) each was the best
on some workloads and worse than no correction on another; their geometric
mean was never far from the better of the two. It is a correction, not a
cure.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import select
import subprocess
import sys
import time
from typing import List, Tuple

#: Sleep between probes. Perf-counter stamps are CLOCK_MONOTONIC, which
#: child and parent share.
PERIOD_S = 0.035
#: About the reading beside a busy stack on the 2-core box this was written
#: on (the loop alone runs in 3.3 ms). A constant: it only fixes the unit —
#: reference seconds read about like wall seconds there — and never enters
#: a comparison.
NOMINAL_MS = 5.5
#: An interval shorter than this is widened around its middle: a 60 ms
#: fast-tier job holds one probe, its neighbourhood a usable mean.
MIN_WINDOW_S = 1.5


def _probe_forever() -> None:
    """The child: probe, sleep, until the parent writes (or closes) stdin."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((96, 96))
    vector = rng.standard_normal(40_000)
    samples: List[Tuple[float, float, float]] = []
    announced = False
    cores = sorted(os.sched_getaffinity(0))
    while True:
        # Each probe on the next core in turn (see the module docstring).
        os.sched_setaffinity(0, {cores[len(samples) % len(cores)]})
        start = time.perf_counter()
        cpu = time.thread_time()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        for _ in range(20):
            matrix @ matrix
            np.exp(vector).sum()
        cpu = time.thread_time() - cpu
        samples.append((start, time.perf_counter() - start, cpu))
        if not announced:
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            announced = True
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            break
    sys.stdout.write(json.dumps(samples))


class Reference:
    """Starts the probing child; after :meth:`stop`, answers for intervals."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self._child.stdout.readline().strip() != "ready":
            self._child.kill()
            self._child.wait()
            raise RuntimeError("the reference loop did not start")
        self._starts: List[float] = []
        #: Prefix sums of the probes' wall and CPU seconds, one longer
        #: than ``_starts``.
        self._wall: List[float] = [0.0]
        self._cpu: List[float] = [0.0]

    def stop(self) -> None:
        """End the child, wait for it, and take its samples."""
        body, _ = self._child.communicate("\n")
        for start, wall, cpu in json.loads(body or "[]"):
            self._starts.append(start)
            self._wall.append(self._wall[-1] + wall)
            self._cpu.append(self._cpu[-1] + cpu)

    def reading_ms(self, start: float, end: float) -> float:
        """The reading over ``[start, end]``, widened to ``MIN_WINDOW_S``."""
        short = MIN_WINDOW_S - (end - start)
        if short > 0:
            start, end = start - short / 2, end + short / 2
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._starts, end)
        if last <= first:
            raise RuntimeError("no reference probe inside the interval")
        wall = self._wall[last] - self._wall[first]
        cpu = self._cpu[last] - self._cpu[first]
        return 1e3 * math.sqrt(wall * cpu) / (last - first)

    def scale(self, start: float, end: float) -> float:
        """What wall seconds inside ``[start, end]`` are multiplied by."""
        return NOMINAL_MS / self.reading_ms(start, end)


if __name__ == "__main__":
    _probe_forever()
