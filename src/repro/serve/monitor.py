"""Online convergence monitoring for running jobs.

The serving side of the paper's computation elision: the monitor adds the
draw blocks streamed back from the worker pool to the job's live
:class:`repro.core.elision.StopFeed` — the same :class:`~repro.core.elision.
StopRule` the figure benches replay over recorded runs — and streams each
checkpoint the feed evaluates into telemetry. The first time the draws kept
so far pass the rule — max split R-hat below ``RHAT_BELOW`` and min ESS at
or above ``ESS_AT_LEAST`` — the feed's report holds the kept-iteration to
stop at, and the server broadcasts that stop point to the workers — the
paper's computation elision, applied mid-run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.elision import StopFeed
from repro.telemetry.instrument import (
    MONITOR_CHECKS,
    MONITOR_CONVERGED_KEPT,
    MONITOR_RHAT,
)


class ConvergenceMonitor:
    """One job's live stop rule, labelled for telemetry.

    With a ``registry``, every checkpoint evaluation streams into telemetry:
    the latest max R-hat as a gauge (labelled by ``job_id``), a checkpoint
    counter, and — once — the kept iteration at which the job converged.
    """

    def __init__(
        self, feed: StopFeed, registry=None, job_id: Optional[str] = None,
    ) -> None:
        self.feed = feed
        self.report = feed.report
        self._labels = {"job": job_id} if job_id else None
        self._registry = registry

    def observe(
        self, chain_index: int, kept_block: np.ndarray,
    ) -> List[Tuple[int, float]]:
        """Add one chain's block of kept draws; returns the ``(kept,
        rhat)`` checkpoints it brought due. Blocks may arrive in any chain
        order and any size; the stop, once found, is
        ``report.converged_iteration``."""
        evaluated = self.feed.add(chain_index, kept_block)
        if self._registry is not None:
            for _, rhat in evaluated:
                self._registry.gauge(MONITOR_RHAT, self._labels).set(rhat)
                self._registry.counter(MONITOR_CHECKS, self._labels).inc()
            if evaluated and self.report.converged:
                self._registry.gauge(MONITOR_CONVERGED_KEPT, self._labels).set(
                    self.report.converged_iteration
                )
        return evaluated
