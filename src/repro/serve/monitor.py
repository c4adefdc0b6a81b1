"""Online convergence monitoring for running jobs.

This is the serving-side counterpart of :class:`repro.core.elision.
ConvergenceDetector`: instead of replaying a recorded run post-hoc, the
monitor consumes draw blocks streamed back from the worker pool and evaluates
the Gelman-Rubin diagnostic (via :class:`repro.core.elision.OnlineRhat`, on
the second half of the draws seen so far) each time every chain has crossed
the next checkpoint. The first time max R-hat drops below the threshold it
reports the kept-iteration to stop at, and the server broadcasts that stop
point to the workers — the paper's computation elision, applied mid-run.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.elision import RHAT_THRESHOLD, OnlineRhat
from repro.telemetry.instrument import (
    MONITOR_CHECKS,
    MONITOR_CONVERGED_KEPT,
    MONITOR_RHAT,
)


class ConvergenceMonitor:
    """Feed post-warmup draws in; get a stop decision out.

    With a ``registry``, every checkpoint evaluation streams into telemetry:
    the latest max R-hat as a gauge (labelled by ``job_id``), a checkpoint
    counter, and — once — the kept iteration at which the monitor converged.
    """

    def __init__(
        self,
        n_chains: int,
        dim: int,
        rhat_threshold: float = RHAT_THRESHOLD,
        check_interval: int = 20,
        min_kept: int = 40,
        registry=None,
        job_id: Optional[str] = None,
    ) -> None:
        if n_chains < 2:
            raise ValueError("convergence monitoring requires >= 2 chains")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.rhat_threshold = rhat_threshold
        self.check_interval = check_interval
        self.min_kept = min_kept
        self._online = OnlineRhat(n_chains, dim)
        self._next_check = max(min_kept, check_interval)
        self.checkpoints: List[int] = []
        self.rhat_trace: List[float] = []
        self.converged_kept: Optional[int] = None
        self._labels = {"job": job_id} if job_id else None
        self._registry = registry

    @property
    def converged(self) -> bool:
        return self.converged_kept is not None

    def reset_chain(self, chain_index: int) -> None:
        """Forget one chain's draws ahead of a deterministic re-feed.

        Called when the serving layer restarts a lost chain: the restarted
        worker re-emits the chain's kept draws from the beginning (or from
        its checkpoint prefix), and since the replay is bit-identical to the
        lost stream, checkpoints already evaluated remain exactly valid —
        only the pending draws need re-collecting, so ``_next_check`` and
        the recorded traces stay untouched.
        """
        self._online.reset_chain(chain_index)

    def observe(self, chain_index: int, kept_block: np.ndarray) -> Optional[int]:
        """Add one chain's block of kept draws; evaluate due checkpoints.

        Returns the kept-iteration to stop at the first time convergence is
        detected, else None. Blocks may arrive in any chain order and any
        size; checkpoints fire once *every* chain has reached them.
        """
        for draw in np.atleast_2d(kept_block):
            self._online.update(chain_index, draw)
        if self.converged:
            return None

        decided: Optional[int] = None
        while self._online.n_draws >= self._next_check:
            rhat = self._online.rhat_at(self._next_check)
            self.checkpoints.append(self._next_check)
            self.rhat_trace.append(rhat)
            self._record(rhat)
            if rhat < self.rhat_threshold and not self.converged:
                self.converged_kept = self._next_check
                decided = self._next_check
                if self._registry is not None:
                    self._registry.gauge(
                        MONITOR_CONVERGED_KEPT, self._labels,
                    ).set(self._next_check)
            self._next_check += self.check_interval
            if decided is not None:
                break
        return decided

    def _record(self, rhat: float) -> None:
        if self._registry is None:
            return
        self._registry.gauge(MONITOR_RHAT, self._labels).set(rhat)
        self._registry.counter(MONITOR_CHECKS, self._labels).inc()
