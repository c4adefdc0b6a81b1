"""Univariate slice sampling with coordinate-wise updates (Neal 2003).

One of the "other sampling algorithms" the paper lists alongside NUTS
(Section VIII). Gradient-free like Metropolis-Hastings but with no proposal
scale to tune: each coordinate is updated by the stepping-out / shrinkage
procedure. One iteration updates every coordinate once; the per-iteration
work recorded is the number of density evaluations, which varies with the
local scale — another source of the chain-imbalance effects the paper
studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inference.chain import ChainLoop, ChainSampler


def _trial(x: np.ndarray, k: int, value: float) -> np.ndarray:
    """A copy of ``x`` with coordinate ``k`` set to ``value``."""
    trial = x.copy()
    trial[k] = value
    return trial


@dataclass
class SliceSampler(ChainSampler):
    """Coordinate-wise slice sampler with stepping out and shrinkage."""

    initial_width: float = 1.0
    max_step_out: int = 16
    adapt_width: bool = True

    engine = "slice"
    gradient = False

    def _steps(self, loop: ChainLoop):
        rng, n_warmup, dim = loop.rng, loop.n_warmup, loop.x.shape[0]
        x, state = loop.x, loop.state
        logp = (yield x) if state is None else float(state["logp"])
        widths = (np.full(dim, self.initial_width) if state is None
                  else np.array(state["widths"], dtype=float))

        loop.bind(
            state=lambda: {"widths": widths.copy()},
            stats=lambda: {
                "work": iteration_evals,
                # Slice sampling always lands in the slice.
                "accept": 1.0,
                "step_size": float(widths.mean()),
            },
        )
        for t in range(loop.start, loop.n_iterations):
            iteration_evals = 0
            for k in range(dim):
                # Slice level in log space.
                log_u = logp + np.log(rng.uniform())

                # Step out around the current point.
                width = widths[k]
                left = x[k] - width * rng.uniform()
                right = left + width
                steps = 0
                while steps < self.max_step_out:
                    if (yield _trial(x, k, left)) <= log_u:
                        break
                    left -= width
                    steps += 1
                    iteration_evals += 1
                while steps < self.max_step_out:
                    if (yield _trial(x, k, right)) <= log_u:
                        break
                    right += width
                    steps += 1
                    iteration_evals += 1
                iteration_evals += 2

                # Shrinkage until an in-slice point is found.
                interval = right - left
                while True:
                    proposal = left + rng.uniform() * (right - left)
                    logp_proposal = yield _trial(x, k, proposal)
                    iteration_evals += 1
                    if logp_proposal > log_u:
                        x[k] = proposal
                        logp = logp_proposal
                        break
                    if proposal < x[k]:
                        left = proposal
                    else:
                        right = proposal
                    if right - left < 1e-12 * max(interval, 1.0):
                        # Degenerate slice: keep the current point.
                        logp = yield x
                        iteration_evals += 1
                        break

                if self.adapt_width and t < n_warmup:
                    # Robbins-Monro drift of the width toward the accepted
                    # interval size.
                    widths[k] += ((right - left) - widths[k]) / np.sqrt(t + 1.0)
                    widths[k] = float(np.clip(widths[k], 1e-6, 1e3))

            if not loop.record(t, x, logp, iteration_evals):
                break

        return loop.result(
            accept_rate=1.0,   # slice sampling always moves within the slice
            step_size=float(widths.mean()),
        )
