"""Random-walk Metropolis-Hastings — Algorithm 1 of the paper.

Included both as the pedagogical baseline the paper uses to explain the
computation structure (sequential inner sampling loop, embarrassingly
parallel chains) and as a gradient-free fallback engine. Its chain is a
step generator like every engine's: line 4's density evaluation is a
``yield``, answered with the value alone (``gradient = False``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inference.chain import ChainLoop, ChainSampler


@dataclass
class MetropolisHastings(ChainSampler):
    """Gaussian random-walk MH with optional warmup scale adaptation."""

    proposal_scale: float = 0.5
    target_accept: float = 0.234
    adapt_scale: bool = True

    engine = "mh"
    gradient = False

    def _steps(self, loop: ChainLoop):
        rng, n_warmup, dim = loop.rng, loop.n_warmup, loop.x.shape[0]
        x, state = loop.x, loop.state
        logp = (yield x) if state is None else float(state["logp"])
        scale = self.proposal_scale if state is None else float(state["scale"])
        accepts = 0 if state is None else int(state["accepts"])

        loop.bind(
            state=lambda: {"scale": scale, "accepts": accepts},
            stats=lambda: {"work": 1.0, "accept": accepted, "step_size": scale},
        )
        for t in range(loop.start, loop.n_iterations):
            # Line 4 of Algorithm 1: draw from the proposal density q.
            proposal = x + scale * rng.normal(size=dim)
            logp_prop = yield proposal
            # Lines 5-12: Metropolis-Hastings accept/reject.
            log_r = logp_prop - logp
            if np.log(rng.uniform()) < min(log_r, 0.0):
                x, logp = proposal, logp_prop
                accepts += 1
                accepted = 1.0
            else:
                accepted = 0.0

            if self.adapt_scale and t < n_warmup:
                # Robbins-Monro drift of the proposal scale toward the
                # asymptotically optimal random-walk acceptance rate.
                scale *= np.exp((accepted - self.target_accept) / np.sqrt(t + 1.0))
                scale = float(np.clip(scale, 1e-6, 1e3))

            # One density evaluation per iteration.
            if not loop.record(t, x, logp, 1.0):
                break

        return loop.result(accept_rate=accepts / loop.n_iterations, step_size=scale)
