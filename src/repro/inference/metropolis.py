"""Random-walk Metropolis-Hastings — Algorithm 1 of the paper.

Included both as the pedagogical baseline the paper uses to explain the
computation structure (sequential inner sampling loop, embarrassingly
parallel chains) and as a gradient-free fallback engine. Its chain is a
step generator like every engine's: line 4's density evaluation is a
``yield``, answered with the value alone (``gradient = False``).

A chain opened with ``depth > 1`` (:mod:`repro.batch`) asks, while its
driver answers in lists, for its next ``depth`` proposals at once, on the
bet that each of them is rejected (Angelino et al., "Accelerating MCMC via Parallel Predictive
Prefetching"): on that path ``x`` and ``logp`` stay put and the warm-up
scale decays by its reject update, so the proposals are known in advance
but for their noise, which a copy of the chain's RNG draws ahead
(:class:`_RejectPath`). The loop itself still runs one iteration at a
time, drawing from the real RNG, and drops the rest of a block at the
first accept; MH draws ``normal(dim)`` then ``uniform()`` every
iteration whatever the outcome, so a block's rows are exactly the
proposals the chain goes on to make.
"""

from __future__ import annotations

import copy
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

    @property
    def reject_rate(self) -> float:
        return 1.0 - self.target_accept

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
        # A block's answers not yet used, nearest iteration first.
        ahead = []
        path = None  # built at the driver's first list answer
        for t in range(loop.start, loop.n_iterations):
            # Line 4 of Algorithm 1: draw from the proposal density q.
            proposal = x + scale * rng.normal(size=dim)
            if ahead:
                logp_prop = ahead.pop(0)
            else:
                answer = yield (
                    proposal if path is None
                    else path.block(t, proposal, x, scale)
                )
                if isinstance(answer, list):
                    if path is None:
                        path = _RejectPath(self, loop, t)
                    ahead = answer
                    logp_prop = ahead.pop(0)
                else:
                    logp_prop = answer
            # Lines 5-12: Metropolis-Hastings accept/reject.
            log_r = logp_prop - logp
            # random() is uniform()'s one double, without its 0 + 1 * u.
            if np.log(rng.random()) < min(log_r, 0.0):
                x, logp = proposal, logp_prop
                accepts += 1
                accepted = 1.0
                ahead = []  # the block bet on a reject
            else:
                accepted = 0.0

            if self.adapt_scale and t < n_warmup:
                # Robbins-Monro drift of the proposal scale toward the
                # asymptotically optimal random-walk acceptance rate.
                scale = _clipped(scale * np.exp(
                    (accepted - self.target_accept) / np.sqrt(t + 1.0)
                ))

            # One density evaluation per iteration.
            if not loop.record(t, x, logp, 1.0):
                break

        return loop.result(accept_rate=accepts / loop.n_iterations, step_size=scale)


def _clipped(scale) -> float:
    """The proposal scale held to [1e-6, 1e3] (NaN stays NaN, as under
    ``np.clip``)."""
    return float(min(max(scale, 1e-6), 1e3))


class _RejectPath:
    """A chain's proposals for its next iterations if each is rejected.

    The noise of iteration ``i`` is what the chain's RNG will draw then: a
    copy of the RNG, taken between the two draws of the iteration the
    path starts at, makes every later iteration's two draws once, in
    order, keeping the noise in a sliding window, however many blocks
    ask for it.
    """

    def __init__(self, sampler: MetropolisHastings, loop: ChainLoop,
                 t: int) -> None:
        self.depth = loop.depth
        self.n_iterations = loop.n_iterations
        self.adapt_until = loop.n_warmup if sampler.adapt_scale else 0
        self.target_accept = sampler.target_accept
        self._rng = copy.deepcopy(loop.rng)
        self._rng.random()  # iteration t's accept/reject draw
        self._noise = np.empty((32 * self.depth, loop.x.shape[0]))
        # Window row 0 holds iteration _base; _drawn is the next to draw.
        self._base = self._drawn = t + 1
        self._decay = {}  # iteration -> its reject-path scale factor

    def block(self, t: int, proposal: np.ndarray, x: np.ndarray,
              scale: float) -> np.ndarray:
        """Rows ``j = 0 .. k-1``: the proposal of iteration ``t + j`` if
        iterations ``t .. t+j-1`` all reject; row 0 is ``proposal``."""
        k = min(self.depth, self.n_iterations - t)
        noise = self._ahead(t, k - 1)
        block = np.empty((k, x.shape[0]))
        block[0] = proposal
        if t >= self.adapt_until:
            block[1:] = x + scale * noise
            return block
        decay = self._decay
        scales = []
        for i in range(t, t + k - 1):
            if i < self.adapt_until:
                factor = decay.get(i)
                if factor is None:
                    # The loop's factor on a reject, as the loop computes it.
                    factor = decay[i] = np.exp(
                        (0.0 - self.target_accept) / np.sqrt(i + 1.0)
                    )
                scale = _clipped(scale * factor)
            scales.append(scale)
        block[1:] = x + np.array(scales)[:, None] * noise
        return block

    def _ahead(self, t: int, n: int) -> np.ndarray:
        """The noise of the ``n`` iterations after ``t``, shape
        ``(n, dim)``."""
        noise, base, drawn = self._noise, self._base, self._drawn
        end = t + 1 + n
        if end > base + len(noise):
            # Slide the window to start at t (t <= _drawn always).
            noise[:drawn - t] = noise[t - base:drawn - base]
            base = self._base = t
        if drawn < end:
            normal, draw, dim = self._rng.normal, self._rng.random, noise.shape[1]
            for row in range(drawn - base, end - base):
                noise[row] = normal(size=dim)
                draw()  # the iteration's accept/reject draw
            self._drawn = end
        return noise[t + 1 - base:end - base]
