"""The No-U-Turn Sampler (Hoffman & Gelman, 2014).

This is the "efficient NUTS with dual averaging" variant (Algorithm 6 of the
paper), the configuration Stan ships as its default engine and the one the
ISPASS paper characterizes. Trajectories are built by repeated doubling
until the no-U-turn criterion triggers; candidate points are drawn by slice
sampling within the trajectory, so no accept/reject of whole trajectories is
needed.

The per-iteration number of leapfrog steps — the quantity that makes NUTS
iterations "more computationally expensive" but better-mixing than MH (paper
Section II-B) and that makes chain latencies unequal (Section VI-A) — is
recorded in ``ChainResult.work_per_iteration``.

Like HMC, the iteration logic is a resumable step generator (``NUTS._steps``
behind ``sample_steps``) on the shared chain scaffold and warmup; the
inherited ``sample_chain`` drives it sequentially and :mod:`repro.batch`
drives many chains at once. Each doubling is one generator frame
(``_build_tree_steps``) that builds its subtree iteratively, as NumPyro's
iterative NUTS does (Phan, Pradhan & Jankowiak 2019): leaf by leaf, each
finished subtree merged post-order with the left siblings it completes, so
the RNG draws and float sums run in the order of Algorithm 6's recursion
while a leaf's ``yield`` crosses two frames instead of one per tree level.
Trajectory lengths differ from chain to chain, so the chains of a batched
group finish at different rounds; a finished chain simply stops sending
requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.inference.chain import ChainLoop, ChainSampler
from repro.inference.hmc import kinetic_energy, open_chain_steps

# Energy-error threshold beyond which a trajectory counts as divergent
# (Stan uses the same constant, Delta_max = 1000).
DELTA_MAX = 1000.0


class _Subtree(NamedTuple):
    """One doubling's result. ``end`` is its far end, ``(x, p, grad,
    inv_mass * p)``; ``n_states`` is also its gradient evaluations."""

    end: tuple
    x_prop: np.ndarray
    logp_prop: float
    grad_prop: np.ndarray
    n_valid: int
    keep_going: bool
    sum_accept: float
    n_states: int
    diverged: bool


def _no_u_turn(span, ip_a, ip_b) -> bool:
    """True while the trajectory has not doubled back on itself: ``span``
    runs from its minus end to its plus end, ``ip_a`` and ``ip_b`` are
    ``inv_mass * p`` at the two ends, in either order."""
    return span @ ip_a >= 0.0 and span @ ip_b >= 0.0


@dataclass
class NUTS(ChainSampler):
    """No-U-Turn sampler with Stan-style warmup adaptation."""

    max_tree_depth: int = 10
    target_accept: float = 0.8
    adapt_mass: bool = True

    engine = "nuts"
    gradient = True
    tree_depths = True

    def _steps(self, loop: ChainLoop):
        rng, dim = loop.rng, loop.x.shape[0]
        x, state = loop.x, loop.state
        warmup, logp, grad, divergences = yield from open_chain_steps(self, loop)
        accept_stat_total = 0.0 if state is None else float(state["accept_stat_total"])

        loop.bind(
            state=lambda: {
                **warmup.state_dict(),
                "grad": grad.copy(),
                "divergences": divergences,
                "accept_stat_total": accept_stat_total,
            },
            stats=lambda: {
                "work": loop.work[t],
                "tree_depth": depth,
                "divergent": diverged,
                "accept": accept_prob,
                "step_size": warmup.step,
            },
        )
        for t in range(loop.start, loop.n_iterations):
            step, inv_mass = warmup.step, warmup.inv_mass
            momentum = rng.normal(size=dim) / np.sqrt(inv_mass)
            joint0 = logp - kinetic_energy(momentum, inv_mass)
            # Slice variable in log space: log u = joint0 + log(uniform).
            log_u = float(joint0 + np.log(rng.uniform()))

            # The trajectory's minus (-1) and plus (+1) ends.
            ends = dict.fromkeys((-1, 1), (x, momentum, grad, inv_mass * momentum))
            x_sample, logp_sample, grad_sample = x, logp, grad
            n_valid = 1
            keep_going = True
            depth = 0
            sum_accept = 0.0
            n_states = 0
            diverged = False

            while keep_going and depth < self.max_tree_depth:
                direction = 1 if rng.uniform() < 0.5 else -1
                tree = yield from self._build_tree_steps(
                    ends[direction], log_u, direction, depth, step,
                    inv_mass, joint0, rng,
                )
                ends[direction] = tree.end
                sum_accept += tree.sum_accept
                n_states += tree.n_states
                diverged = diverged or tree.diverged

                if tree.keep_going and tree.n_valid > 0:
                    # Progressive multinomial/slice update of the proposal.
                    if rng.uniform() < tree.n_valid / max(n_valid, 1):
                        x_sample = tree.x_prop
                        logp_sample = tree.logp_prop
                        grad_sample = tree.grad_prop
                n_valid += tree.n_valid
                keep_going = tree.keep_going and _no_u_turn(
                    ends[1][0] - ends[-1][0], ends[-1][3], ends[1][3]
                )
                depth += 1

            x, logp, grad = x_sample, logp_sample, grad_sample
            loop.traces["tree_depths"][t] = depth
            if diverged:
                divergences += 1

            accept_prob = sum_accept / max(n_states, 1)
            accept_stat_total += accept_prob

            yield from warmup.update_steps(t, x, accept_prob, rng)
            if not loop.record(t, x, logp, max(n_states, 1)):
                break

        return loop.result(
            accept_rate=accept_stat_total / loop.n_iterations,
            divergences=divergences,
            step_size=warmup.step,
        )

    def _build_tree_steps(
        self,
        end: tuple,
        log_u: float,
        direction: int,
        depth: int,
        step_size: float,
        inv_mass: np.ndarray,
        joint0: float,
        rng: np.random.Generator,
    ):
        """A subtree of ``2**depth`` leapfrogs from ``end`` as a step
        generator; returns the :class:`_Subtree`.

        Leaf ``i`` is one leapfrog (``hmc.leapfrog_steps``' arithmetic),
        then merged with one left sibling off ``stack`` per trailing one
        bit of ``i``: the post-order of the recursive doubling, so every
        ``rng.uniform()`` and every ``sum_accept`` addition comes in its
        order. A subtree that stops (a divergence or a U-turn) is the
        result once merged with every left sibling still on the stack: the
        recursion hands a stopped subtree up unmerged where it is a left
        child and merges it where it is a right one, whose left siblings
        are the stack.
        """
        x, p, grad = end[:3]
        eps = direction * step_size
        half, eps_m = 0.5 * eps, eps * inv_mass
        floor = log_u - DELTA_MAX  # below it a leaf has diverged
        stack = []
        for i in range(1 << depth):
            p_half = p + half * grad
            x = x + eps_m * p_half
            logp, grad = yield x
            p = p_half + half * grad
            ip = inv_mass * p

            joint = logp - kinetic_energy(p, inv_mass) if math.isfinite(logp) else -math.inf
            diverged = bool(floor > joint)
            going = not diverged
            n_valid = int(log_u <= joint)
            sum_accept = float(np.exp(min(0.0, joint - joint0))) if math.isfinite(joint) else 0.0
            n_states = 1
            x_prop, logp_prop, grad_prop = x, logp, grad
            near_x, near_ip = x, ip

            bits = i
            while stack and (bits & 1 or not going):
                (l_x, l_ip, l_xp, l_logp, l_grad, l_valid, l_accept, l_states,
                 l_div) = stack.pop()
                total = l_valid + n_valid
                if not (n_valid > 0 and rng.uniform() < n_valid / max(total, 1)):
                    x_prop, logp_prop, grad_prop = l_xp, l_logp, l_grad
                if going:
                    span = x - l_x if direction == 1 else l_x - x
                    going = _no_u_turn(span, l_ip, ip)
                n_valid, sum_accept = total, l_accept + sum_accept
                n_states += l_states
                diverged = l_div or diverged
                near_x, near_ip = l_x, l_ip
                bits >>= 1
            if not going:
                break
            stack.append((near_x, near_ip, x_prop, logp_prop, grad_prop,
                          n_valid, sum_accept, n_states, diverged))

        return _Subtree(
            (x, p, grad, ip), x_prop, logp_prop, grad_prop,
            n_valid, going, sum_accept, n_states, diverged,
        )
