"""The No-U-Turn Sampler (Hoffman & Gelman, 2014).

This is the "efficient NUTS with dual averaging" variant (Algorithm 6 of the
paper), the configuration Stan ships as its default engine and the one the
ISPASS paper characterizes. Trajectories are built by recursive doubling
until the no-U-turn criterion triggers; candidate points are drawn by slice
sampling within the trajectory, so no accept/reject of whole trajectories is
needed.

The per-iteration number of leapfrog steps — the quantity that makes NUTS
iterations "more computationally expensive" but better-mixing than MH (paper
Section II-B) and that makes chain latencies unequal (Section VI-A) — is
recorded in ``ChainResult.work_per_iteration``.

Like HMC, the iteration logic is a resumable step generator (``NUTS._steps``
behind ``sample_steps``, with the tree recursion delegating through ``yield
from``) on the shared chain scaffold and warmup; the inherited ``sample_chain``
drives it sequentially and :mod:`repro.batch` drives many chains at once.
Trajectory lengths differ from chain to chain, so the chains of a batched
group finish at different rounds; a finished chain simply stops sending
requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inference.chain import ChainLoop, ChainSampler
from repro.inference.hmc import kinetic_energy, leapfrog_steps, open_chain_steps

# Energy-error threshold beyond which a trajectory counts as divergent
# (Stan uses the same constant, Delta_max = 1000).
DELTA_MAX = 1000.0


@dataclass
class _Tree:
    """State carried by the recursive doubling procedure."""

    x_minus: np.ndarray
    p_minus: np.ndarray
    grad_minus: np.ndarray
    x_plus: np.ndarray
    p_plus: np.ndarray
    grad_plus: np.ndarray
    x_prop: np.ndarray
    logp_prop: float
    grad_prop: np.ndarray
    n_valid: int
    keep_going: bool
    sum_accept: float
    n_states: int
    n_evals: int
    diverged: bool


def _no_u_turn(x_minus, x_plus, p_minus, p_plus, inv_mass) -> bool:
    """True while the trajectory has not doubled back on itself."""
    span = x_plus - x_minus
    return (
        float(span @ (inv_mass * p_minus)) >= 0.0
        and float(span @ (inv_mass * p_plus)) >= 0.0
    )


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
            log_u = joint0 + np.log(rng.uniform())

            x_minus = x_plus = x
            p_minus = p_plus = momentum
            grad_minus = grad_plus = grad
            x_sample, logp_sample, grad_sample = x, logp, grad
            n_valid = 1
            keep_going = True
            depth = 0
            evals = 0
            sum_accept = 0.0
            n_states = 0
            diverged = False

            while keep_going and depth < self.max_tree_depth:
                direction = 1 if rng.uniform() < 0.5 else -1
                if direction == -1:
                    tree = yield from self._build_tree_steps(
                        x_minus, p_minus, grad_minus, log_u,
                        direction, depth, step, inv_mass, joint0, rng,
                    )
                    x_minus, p_minus, grad_minus = (
                        tree.x_minus, tree.p_minus, tree.grad_minus,
                    )
                else:
                    tree = yield from self._build_tree_steps(
                        x_plus, p_plus, grad_plus, log_u,
                        direction, depth, step, inv_mass, joint0, rng,
                    )
                    x_plus, p_plus, grad_plus = (
                        tree.x_plus, tree.p_plus, tree.grad_plus,
                    )

                evals += tree.n_evals
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
                keep_going = (
                    tree.keep_going
                    and _no_u_turn(x_minus, x_plus, p_minus, p_plus, inv_mass)
                )
                depth += 1

            x, logp, grad = x_sample, logp_sample, grad_sample
            loop.traces["tree_depths"][t] = depth
            if diverged:
                divergences += 1

            accept_prob = sum_accept / max(n_states, 1)
            accept_stat_total += accept_prob

            yield from warmup.update_steps(t, x, accept_prob, rng)
            if not loop.record(t, x, logp, max(evals, 1)):
                break

        return loop.result(
            accept_rate=accept_stat_total / loop.n_iterations,
            divergences=divergences,
            step_size=warmup.step,
        )

    def _build_tree_steps(
        self,
        x: np.ndarray,
        momentum: np.ndarray,
        grad: np.ndarray,
        log_u: float,
        direction: int,
        depth: int,
        step_size: float,
        inv_mass: np.ndarray,
        joint0: float,
        rng: np.random.Generator,
    ):
        """Recursive doubling as a step generator; returns the :class:`_Tree`.

        Each leapfrog's gradient evaluation surfaces through ``yield from``,
        so the whole recursion suspends and resumes around external
        (possibly batched) evaluations without altering its RNG sequencing.
        """
        if depth == 0:
            # Base case: one leapfrog step in the chosen direction.
            x_new, p_new, logp_new, grad_new, n_evals = yield from leapfrog_steps(
                x, momentum, grad, direction * step_size, inv_mass
            )
            joint_new = (
                logp_new - kinetic_energy(p_new, inv_mass)
                if np.isfinite(logp_new)
                else -np.inf
            )
            n_valid = int(log_u <= joint_new)
            diverged = bool(log_u - DELTA_MAX > joint_new)
            accept = float(np.exp(min(0.0, joint_new - joint0))) if np.isfinite(joint_new) else 0.0
            return _Tree(
                x_minus=x_new, p_minus=p_new, grad_minus=grad_new,
                x_plus=x_new, p_plus=p_new, grad_plus=grad_new,
                x_prop=x_new, logp_prop=logp_new, grad_prop=grad_new,
                n_valid=n_valid, keep_going=not diverged,
                sum_accept=accept, n_states=1, n_evals=n_evals,
                diverged=diverged,
            )

        # Recursion: build left and right subtrees.
        left = yield from self._build_tree_steps(
            x, momentum, grad, log_u, direction, depth - 1,
            step_size, inv_mass, joint0, rng,
        )
        if not left.keep_going:
            return left

        if direction == -1:
            right = yield from self._build_tree_steps(
                left.x_minus, left.p_minus, left.grad_minus,
                log_u, direction, depth - 1, step_size, inv_mass, joint0, rng,
            )
            x_minus, p_minus, grad_minus = (
                right.x_minus, right.p_minus, right.grad_minus,
            )
            x_plus, p_plus, grad_plus = left.x_plus, left.p_plus, left.grad_plus
        else:
            right = yield from self._build_tree_steps(
                left.x_plus, left.p_plus, left.grad_plus,
                log_u, direction, depth - 1, step_size, inv_mass, joint0, rng,
            )
            x_plus, p_plus, grad_plus = right.x_plus, right.p_plus, right.grad_plus
            x_minus, p_minus, grad_minus = (
                left.x_minus, left.p_minus, left.grad_minus,
            )

        n_valid = left.n_valid + right.n_valid
        if right.n_valid > 0 and rng.uniform() < right.n_valid / max(n_valid, 1):
            x_prop, logp_prop, grad_prop = (
                right.x_prop, right.logp_prop, right.grad_prop,
            )
        else:
            x_prop, logp_prop, grad_prop = left.x_prop, left.logp_prop, left.grad_prop

        keep_going = (
            right.keep_going
            and _no_u_turn(x_minus, x_plus, p_minus, p_plus, inv_mass)
        )
        return _Tree(
            x_minus=x_minus, p_minus=p_minus, grad_minus=grad_minus,
            x_plus=x_plus, p_plus=p_plus, grad_plus=grad_plus,
            x_prop=x_prop, logp_prop=logp_prop, grad_prop=grad_prop,
            n_valid=n_valid, keep_going=keep_going,
            sum_accept=left.sum_accept + right.sum_accept,
            n_states=left.n_states + right.n_states,
            n_evals=left.n_evals + right.n_evals,
            diverged=left.diverged or right.diverged,
        )
