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

Like HMC, the iteration logic is a resumable step generator
(:meth:`NUTS.sample_steps`, with the tree recursion delegating through
``yield from``); ``sample_chain`` drives it sequentially and
:mod:`repro.batch` drives many chains at once. Trajectory lengths differ
from chain to chain, so the chains of a batched group finish at different
rounds; a finished chain simply stops sending requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.inference.adaptation import (
    DualAveraging,
    WelfordVariance,
    find_reasonable_step_size_steps,
)
from repro.inference.chain import model_logp_and_grad, restore_sampler_prefix
from repro.inference.hmc import kinetic_energy, leapfrog_steps
from repro.inference.results import ChainResult, IterationHook, StateCapture
from repro.inference.stepper import drive_steps

LogpGrad = Callable[[np.ndarray], Tuple[float, np.ndarray]]

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
class NUTS:
    """No-U-Turn sampler with Stan-style warmup adaptation."""

    max_tree_depth: int = 10
    target_accept: float = 0.8
    adapt_mass: bool = True

    def sample_chain(
        self,
        model,
        x0: np.ndarray,
        n_iterations: int,
        rng: np.random.Generator,
        n_warmup: int | None = None,
        iteration_hook: IterationHook = None,
        state_capture: StateCapture | None = None,
        resume_state: dict | None = None,
    ) -> ChainResult:
        return drive_steps(
            self.sample_steps(
                x0, n_iterations, rng, n_warmup=n_warmup,
                iteration_hook=iteration_hook, state_capture=state_capture,
                resume_state=resume_state,
            ),
            model_logp_and_grad(model),
        )

    def sample_steps(
        self,
        x0: np.ndarray,
        n_iterations: int,
        rng: np.random.Generator,
        n_warmup: int | None = None,
        iteration_hook: IterationHook = None,
        state_capture: StateCapture | None = None,
        resume_state: dict | None = None,
    ):
        """The chain as a step generator; returns the :class:`ChainResult`."""
        if n_warmup is None:
            n_warmup = n_iterations // 2
        dim = x0.shape[0]

        samples = np.empty((n_iterations, dim))
        logps = np.empty(n_iterations)
        work = np.zeros(n_iterations)
        depths = np.zeros(n_iterations, dtype=int)

        if resume_state is not None:
            start = restore_sampler_prefix(
                resume_state, "nuts", rng,
                samples=samples, logps=logps, work=work,
                tree_depths=depths,
            )
            x = np.array(resume_state["x"], dtype=float)
            logp = float(resume_state["logp"])
            grad = np.array(resume_state["grad"], dtype=float)
            inv_mass = np.array(resume_state["inv_mass"], dtype=float)
            step = float(resume_state["step"])
            adapter = DualAveraging.from_state(resume_state["adapter"])
            welford = WelfordVariance.from_state(resume_state["welford"])
            divergences = int(resume_state["divergences"])
            accept_stat_total = float(resume_state["accept_stat_total"])
        else:
            start = 0
            inv_mass = np.ones(dim)
            step = yield from find_reasonable_step_size_steps(x0, rng, inv_mass)
            adapter = DualAveraging(step, target=self.target_accept)
            welford = WelfordVariance(dim)
            x = np.asarray(x0, dtype=float).copy()
            logp, grad = yield x
            divergences = 0
            accept_stat_total = 0.0

        if state_capture is not None:
            def snapshot() -> dict:
                return {
                    "engine": "nuts",
                    "t": t,
                    "samples": samples[:t + 1].copy(),
                    "logps": logps[:t + 1].copy(),
                    "work": work[:t + 1].copy(),
                    "tree_depths": depths[:t + 1].copy(),
                    "x": x.copy(),
                    "logp": logp,
                    "grad": grad.copy(),
                    "rng": rng.bit_generator.state,
                    "step": step,
                    "inv_mass": inv_mass.copy(),
                    "adapter": adapter.state_dict(),
                    "welford": welford.state_dict(),
                    "divergences": divergences,
                    "accept_stat_total": accept_stat_total,
                }
            state_capture.bind(snapshot)

        hook_wants_stats = getattr(iteration_hook, "wants_stats", False)
        for t in range(start, n_iterations):
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
            samples[t] = x
            logps[t] = logp
            work[t] = max(evals, 1)
            depths[t] = depth
            if diverged:
                divergences += 1

            accept_prob = sum_accept / max(n_states, 1)
            accept_stat_total += accept_prob

            if t < n_warmup:
                step = adapter.update(accept_prob)
                if self.adapt_mass:
                    # Skip the initial transient (Stan's "fast" interval)
                    # so the metric reflects the typical set, not the
                    # approach to it.
                    if t >= n_warmup // 4:
                        welford.update(x)
                    if t in (n_warmup // 2, (3 * n_warmup) // 4) and welford.count > 10:
                        inv_mass = welford.variance()
                        welford.reset()
                        # The metric changed: restart step-size adaptation
                        # from a freshly probed step, as Stan's windowed
                        # warmup does.
                        step = yield from find_reasonable_step_size_steps(
                            x, rng, inv_mass
                        )
                        adapter = DualAveraging(step, target=self.target_accept)
            elif t == n_warmup:
                step = adapter.adapted_step_size

            if iteration_hook is not None:
                if hook_wants_stats:
                    keep_going = iteration_hook(t, samples[t], {
                        "work": work[t],
                        "tree_depth": depth,
                        "divergent": diverged,
                        "accept": accept_prob,
                        "step_size": step,
                    })
                else:
                    keep_going = iteration_hook(t, samples[t])
                if not keep_going:
                    n_iterations = t + 1
                    break

        return ChainResult(
            samples=samples[:n_iterations],
            logps=logps[:n_iterations],
            work_per_iteration=work[:n_iterations],
            n_warmup=n_warmup,
            accept_rate=accept_stat_total / n_iterations,
            divergences=divergences,
            tree_depths=depths[:n_iterations],
            step_size=step,
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
