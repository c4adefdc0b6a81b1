"""Static Hamiltonian Monte Carlo.

The paper reports HMC's single-core characteristics as "very similar to
NUTS" (Section IV-A); this engine exists both for that comparison bench and
as the shared substrate (leapfrog integrator, kinetic energy, warmup
adaptation) on which NUTS builds.

The iteration logic lives in :meth:`HMC.sample_steps`, a resumable step
generator (see :mod:`repro.inference.stepper`): it yields each position it
needs a gradient for and receives the result via ``send``.
:meth:`HMC.sample_chain` drives it sequentially — bit-identical to the
classic inline loop — while :mod:`repro.batch` drives many chains' step
generators against one batched tape replay.
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
from repro.inference.results import ChainResult, IterationHook, StateCapture
from repro.inference.stepper import drive_steps

LogpGrad = Callable[[np.ndarray], Tuple[float, np.ndarray]]


def kinetic_energy(momentum: np.ndarray, inv_mass: np.ndarray) -> float:
    """0.5 p^T M^{-1} p with a diagonal metric.

    Overflow (a runaway trajectory) maps to +inf, which the callers treat as
    a divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(0.5 * np.sum(momentum * momentum * inv_mass))


def leapfrog_steps(
    x: np.ndarray,
    momentum: np.ndarray,
    grad: np.ndarray,
    step_size: float,
    inv_mass: np.ndarray,
):
    """Step-generator form of one leapfrog step.

    Yields the new position and receives its ``(logp, grad)``; returns
    ``(x', p', logp', grad', n_gradient_evals)``.
    """
    p_half = momentum + 0.5 * step_size * grad
    x_new = x + step_size * inv_mass * p_half
    logp_new, grad_new = yield x_new
    p_new = p_half + 0.5 * step_size * grad_new
    return x_new, p_new, logp_new, grad_new, 1


def leapfrog(
    logp_and_grad: LogpGrad,
    x: np.ndarray,
    momentum: np.ndarray,
    grad: np.ndarray,
    step_size: float,
    inv_mass: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray, int]:
    """One leapfrog step; returns (x', p', logp', grad', n_gradient_evals)."""
    return drive_steps(
        leapfrog_steps(x, momentum, grad, step_size, inv_mass), logp_and_grad
    )


@dataclass
class HMC:
    """Static-trajectory HMC with dual-averaging step-size adaptation."""

    n_leapfrog: int = 16
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

        if resume_state is not None:
            start = restore_sampler_prefix(
                resume_state, "hmc", rng,
                samples=samples, logps=logps, work=work,
            )
            x = np.array(resume_state["x"], dtype=float)
            logp = float(resume_state["logp"])
            grad = np.array(resume_state["grad"], dtype=float)
            inv_mass = np.array(resume_state["inv_mass"], dtype=float)
            step = float(resume_state["step"])
            adapter = DualAveraging.from_state(resume_state["adapter"])
            welford = WelfordVariance.from_state(resume_state["welford"])
            accepts = int(resume_state["accepts"])
            divergences = int(resume_state["divergences"])
        else:
            start = 0
            inv_mass = np.ones(dim)
            step = yield from find_reasonable_step_size_steps(x0, rng, inv_mass)
            adapter = DualAveraging(step, target=self.target_accept)
            welford = WelfordVariance(dim)
            x = np.asarray(x0, dtype=float).copy()
            logp, grad = yield x
            accepts = 0
            divergences = 0

        if state_capture is not None:
            def snapshot() -> dict:
                return {
                    "engine": "hmc",
                    "t": t,
                    "samples": samples[:t + 1].copy(),
                    "logps": logps[:t + 1].copy(),
                    "work": work[:t + 1].copy(),
                    "x": x.copy(),
                    "logp": logp,
                    "grad": grad.copy(),
                    "rng": rng.bit_generator.state,
                    "step": step,
                    "inv_mass": inv_mass.copy(),
                    "adapter": adapter.state_dict(),
                    "welford": welford.state_dict(),
                    "accepts": accepts,
                    "divergences": divergences,
                }
            state_capture.bind(snapshot)

        hook_wants_stats = getattr(iteration_hook, "wants_stats", False)
        for t in range(start, n_iterations):
            momentum = rng.normal(size=dim) / np.sqrt(inv_mass)
            joint0 = logp - kinetic_energy(momentum, inv_mass)

            x_prop, p_prop, logp_prop, grad_prop = x, momentum, logp, grad
            evals = 1  # count the initial state's cached evaluation as free; 1 for bookkeeping
            diverged = False
            for _ in range(self.n_leapfrog):
                x_prop, p_prop, logp_prop, grad_prop, n_evals = yield from (
                    leapfrog_steps(x_prop, p_prop, grad_prop, step, inv_mass)
                )
                evals += n_evals
                if not np.isfinite(logp_prop):
                    diverged = True
                    break

            if diverged:
                accept_prob = 0.0
                divergences += 1
            else:
                joint_prop = logp_prop - kinetic_energy(p_prop, inv_mass)
                accept_prob = float(min(1.0, np.exp(joint_prop - joint0)))

            accepted = rng.uniform() < accept_prob
            if accepted:
                x, logp, grad = x_prop, logp_prop, grad_prop
                accepts += 1

            samples[t] = x
            logps[t] = logp
            work[t] = evals

            if t < n_warmup:
                step = adapter.update(accept_prob)
                if self.adapt_mass:
                    # Skip the initial transient (Stan's "fast" interval).
                    if t >= n_warmup // 4:
                        welford.update(x)
                    # Refresh the metric twice during warmup, Stan-window style.
                    if t in (n_warmup // 2, (3 * n_warmup) // 4) and welford.count > 10:
                        inv_mass = welford.variance()
                        welford.reset()
                        # Restart step-size adaptation under the new metric.
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
                        "divergent": diverged,
                        # The binary acceptance matches the snapshot's
                        # cumulative ``accepts`` scalar, which seeds resumed
                        # telemetry.
                        "accept": 1.0 if accepted else 0.0,
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
            accept_rate=accepts / n_iterations,
            divergences=divergences,
            step_size=step,
        )
