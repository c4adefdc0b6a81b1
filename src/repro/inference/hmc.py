"""Static Hamiltonian Monte Carlo.

The paper reports HMC's single-core characteristics as "very similar to
NUTS" (Section IV-A); this engine exists both for that comparison bench and
as the shared substrate (leapfrog integrator, kinetic energy, warmup
adaptation) on which NUTS builds.

The iteration logic is ``HMC._steps``, a resumable step generator (see
:mod:`repro.inference.stepper`): it yields each position it needs a gradient
for and receives the result via ``send``. The inherited ``sample_chain``
drives it sequentially — bit-identical to the classic inline loop — while
:mod:`repro.batch` drives many chains' ``sample_steps`` against one batched
tape replay. Around the transition sit :class:`~repro.inference.chain.ChainLoop`
and the warmup schedule, :class:`~repro.inference.adaptation.WindowedWarmup`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inference.adaptation import (
    WindowedWarmup,
    find_reasonable_step_size_steps,
)
from repro.inference.chain import ChainLoop, ChainSampler


def kinetic_energy(momentum: np.ndarray, inv_mass: np.ndarray) -> float:
    """0.5 p^T M^{-1} p with a diagonal metric.

    Overflow (a runaway trajectory) maps to +inf, which the callers treat as
    a divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(0.5 * np.add.reduce(momentum * momentum * inv_mass))


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


def open_chain_steps(sampler, loop: ChainLoop):
    """Step generator opening an HMC-family chain on ``loop``.

    Returns ``(warmup, logp, grad, divergences)``: the sampler's warmup
    adaptation, the cached evaluation at ``loop.x`` and the divergence count
    — restored from the snapshot being resumed, else a unit metric, a probed
    step, a fresh evaluation and zero.
    """
    schedule = loop.n_warmup, sampler.target_accept, sampler.adapt_mass
    state = loop.state
    if state is not None:
        warmup = WindowedWarmup.from_state(state, *schedule)
        grad = np.array(state["grad"], dtype=float)
        return warmup, float(state["logp"]), grad, int(state["divergences"])
    inv_mass = np.ones(loop.x.shape[0])
    step = yield from find_reasonable_step_size_steps(loop.x, loop.rng, inv_mass)
    logp, grad = yield loop.x
    return WindowedWarmup(step, inv_mass, *schedule), logp, grad, 0


@dataclass
class HMC(ChainSampler):
    """Static-trajectory HMC with dual-averaging step-size adaptation."""

    n_leapfrog: int = 16
    target_accept: float = 0.8
    adapt_mass: bool = True

    engine = "hmc"
    gradient = True

    def _steps(self, loop: ChainLoop):
        rng, dim = loop.rng, loop.x.shape[0]
        x, state = loop.x, loop.state
        warmup, logp, grad, divergences = yield from open_chain_steps(self, loop)
        accepts = 0 if state is None else int(state["accepts"])

        loop.bind(
            state=lambda: {
                **warmup.state_dict(),
                "grad": grad.copy(),
                "accepts": accepts,
                "divergences": divergences,
            },
            stats=lambda: {
                "work": loop.work[t],
                "divergent": diverged,
                # The binary acceptance matches the snapshot's cumulative
                # ``accepts`` scalar, which seeds resumed telemetry.
                "accept": 1.0 if accepted else 0.0,
                "step_size": warmup.step,
            },
        )
        for t in range(loop.start, loop.n_iterations):
            step, inv_mass = warmup.step, warmup.inv_mass
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
                accept_prob = float(np.exp(min(0.0, joint_prop - joint0)))

            accepted = rng.uniform() < accept_prob
            if accepted:
                x, logp, grad = x_prop, logp_prop, grad_prop
                accepts += 1

            yield from warmup.update_steps(t, x, accept_prob, rng)
            if not loop.record(t, x, logp, evals):
                break

        return loop.result(
            accept_rate=accepts / loop.n_iterations,
            divergences=divergences,
            step_size=warmup.step,
        )
