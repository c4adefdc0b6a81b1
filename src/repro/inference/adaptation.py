"""Warmup adaptation: dual-averaging step size and diagonal mass matrix.

Implements the Nesterov dual-averaging scheme of Hoffman & Gelman (2014,
Section 3.2) used by Stan, and an online Welford estimator for the diagonal
of the mass matrix (inverse metric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class _AttributeState:
    """``state_dict``/``from_state`` of an adapter whose whole state is its
    attributes: a plain-data snapshot (arrays copied, both ways) for
    deterministic chain resume."""

    def state_dict(self) -> dict:
        return _copied(vars(self))

    @classmethod
    def from_state(cls, state: dict):
        adapter = cls.__new__(cls)
        vars(adapter).update(_copied(state))
        return adapter


def _copied(state: dict) -> dict:
    return {
        key: value.copy() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


@dataclass
class DualAveraging(_AttributeState):
    """Adapt log step size so average acceptance approaches ``target``.

    Attributes follow the paper's notation: ``gamma`` regularization scale,
    ``t0`` iteration offset, ``kappa`` decay exponent; ``mu`` is the shrink
    target, set to log(10 * initial step size).
    """

    initial_step_size: float
    target: float = 0.8
    gamma: float = 0.05
    t0: float = 10.0
    kappa: float = 0.75

    def __post_init__(self) -> None:
        self.mu = float(np.log(10.0 * self.initial_step_size))
        self.log_step = float(np.log(self.initial_step_size))
        self.log_step_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_prob: float) -> float:
        """Feed one iteration's acceptance statistic; returns new step size."""
        self.count += 1
        m = self.count
        eta = 1.0 / (m + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_prob)
        self.log_step = self.mu - np.sqrt(m) / self.gamma * self.h_bar
        weight = m ** (-self.kappa)
        self.log_step_bar = weight * self.log_step + (1.0 - weight) * self.log_step_bar
        return float(np.exp(self.log_step))

    @property
    def step_size(self) -> float:
        """Current (noisy) step size used while still adapting."""
        return float(np.exp(self.log_step))

    @property
    def adapted_step_size(self) -> float:
        """Smoothed step size to freeze after warmup."""
        return float(np.exp(self.log_step_bar))


class WelfordVariance(_AttributeState):
    """Online mean/variance estimator for diagonal mass adaptation."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def variance(self, regularize: bool = True) -> np.ndarray:
        """Sample variance, optionally shrunk toward 1 as Stan does."""
        if self.count < 2:
            return np.ones(self.dim)
        raw = self.m2 / (self.count - 1)
        if not regularize:
            return raw
        n = self.count
        # Stan's regularization: shrink toward unit metric with weight 5/(n+5).
        return (n / (n + 5.0)) * raw + 1e-3 * (5.0 / (n + 5.0))

    def reset(self) -> None:
        self.count = 0
        self.mean[:] = 0.0
        self.m2[:] = 0.0


def find_reasonable_step_size_steps(x0: np.ndarray, rng: np.random.Generator,
                                    inv_mass: np.ndarray):
    """Step-generator form of :func:`find_reasonable_step_size`.

    Yields each position whose gradient it needs (the probe point and one
    leapfrog step per doubling/halving) and receives ``(logp, grad)`` via
    ``send``; see :mod:`repro.inference.stepper`. Consumes the RNG stream
    identically to the classic function, which is now a thin driver over
    this generator.
    """
    from repro.inference.hmc import kinetic_energy, leapfrog_steps

    step = 1.0
    logp0, grad0 = yield x0
    momentum = rng.normal(size=x0.shape) / np.sqrt(inv_mass)
    joint0 = logp0 - kinetic_energy(momentum, inv_mass)

    x1, p1, logp1, grad1, _ = yield from leapfrog_steps(
        x0, momentum, grad0, step, inv_mass
    )
    joint1 = logp1 - kinetic_energy(p1, inv_mass)
    if not np.isfinite(joint1):
        joint1 = -np.inf
    direction = 1.0 if (joint1 - joint0) > np.log(0.5) else -1.0

    for _ in range(50):
        step *= 2.0 ** direction
        x1, p1, logp1, grad1, _ = yield from leapfrog_steps(
            x0, momentum, grad0, step, inv_mass
        )
        joint1 = logp1 - kinetic_energy(p1, inv_mass)
        if not np.isfinite(joint1):
            joint1 = -np.inf
        if direction * (joint1 - joint0) <= direction * np.log(0.5):
            break
    return float(np.clip(step, 1e-8, 1e3))


@dataclass
class WindowedWarmup:
    """The warmup HMC and NUTS share, and the step and metric it adapts.

    Stan's schedule in miniature: dual averaging moves ``step`` every warmup
    iteration; a Welford window opens after the initial transient
    (``n_warmup // 4``, Stan's "fast" interval, so the metric reflects the
    typical set and not the approach to it) and twice — at ``n_warmup // 2``
    and ``3 * n_warmup // 4`` — becomes the diagonal ``inv_mass``, after
    which the step is re-probed under the new metric and dual averaging
    restarts from it; at ``t == n_warmup`` the smoothed step is frozen.
    """

    step: float
    inv_mass: np.ndarray
    n_warmup: int
    target: float
    adapt_mass: bool

    def __post_init__(self) -> None:
        self.dual = DualAveraging(self.step, target=self.target)
        self.welford = WelfordVariance(self.inv_mass.shape[0])

    def update_steps(self, t: int, x: np.ndarray, accept_prob: float,
                     rng: np.random.Generator):
        """Step generator: adapt on iteration ``t``'s position and
        acceptance statistic (yields only inside a step re-probe)."""
        n_warmup = self.n_warmup
        if t < n_warmup:
            self.step = self.dual.update(accept_prob)
            if self.adapt_mass:
                if t >= n_warmup // 4:
                    self.welford.update(x)
                if (t in (n_warmup // 2, (3 * n_warmup) // 4)
                        and self.welford.count > 10):
                    self.inv_mass = self.welford.variance()
                    self.welford.reset()
                    self.step = yield from find_reasonable_step_size_steps(
                        x, rng, self.inv_mass
                    )
                    self.dual = DualAveraging(self.step, target=self.target)
        elif t == n_warmup:
            self.step = self.dual.adapted_step_size

    def state_dict(self) -> dict:
        """Plain-data snapshot for deterministic chain resume."""
        return {
            "step": self.step,
            "inv_mass": self.inv_mass.copy(),
            "adapter": self.dual.state_dict(),
            "welford": self.welford.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict, *schedule) -> "WindowedWarmup":
        """Restore under ``schedule`` = ``(n_warmup, target, adapt_mass)``."""
        warmup = cls(
            float(state["step"]), np.array(state["inv_mass"], dtype=float),
            *schedule,
        )
        warmup.dual = DualAveraging.from_state(state["adapter"])
        warmup.welford = WelfordVariance.from_state(state["welford"])
        return warmup


def find_reasonable_step_size(logp_and_grad, x0: np.ndarray, rng: np.random.Generator,
                              inv_mass: np.ndarray) -> float:
    """Heuristic initial step size (Hoffman & Gelman, Algorithm 4).

    Doubles/halves the step until one leapfrog step's acceptance crosses 0.5.
    """
    from repro.inference.stepper import drive_steps

    return drive_steps(
        find_reasonable_step_size_steps(x0, rng, inv_mass), logp_and_grad
    )
