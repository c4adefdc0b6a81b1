"""Automatic Differentiation Variational Inference (mean-field ADVI).

The paper's Section II-B discusses variational inference as the main
alternative to sampling: fast, but "no guarantee on convergence to global
optima" and "not as robust as sampling algorithms". This engine makes that
comparison concrete (see ``bench_vi_vs_nuts``): a Gaussian mean-field
approximation on the model's unconstrained space, fit by stochastic
maximization of the ELBO with reparameterized gradients (Kucukelbir et al.
2017) and Adam.

The result is adapted to the library's :class:`SamplingResult` interface by
drawing i.i.d. samples from the fitted approximation, so every diagnostic
and downstream tool works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.inference.chain import model_logp_and_grad
from repro.inference.results import ChainResult, SamplingResult


@dataclass
class AdviResult:
    """Fitted mean-field approximation q(x) = N(mu, diag(exp(log_sigma)^2))."""

    mu: np.ndarray
    log_sigma: np.ndarray
    elbo_trace: List[float] = field(default_factory=list)
    n_gradient_evaluations: int = 0

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """i.i.d. draws from the approximation (unconstrained space)."""
        return self.mu + self.sigma * rng.normal(size=(n, self.mu.size))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log q(x) per row of ``x`` — the diagonal-Gaussian density.

        The importance-ratio denominator for the PSIS tier gate
        (:mod:`repro.amortize.psis`): exact, vectorized, and cheap
        relative to the true-logp numerator.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self.mu) / self.sigma
        return (
            -0.5 * np.sum(z * z, axis=1)
            - float(np.sum(self.log_sigma))
            - 0.5 * self.mu.size * np.log(2.0 * np.pi)
        )

    def to_sampling_result(
        self, model, n_draws: int = 1000, rng: np.random.Generator | None = None
    ) -> SamplingResult:
        """Package q-draws as a SamplingResult for the shared tooling.

        The draws are split into two pseudo-chains so R-hat style
        diagnostics remain computable (they trivially pass: the draws are
        i.i.d. — which is exactly why R-hat cannot detect VI's bias, one of
        the paper's robustness points).
        """
        rng = rng or np.random.default_rng(0)
        draws = self.sample(n_draws, rng)
        half = n_draws // 2
        chains = []
        for part in (draws[:half], draws[half:2 * half]):
            chains.append(
                ChainResult(
                    samples=part,
                    logps=np.zeros(part.shape[0]),
                    work_per_iteration=np.ones(part.shape[0]),
                    n_warmup=0,
                    accept_rate=1.0,
                )
            )
        return SamplingResult(
            model_name=f"{model.name}-advi",
            chains=chains,
            param_names=model.flat_param_names(),
        )


@dataclass
class ADVI:
    """Mean-field ADVI with Adam and Monte Carlo ELBO gradients."""

    n_iterations: int = 2000
    n_mc_samples: int = 4
    learning_rate: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    elbo_every: int = 25

    def fit(
        self, model, rng: np.random.Generator, x0: np.ndarray | None = None,
        evaluate=None,
    ) -> AdviResult:
        """Maximize the ELBO from ``x0`` (or a jittered initial position).

        A step's ``n_mc_samples`` Monte Carlo positions are independent, so
        they are asked for at once: ``evaluate`` maps lane → position to
        lane → ``(logp, gradient)``, the signature of
        :meth:`repro.batch.BatchedEvaluator.evaluate`. The default answers
        each lane with the model's solo evaluator; any ``evaluate`` that
        returns the solo numbers leaves the fit bit-identical.
        """
        dim = model.dim
        if evaluate is None:
            logp_and_grad = model_logp_and_grad(model)

            def evaluate(xs):
                return {lane: logp_and_grad(x) for lane, x in xs.items()}

        mu = (
            np.asarray(x0, dtype=float).copy()
            if x0 is not None
            else model.initial_position(rng, jitter=0.1)
        )
        log_sigma = np.full(dim, -1.0)

        # Adam state over the concatenated (mu, log_sigma) vector.
        params = np.concatenate([mu, log_sigma])
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        n_evals = 0
        result = AdviResult(mu=mu, log_sigma=log_sigma)

        # Polyak averaging over the final quarter smooths the stochastic
        # gradient noise out of the returned parameters.
        average_start = int(0.75 * self.n_iterations)
        average = np.zeros_like(params)
        averaged = 0

        for t in range(1, self.n_iterations + 1):
            mu = params[:dim]
            log_sigma = params[dim:]
            sigma = np.exp(log_sigma)

            grad_mu = np.zeros(dim)
            grad_ls = np.zeros(dim)
            elbo = 0.0
            # One row per draw: the same stream as one size-dim draw each.
            noise = rng.normal(size=(self.n_mc_samples, dim))
            answers = evaluate(dict(enumerate(mu + sigma * noise)))
            n_evals += self.n_mc_samples
            for lane, eps in enumerate(noise):
                logp, grad_logp = answers[lane]
                if not np.isfinite(logp):
                    continue
                elbo += logp
                # Reparameterization gradients of E_q[log p].
                grad_mu += grad_logp
                grad_ls += grad_logp * eps * sigma
            grad_mu /= self.n_mc_samples
            grad_ls /= self.n_mc_samples
            elbo /= self.n_mc_samples
            # Entropy of the Gaussian: sum(log_sigma) + const; d/dls = 1.
            grad_ls += 1.0
            elbo += float(log_sigma.sum())

            gradient = np.concatenate([grad_mu, grad_ls])
            # Adam ascent step.
            m = self.adam_beta1 * m + (1 - self.adam_beta1) * gradient
            v = self.adam_beta2 * v + (1 - self.adam_beta2) * gradient ** 2
            m_hat = m / (1 - self.adam_beta1 ** t)
            v_hat = v / (1 - self.adam_beta2 ** t)
            params = params + self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.adam_epsilon
            )

            if t % self.elbo_every == 0:
                result.elbo_trace.append(float(elbo))
            if t > average_start:
                average += params
                averaged += 1

        final = average / averaged if averaged else params
        result.mu = final[:dim]
        result.log_sigma = final[dim:]
        result.n_gradient_evaluations = n_evals
        return result
