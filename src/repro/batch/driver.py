"""The batched round loop: many suspended samplers, one evaluation per round.

:class:`BatchedChainDriver` holds one suspended step generator per chain
(see :mod:`repro.inference.stepper`), one lane of the evaluator each. Every
round it collects each running chain's pending position, answers them all
with a single :meth:`~repro.batch.engine.BatchedEvaluator.evaluate` call,
and resumes each generator with its own lane's result. Because each
generator contains the complete sampler loop (adaptation, RNG consumption,
hooks, state capture) and receives exactly the numbers the solo evaluator
would have produced, every chain's draws and logps are bit-identical to
running the chains one at a time — the round loop only changes *when*
evaluations happen, never what they return.

A chain that finishes (or is stopped by its hook) simply stops sending
requests; its lane is masked out of the remaining rounds.

:func:`run_chains_batched` is the batched counterpart of
:func:`repro.inference.run_chains` and returns the same
:class:`~repro.inference.results.SamplingResult`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.batch.engine import BatchedEvaluator

__all__ = ["BatchedChainDriver", "run_chains_batched"]


class BatchedChainDriver:
    """Drive step generators in lockstep rounds over a batched evaluator."""

    def __init__(
        self,
        evaluator: BatchedEvaluator,
        *,
        registry=None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.evaluator = evaluator
        self.results: Dict[object, object] = {}
        self._chains: list = []
        self._registry = registry
        self._labels = labels or {}

    def submit(self, key, gen) -> None:
        """Add a chain's step generator; its lane is its submission order."""
        if len(self._chains) == self.evaluator.width:
            raise ValueError(
                f"all {self.evaluator.width} lanes of the evaluator are taken"
            )
        self._chains.append((key, gen))

    def run(self) -> Dict[object, object]:
        """Drive all submitted chains to completion; key → chain result."""
        chains = self._chains
        # Lane → the answer its chain is waiting for; None primes a fresh
        # generator. A chain that returns drops out of the next round.
        answers = dict.fromkeys(range(len(chains)))
        while True:
            requests = {}
            for lane, answer in answers.items():
                key, gen = chains[lane]
                try:
                    requests[lane] = gen.send(answer)
                except StopIteration as stop:
                    self.results[key] = stop.value
            if not requests:
                break
            answers = self.evaluator.evaluate(requests)
        registry, labels = self._registry, self._labels
        if registry is not None:
            from repro.telemetry import instrument as ins

            registry.gauge(ins.BATCH_WIDTH, labels).set(self.evaluator.width)
            registry.counter(ins.BATCH_CHAINS, labels).inc(len(chains))
        return self.results


def run_chains_batched(
    model,
    sampler,
    n_iterations: int,
    n_chains: Optional[int] = None,
    seed: int = 0,
    n_warmup: Optional[int] = None,
    initial_jitter: float = 1.0,
    iteration_hook=None,
    *,
    registry=None,
):
    """Batched counterpart of :func:`repro.inference.run_chains`.

    Runs ``n_chains`` chains through one :class:`BatchedChainDriver`
    instead of sequentially; per-chain RNG streams and initial positions
    come from the same :func:`repro.inference.chain.chain_start`, so the
    returned :class:`~repro.inference.results.SamplingResult` is
    bit-identical to the sequential solo-tape run.
    """
    from repro import telemetry
    from repro.inference.chain import DEFAULT_CHAINS, chain_start
    from repro.inference.results import SamplingResult

    if n_chains is None:
        n_chains = DEFAULT_CHAINS
    if not hasattr(sampler, "sample_steps"):
        raise TypeError(
            f"{type(sampler).__name__} does not expose a step generator "
            "(sample_steps); batched replay needs gradient-based engines "
            "(HMC, NUTS)"
        )

    engine_name = type(sampler).__name__.lower()
    labels = {"workload": model.name, "engine": engine_name}
    if registry is None and telemetry.enabled():
        registry = telemetry.get_registry()

    with telemetry.chain_run(
        model, sampler, n_iterations, n_chains, iteration_hook
    ) as hook:
        evaluator = BatchedEvaluator(
            model, n_chains, registry=registry, labels=labels
        )
        driver = BatchedChainDriver(
            evaluator, registry=registry, labels=labels
        )
        for chain_index in range(n_chains):
            rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
            gen = sampler.sample_steps(
                x0, n_iterations, rng, n_warmup=n_warmup,
                iteration_hook=hook,
            )
            driver.submit(chain_index, gen)
        results = driver.run()

    return SamplingResult(
        model_name=model.name,
        chains=[results[c] for c in range(n_chains)],
        param_names=model.flat_param_names(),
    )
