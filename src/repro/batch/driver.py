"""The round loop: many suspended samplers, one evaluation per round.

:class:`BatchedChainDriver` holds one suspended step generator per chain
(see :mod:`repro.inference.stepper`), one lane of the evaluator each. Every
round it collects each running chain's pending position, answers them all
with a single ``evaluate`` call, and resumes each generator with its own
lane's result. Because each generator contains the complete sampler loop
(adaptation, RNG consumption, hooks, state capture) and receives exactly
the numbers the solo evaluator would have produced, every chain's draws and
logps are bit-identical to running the chains one at a time — the round
loop only changes *when* evaluations happen, never what they return.

Every served chain group runs here, a group of one included, and
:func:`lane_evaluator` alone decides what answers the lanes.

A chain that finishes (or is stopped by its hook) simply stops sending
requests; its lane is masked out of the remaining rounds.

:func:`run_chains_batched` is the round-loop counterpart of
:func:`repro.inference.run_chains` and returns the same
:class:`~repro.inference.results.SamplingResult`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.batch.engine import BatchedEvaluator

__all__ = ["BatchedChainDriver", "lane_evaluator", "run_chains_batched"]


def lane_evaluator(model, width: int, gradient: bool = True):
    """What answers ``width`` lanes on ``model``, with the solo numbers:
    a :class:`BatchedEvaluator` for a gradient group of two or more lanes
    while ``REPRO_BATCH`` is on, else the per-lane
    :class:`~repro.inference.chain.SoloEvaluator`."""
    from repro import batch
    from repro.inference.chain import SoloEvaluator

    if gradient and width >= 2 and batch.enabled():
        return BatchedEvaluator(model, width)
    return SoloEvaluator(model, width, gradient)


class BatchedChainDriver:
    """Drive step generators in lockstep rounds over one evaluator."""

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.results: Dict[object, object] = {}
        self._chains: list = []

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
        failed = None
        while True:
            requests = {}
            for lane, answer in answers.items():
                key, gen = chains[lane]
                try:
                    requests[lane] = (
                        gen.send(answer) if failed is None else gen.throw(failed)
                    )
                except StopIteration as stop:
                    self.results[key] = stop.value
            if not requests:
                break
            try:
                answers, failed = self.evaluator.evaluate(requests), None
            except Exception as exc:  # raised where the chains asked
                answers, failed = requests, exc
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
    """Round-loop counterpart of :func:`repro.inference.run_chains`.

    Runs ``n_chains`` chains of any engine through one
    :class:`BatchedChainDriver` instead of sequentially, their lanes
    answered by :func:`lane_evaluator`; per-chain RNG streams and initial
    positions come from the same :func:`repro.inference.chain.chain_start`,
    so the returned :class:`~repro.inference.results.SamplingResult` is
    bit-identical to the sequential solo-tape run. ``registry`` (the global
    one while library telemetry is on) receives a batched run's batch
    counters when it ends, as a served group's chains report them.
    """
    from repro import telemetry
    from repro.inference.chain import DEFAULT_CHAINS, chain_start
    from repro.inference.results import SamplingResult
    from repro.telemetry.instrument import observe_group_counters

    if n_chains is None:
        n_chains = DEFAULT_CHAINS

    labels = {
        "workload": model.name,
        "engine": getattr(sampler, "engine", type(sampler).__name__.lower()),
    }
    if registry is None and telemetry.enabled():
        registry = telemetry.get_registry()

    open_chain = telemetry.chain_run(
        model, sampler, n_iterations, n_chains, iteration_hook
    )
    evaluator = lane_evaluator(model, n_chains, sampler.gradient)
    driver = BatchedChainDriver(evaluator)
    closes = []
    for chain_index in range(n_chains):
        rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
        hook, close = open_chain(chain_index)
        closes.append(close)
        driver.submit(chain_index, sampler.sample_steps(
            x0, n_iterations, rng, n_warmup=n_warmup, iteration_hook=hook,
        ))
    results = driver.run()
    for close in closes:
        close()
    counters = evaluator.counters()
    if registry is not None and counters:
        observe_group_counters(
            registry, {**counters, "batch_chains": n_chains}, labels,
        )

    return SamplingResult(
        model_name=model.name,
        chains=[results[c] for c in range(n_chains)],
        param_names=model.flat_param_names(),
    )
