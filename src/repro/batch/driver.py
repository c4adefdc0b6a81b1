"""The batched round loop: many suspended samplers, one evaluation per round.

:class:`BatchedChainDriver` holds one suspended step generator per chain
(see :mod:`repro.inference.stepper`), collects every active chain's pending
position each round, answers them all with a single
:meth:`~repro.batch.engine.BatchedEvaluator.evaluate` call, and resumes
each generator with its own lane's result. Because each generator contains
the complete sampler loop (adaptation, RNG consumption, hooks, state
capture) and receives exactly the numbers the solo evaluator would have
produced, every chain's draws and logps are bit-identical to running the
chains one at a time — the round loop only changes *when* evaluations
happen, never what they return.

Idle lanes (chains finished, or width > active chains) are filled with
speculative prefetches from the :class:`~repro.batch.prefetch
.SpeculationPool` once the evaluator is calibration-``stable``; validated
hits answer a chain's next request without a round trip.

:func:`run_chains_batched` is the batched counterpart of
:func:`repro.inference.run_chains` and returns the same
:class:`~repro.inference.results.SamplingResult`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.batch.engine import BatchedEvaluator
from repro.batch.lanes import LaneScheduler
from repro.batch.prefetch import SpeculationPool
from repro.inference.stepper import EvalRequest

__all__ = ["BatchedChainDriver", "run_chains_batched"]


class _Chain:
    __slots__ = ("key", "gen", "rng", "lane", "request")

    def __init__(self, key, gen, rng):
        self.key = key
        self.gen = gen
        self.rng = rng
        self.lane: Optional[int] = None
        self.request: Optional[np.ndarray] = None


class BatchedChainDriver:
    """Drive step generators in lockstep rounds over a batched evaluator."""

    def __init__(
        self,
        evaluator: BatchedEvaluator,
        *,
        speculate: bool = True,
        registry=None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.evaluator = evaluator
        self.scheduler = LaneScheduler(evaluator.width)
        self.pool = SpeculationPool()
        self.speculate = speculate
        self.results: Dict[object, object] = {}
        self._registry = registry
        self._labels = labels or {}
        self._chains_done = 0

    def submit(self, key, gen, rng: np.random.Generator) -> None:
        """Add a chain: its step generator and its (live) RNG stream.

        ``rng`` must be the same Generator object the step generator draws
        from — the speculation validity rule reads its state at request
        time. Chains may be submitted before ``run`` or while it runs
        (from an iteration hook), and are admitted as lanes free up.
        """
        self.scheduler.submit(_Chain(key, gen, rng))

    def run(self) -> Dict[object, object]:
        """Drive all submitted chains to completion; key → chain result."""
        scheduler = self.scheduler
        pool = self.pool
        evaluator = self.evaluator
        while True:
            for index, chain in scheduler.admit():
                chain.lane = index
                self._advance(chain, None)
            active = [
                (index, chain)
                for index, chain in scheduler.active()
            ]
            if not active:
                if scheduler.n_queued:
                    # A freshly admitted chain retired during priming;
                    # there may be lanes free for the rest of the queue.
                    continue
                break
            requests = {index: chain.request for index, chain in active}
            fills = []
            if self.speculate and evaluator.stable:
                free = scheduler.free_lanes()
                for lane, (key, plan) in zip(free, pool.claim(len(free))):
                    requests[lane] = plan.x
                    fills.append((lane, key, plan))
            results = evaluator.evaluate(requests)
            scheduler.note_round(len(active))
            for lane, key, plan in fills:
                value, grad = results[lane]
                pool.fulfil(key, plan, value, grad)
            for index, chain in active:
                self._advance(chain, results[index])
        self._flush_telemetry()
        return self.results

    def _advance(self, chain: _Chain, result) -> None:
        """Feed one result in; drain hits; leave the chain with a request.

        ``result`` is None only when priming a fresh generator.
        """
        gen = chain.gen
        pool = self.pool
        while True:
            try:
                request = gen.send(result)
            except StopIteration as stop:
                self.results[chain.key] = stop.value
                if chain.lane is not None:
                    self.scheduler.retire(chain.lane)
                    chain.lane = None
                pool.forget(chain.key)
                self._chains_done += 1
                return
            if type(request) is EvalRequest:
                x, plan = request.x, request.plan
            else:
                x, plan = request, None
            hit = pool.consume(chain.key, x, chain.rng)
            # An unevaluated plan predicted this very request; it is stale
            # now whatever happens next.
            pool.drop_pending(chain.key)
            if plan is not None:
                pool.register(chain.key, plan)
            if hit is None:
                chain.request = x
                return
            result = hit

    def _flush_telemetry(self) -> None:
        if self._registry is None:
            return
        from repro.telemetry import instrument as ins

        labels = self._labels
        registry = self._registry
        pool = self.pool
        registry.gauge(ins.BATCH_WIDTH, labels).set(self.scheduler.width)
        if pool.filled:
            registry.counter(ins.BATCH_SPEC_FILLED, labels).inc(pool.filled)
        if pool.hits:
            registry.counter(ins.BATCH_SPEC_HITS, labels).inc(pool.hits)
        if pool.misses:
            registry.counter(ins.BATCH_SPEC_MISSES, labels).inc(pool.misses)
        if self._chains_done:
            registry.counter(ins.BATCH_CHAINS, labels).inc(self._chains_done)
        # Pool counts reset so a reused driver never double-flushes.
        pool.filled = pool.hits = pool.misses = 0
        self._chains_done = 0

    def snapshot(self) -> Dict[str, object]:
        """Plain-data stats (occupancy, speculation, evaluator counters)."""
        stats = dict(self.evaluator.stats)
        stats.update(self.scheduler.snapshot())
        stats.update(self.pool.snapshot())
        engine = self.evaluator.engine
        if engine is not None:
            stats["demotions"] = engine.demotions
            stats["vector_instructions"] = engine.n_vector
            stats["lane_instructions"] = engine.n_lane
        return stats


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
    width: Optional[int] = None,
    speculate: bool = True,
    registry=None,
):
    """Batched counterpart of :func:`repro.inference.run_chains`.

    Runs ``n_chains`` chains through one :class:`BatchedChainDriver`
    instead of sequentially; per-chain RNG streams and initial positions
    come from the same :func:`repro.inference.chain.chain_start`, so the
    returned :class:`~repro.inference.results.SamplingResult` is
    bit-identical to the sequential solo-tape run.

    ``width`` defaults to ``n_chains``; a larger width leaves idle lanes
    for speculative prefetch from the start.
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
            model, width or n_chains, registry=registry, labels=labels
        )
        driver = BatchedChainDriver(
            evaluator, speculate=speculate, registry=registry, labels=labels
        )
        for chain_index in range(n_chains):
            rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
            gen = sampler.sample_steps(
                x0, n_iterations, rng, n_warmup=n_warmup,
                iteration_hook=hook, speculate=speculate,
            )
            driver.submit(chain_index, gen, rng)
        results = driver.run()

    return SamplingResult(
        model_name=model.name,
        chains=[results[c] for c in range(n_chains)],
        param_names=model.flat_param_names(),
    )
