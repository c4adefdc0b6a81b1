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

import bisect
from typing import Dict, Optional

from repro.autodiff.suffstats import INSTR_COST_ELEMENTS
from repro.batch.engine import BatchedEvaluator

__all__ = ["BatchedChainDriver", "lane_evaluator", "run_chains_batched"]


def lane_evaluator(model, width: int, gradient: bool = True):
    """What answers ``width`` lanes on ``model``, with the solo numbers:
    a :class:`BatchedEvaluator` for a group of two or more lanes while
    ``REPRO_BATCH`` is on — ``(logp, grad)`` per lane, or with ``gradient``
    off ``logp`` alone from the tape's value program over the lanes — else
    the per-lane :class:`~repro.inference.chain.SoloEvaluator`."""
    from repro import batch
    from repro.inference.chain import SoloEvaluator

    if width >= 2 and batch.enabled():
        return BatchedEvaluator(model, width, gradient)
    return SoloEvaluator(model, width, gradient)


#: The cost of one value round over ``width`` lanes, µs, that
#: :func:`prefetch_depth` prices a block on: votes at scale 0.5 under MH,
#: one run of ``benchmarks/bench_batch_replay.py``'s widened row (2 vCPUs,
#: BLAS threads 1). The row committed in ``BENCH_batch_replay.json`` is a
#: later run of it: its ``round_us_by_width`` shows how far the curve moves
#: between runs on a shared machine, its ``fresh_depth`` the depth that
#: run would price. Linear between the points and past either end. Only
#: the depth comes from it; whether a group widens to it, :func:`wide_pays`
#: decides on the group's own engine.
ROUND_COST_US = (
    (4, 460.8), (8, 612.1), (12, 726.2), (16, 850.2),
    (20, 937.3), (24, 1077.3), (32, 1336.5),
)


def _round_cost(curve, width: int) -> float:
    i = bisect.bisect_left([w for w, _ in curve], width)
    i = min(max(i, 1), len(curve) - 1)
    (w0, c0), (w1, c1) = curve[i - 1], curve[i]
    return c0 + (c1 - c0) * (width - w0) / (w1 - w0)


def prefetch_depth(reject_rate: float, n_chains: int, curve=ROUND_COST_US) -> int:
    """Lanes per chain for a group of ``n_chains``: the ``K`` that buys the
    most iterations per unit of round cost.

    A chain that asks for its next ``K`` proposals on the bet that each is
    rejected advances ``(1 - r^K) / (1 - r)`` iterations per round, ``r``
    the reject rate; the round costs ``curve`` at ``n_chains * K`` lanes.
    Candidates stop at the widest measured round. A chain that never
    rejects, or a curve whose cost grows in proportion to its width, gets
    ``K = 1``: a block pays for itself only where lanes come cheap.
    """
    best, best_rate = 1, 0.0
    for k in range(1, max(curve[-1][0] // n_chains, 1) + 1):
        advance = sum(reject_rate ** j for j in range(k))
        rate = advance / _round_cost(curve, n_chains * k)
        if rate > best_rate:
            best, best_rate = k, rate
    return best


#: What a chain's block adds to a round beside its rows' replay (the
#: reject path's rows, the driver's per-row bookkeeping, the answers the
#: chain pops), in the replay cost model's units: buffer elements, an
#: instruction's dispatch costing
#: :data:`~repro.autodiff.suffstats.INSTR_COST_ELEMENTS`. Fitted on
#: forced narrow and wide in-process MH runs of the suite's shapes
#: (``docs/batching.md``).
BLOCK_COST_ELEMENTS = 45_000


def round_price(engine, width: int) -> float:
    """A round of ``engine``'s program over ``width`` lanes by the replay
    cost model: a vector instruction dispatches once, a lane-mode one once
    per lane, and every lane moves the tape's buffer elements."""
    return (
        INSTR_COST_ELEMENTS * (engine.n_vector + width * engine.n_lane)
        + width * engine.tape.buffer_elements
    )


def wide_pays(engine, n_chains: int, depth: int, reject_rate: float) -> bool:
    """Whether ``depth`` lanes per chain cost less per chain-iteration
    than one, priced on the settled narrow ``engine``: a wide round
    advances a chain ``(1 - r^depth) / (1 - r)`` iterations and carries
    its block (:data:`BLOCK_COST_ELEMENTS`). No clock is read, so a
    model's verdict never depends on how loaded the machine is."""
    advance = sum(reject_rate ** j for j in range(depth))
    narrow = round_price(engine, n_chains) / n_chains
    wide = round_price(engine, n_chains * depth) / n_chains + BLOCK_COST_ELEMENTS
    return wide / advance < narrow


#: A group widens only when its chains run at least this many iterations:
#: the wide evaluator's calibration (tens of ms) is paid back over the
#: job, not in a short warm-up job.
MIN_WIDE_ITERATIONS = 640


class BatchedChainDriver:
    """Drive step generators in lockstep rounds over one evaluator.

    Chain ``i`` (in submission order) owns lane ``i`` of the evaluator. A
    driver given ``widen`` — its chains opened with ``depth`` lanes each,
    MH's reject-path prefetch — may move them to a wider one. Once the
    evaluator is ``stable`` it asks ``widen(engine)`` for one, which
    prices the width on the settled engine (:func:`wide_pays`) and
    answers ``None`` when it does not pay; the chains then stay where
    they are. Otherwise chain ``i`` owns the ``depth`` lanes from
    ``i * depth`` of the wide evaluator. Its calibration rounds carry one
    position per chain; once it is ``stable`` the driver answers in
    lists, so that a chain may yield a block of its next positions
    (:mod:`repro.inference.stepper`) to fill its lanes. Draws never depend
    on which evaluator answers.
    """

    def __init__(self, evaluator, depth: int = 1, widen=None) -> None:
        self.evaluator = evaluator
        self.depth = depth
        self.results: Dict[object, object] = {}
        self._chains: list = []
        self._widen = widen
        self._evaluators = [evaluator]
        self._stride = 1  # lanes from one chain's first to the next's
        self._blocks = False  # whether rounds answer in lists

    @classmethod
    def for_group(cls, model, sampler, n_chains: int,
                  n_iterations: int) -> "BatchedChainDriver":
        """The round loop for ``n_chains`` chains of ``sampler`` running
        ``n_iterations`` each, lanes from :func:`lane_evaluator`; a batched
        group whose chains prefetch (:func:`prefetch_depth` above 1) and
        run at least :data:`MIN_WIDE_ITERATIONS` is given a ``widen``,
        ``n_chains * depth`` lanes where :func:`wide_pays`."""
        from repro import batch

        depth, widen = 1, None
        if (n_chains >= 2 and batch.enabled()
                and n_iterations >= MIN_WIDE_ITERATIONS):
            depth = prefetch_depth(sampler.reject_rate, n_chains)
        if depth > 1:
            def widen(engine):
                if not wide_pays(engine, n_chains, depth, sampler.reject_rate):
                    return None
                return BatchedEvaluator(model, n_chains * depth, sampler.gradient)
        return cls(lane_evaluator(model, n_chains, sampler.gradient),
                   depth, widen)

    def submit(self, key, gen) -> None:
        """Add a chain's step generator; its lane is its submission order."""
        if len(self._chains) == self.evaluator.width:
            raise ValueError(
                f"all {self.evaluator.width} lanes of the evaluator are taken"
            )
        self._chains.append((key, gen))

    def counters(self) -> Dict[str, float]:
        """The group's batch counters, as an evaluator's ``counters()``,
        summed over every evaluator its lanes had; ``batch_width`` is the
        width of the one answering last."""
        merged: Dict[str, float] = {}
        for evaluator in self._evaluators:
            for name, value in evaluator.counters().items():
                merged[name] = merged.get(name, 0) + value
        if merged:
            merged["batch_width"] = self.evaluator.width
        return merged

    def run(self) -> Dict[object, object]:
        """Drive all submitted chains to completion; key → chain result."""
        chains = self._chains
        # Chain → the answer it is waiting for; None primes a fresh
        # generator. A chain that returns drops out of the next round.
        answers = dict.fromkeys(range(len(chains)))
        failed = None
        widening = None if self._widen is None else self._widening()
        while True:
            requests = {}
            for chain, answer in answers.items():
                key, gen = chains[chain]
                try:
                    requests[chain] = (
                        gen.send(answer) if failed is None else gen.throw(failed)
                    )
                except StopIteration as stop:
                    self.results[key] = stop.value
            if not requests:
                break
            if widening is not None:
                try:
                    next(widening)
                except StopIteration:
                    widening = None
            try:
                answers, failed = self._round(requests), None
            except Exception as exc:  # raised where the chains asked
                answers, failed = requests, exc
        return self.results

    def _widening(self):
        """The move to the widened lanes, stepped before each round is
        evaluated."""
        narrow = self.evaluator
        while not narrow.stable:
            yield
        wide = self._widen(narrow.engine)
        if wide is None:
            return
        self._evaluators.append(wide)
        self.evaluator, self._stride = wide, self.depth
        while not wide.stable:
            yield
        self._blocks = True

    def _round(self, requests: dict) -> dict:
        """One evaluation over the chains' lanes, a block's rows from the
        chain's first lane on, answered in lists once rounds do (a chain
        yields a block only after a list answer)."""
        stride = self._stride
        xs = {}
        for chain, x in requests.items():
            lane = chain * stride
            if x.ndim == 1:
                xs[lane] = x
            else:
                for j in range(len(x)):
                    xs[lane + j] = x[j]
        out = self.evaluator.evaluate(xs)
        if not self._blocks:
            return {chain: out[chain * stride] for chain in requests}
        stats = self.evaluator.stats
        answers = {}
        for chain, x in requests.items():
            lane = chain * stride
            if x.ndim == 1:
                answers[chain] = [out[lane]]
                continue
            stats["prefetch_rows"] += len(x) - 1
            answers[chain] = _Answers([out[lane + j] for j in range(len(x))],
                                      stats)
        return answers


class _Answers(list):
    """A prefetched block's answers: each ``pop`` past the first (the
    chain's own row) is a prefetched row used, counted into ``stats``
    as it happens, so a chain's close reports its whole block."""

    def __init__(self, answers: list, stats: dict) -> None:
        super().__init__(answers)
        self.stats, self.rows = stats, len(answers)

    def pop(self, index=-1):
        if len(self) < self.rows:
            self.stats["prefetch_used"] += 1
        return super().pop(index)


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
    driver = BatchedChainDriver.for_group(model, sampler, n_chains, n_iterations)
    closes = []
    for chain_index in range(n_chains):
        rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
        hook, close = open_chain(chain_index)
        closes.append(close)
        driver.submit(chain_index, sampler.sample_steps(
            x0, n_iterations, rng, n_warmup=n_warmup, iteration_hook=hook,
            depth=driver.depth,
        ))
    results = driver.run()
    for close in closes:
        close()
    counters = driver.counters()
    if registry is not None and counters:
        observe_group_counters(
            registry, {**counters, "batch_chains": n_chains}, labels,
        )

    return SamplingResult(
        model_name=model.name,
        chains=[results[c] for c in range(n_chains)],
        param_names=model.flat_param_names(),
    )
