"""Algorithm 1's two loops: the multi-chain driver and the chain scaffold.

Chains are statistically independent; the paper exploits exactly this
parallelism on multicore CPUs (Section IV-B). Here chains run sequentially
in-process, but each chain gets an independent, deterministically seeded RNG
stream (:func:`chain_rng`), so results are identical however the chains are
scheduled — :mod:`repro.serve.workers` executes the very same chains on a
``multiprocessing`` pool and reproduces this driver's output bit for bit.

The sequential inner loop — propose, evaluate, accept, record — is each
engine's transition inside one shared scaffold, :class:`ChainLoop`. Every
engine is a step machine (:class:`ChainSampler`) whose chain yields the
positions it needs evaluated; ``sample_chain`` answers them one by one
with a :class:`SoloEvaluator`, :mod:`repro.batch` in rounds.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.inference.results import (
    ChainResult,
    IterationHook,
    SamplingResult,
    StateCapture,
)
from repro.inference.stepper import drive_steps

#: Number of chains suggested by Brooks et al. and used throughout the paper.
DEFAULT_CHAINS = 4


def model_logp_and_grad(model):
    """The gradient evaluator a sampler hot loop should call on ``model``.

    Uses the model's compiled-tape seam (:meth:`BayesianModel
    .logp_and_grad_fn`) when available so gradient-bound engines replay the
    recorded tape instead of rebuilding the autodiff graph each iteration;
    falls back to plain ``logp_and_grad`` for model-like objects without the
    seam (test doubles, wrappers).
    """
    fn = getattr(model, "logp_and_grad_fn", None)
    if fn is not None:
        return fn()
    return model.logp_and_grad


class SoloEvaluator:
    """The round loop's evaluator (``width``, ``evaluate``, ``counters``)
    for what is not batched: each lane answered by ``one``, the model's
    solo call — the one place an engine's ``gradient`` picks its answer,
    ``(logp, grad)`` or ``model.logp`` alone (the value program)."""

    def __init__(self, model, width: int = 1, gradient: bool = True) -> None:
        self.width = int(width)
        self.one = model_logp_and_grad(model) if gradient else model.logp

    def evaluate(self, xs: dict) -> dict:
        one = self.one
        return {lane: one(x) for lane, x in xs.items()}

    def counters(self) -> dict:
        return {}  # nothing batched


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """The canonical RNG stream of chain ``chain_index`` under ``seed``.

    Every executor — the sequential driver below, the ``repro.serve`` worker
    pool, a future distributed backend — must derive chain streams through
    this function; it is what makes chain placement irrelevant to results.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, chain_index)))


def chain_start(
    model, seed: int, chain_index: int, initial_jitter: float = 1.0
) -> Tuple[np.random.Generator, np.ndarray]:
    """Seeded RNG and initial position for one chain (shared by executors)."""
    rng = chain_rng(seed, chain_index)
    x0 = model.initial_position(rng, jitter=initial_jitter)
    return rng, x0


def resume_start(resume_state: dict, engine: str, n_iterations: int) -> int:
    """The iteration a snapshot resumes at: one past its last completed one.

    The one validation of a snapshot against the run it is fed into: raises
    ``ValueError`` for another engine's snapshot or a prefix that does not
    fit the budget, so a caller (:mod:`repro.serve.workers`) can start fresh
    instead of resuming wrongly.
    """
    snapshot_engine = resume_state.get("engine")
    if snapshot_engine != engine:
        raise ValueError(
            f"snapshot was taken by engine {snapshot_engine!r}, not {engine!r}"
        )
    start = int(resume_state.get("t", -1)) + 1
    if not 0 < start <= n_iterations:
        raise ValueError(
            f"snapshot at iteration {start - 1} does not cover a resume "
            f"within a {n_iterations}-iteration run"
        )
    return start


class ChainLoop:
    """The scaffold of Algorithm 1's inner loop, shared by every engine.

    An engine is a transition kernel, its adaptation and its own state. What
    surrounds them lives here: the per-iteration output arrays, the
    ``n_warmup`` default, restoring a ``resume_state`` snapshot (prefix
    copy, RNG state, :func:`resume_start`), the snapshot bound to a
    :class:`StateCapture`, the iteration hook with or without stats,
    stopping when it returns ``False``, and the :class:`ChainResult`. An
    engine's chain reads::

        x, state = loop.x, loop.state      # state: the snapshot, or None
        ...restore its own variables from ``state``, or initialise them...
        loop.bind(state=lambda: {...}, stats=lambda: {...})
        for t in range(loop.start, loop.n_iterations):
            ...one transition, then adaptation...
            if not loop.record(t, x, logp, evals):
                break
        return loop.result(accept_rate=..., step_size=...)

    The scaffold draws nothing from ``rng`` and does no arithmetic on the
    chain, so it cannot change what a kernel samples.
    """

    def __init__(self, sampler: "ChainSampler", x0, n_iterations, rng,
                 n_warmup, iteration_hook, state_capture, resume_state) -> None:
        self.engine = engine = sampler.engine
        self.rng = rng
        self.n_iterations = n_iterations
        self.n_warmup = n_iterations // 2 if n_warmup is None else n_warmup
        self.hook = iteration_hook
        self.wants_stats = getattr(iteration_hook, "wants_stats", False)
        self.samples = np.empty((n_iterations, x0.shape[0]))
        self.logps = np.empty(n_iterations)
        self.work = np.zeros(n_iterations)
        #: Every per-iteration output, by its snapshot key.
        self.traces = {"samples": self.samples, "logps": self.logps, "work": self.work}
        if sampler.tree_depths:
            self.traces["tree_depths"] = np.zeros(n_iterations, dtype=int)
        #: The snapshot being resumed (engines read their own keys from it),
        #: or ``None`` on a fresh run.
        self.state = resume_state
        if resume_state is None:
            self.start = 0
            self.x = np.asarray(x0, dtype=float).copy()
        else:
            self.start = resume_start(resume_state, engine, n_iterations)
            for name, trace in self.traces.items():
                trace[:self.start] = np.asarray(resume_state[name])[:self.start]
            rng.bit_generator.state = resume_state["rng"]
            self.x = np.array(resume_state["x"], dtype=float)
        if state_capture is not None:
            state_capture.bind(self.snapshot)

    def bind(self, state: Callable[[], dict], stats: Callable[[], dict]) -> None:
        """Take the engine's two views of its loop variables: ``state()``,
        its own part of a snapshot, and ``stats()``, the last iteration's
        hook statistics (:data:`IterationHook`). Closures over the engine's
        locals, called only when a snapshot or a stats-taking hook asks: a
        bare run builds neither dict."""
        self._state, self._stats = state, stats

    def snapshot(self) -> dict:
        """Everything needed to continue from the iteration after the last
        recorded one; valid from inside the iteration hook."""
        return {
            "engine": self.engine,
            "t": self.t,
            "x": self.x.copy(),
            "logp": self.logp,
            "rng": self.rng.bit_generator.state,
            **{k: v[:self.t + 1].copy() for k, v in self.traces.items()},
            **self._state(),
        }

    def record(self, t: int, x: np.ndarray, logp: float, work: float) -> bool:
        """Store iteration ``t`` and call the hook; falsy means stop here."""
        self.t, self.x, self.logp = t, x, logp
        self.samples[t] = x
        self.logps[t] = logp
        self.work[t] = work
        hook = self.hook
        if hook is None:
            return True
        if self.wants_stats:
            keep_going = hook(t, self.samples[t], self._stats())
        else:
            keep_going = hook(t, self.samples[t])
        if not keep_going:
            self.n_iterations = t + 1
        return keep_going

    def result(self, accept_rate: float, step_size: float,
               divergences: int = 0) -> ChainResult:
        """The chain, truncated to the iterations actually run."""
        n = self.n_iterations
        depths = self.traces.get("tree_depths")
        return ChainResult(
            samples=self.samples[:n],
            logps=self.logps[:n],
            work_per_iteration=self.work[:n],
            n_warmup=self.n_warmup,
            accept_rate=accept_rate,
            divergences=divergences,
            tree_depths=None if depths is None else depths[:n],
            step_size=step_size,
        )


class ChainSampler:
    """Base of the four engines: every engine is a step machine.

    A subclass sets two class constants — its ``engine`` tag and
    ``gradient``, whether a yielded position is answered ``(logp, grad)``
    (HMC, NUTS) or ``logp`` alone (MH, slice) — and implements
    ``_steps(loop)``: a generator over an opened :class:`ChainLoop` that
    yields each position it needs evaluated, receives the answer
    (:mod:`repro.inference.stepper`) and returns ``loop.result``.
    """

    engine: str
    gradient: bool
    #: Whether chains record a per-iteration ``tree_depths`` trace.
    tree_depths = False

    def sample_steps(
        self,
        x0: np.ndarray,
        n_iterations: int,
        rng: np.random.Generator,
        n_warmup: Optional[int] = None,
        iteration_hook: IterationHook = None,
        state_capture: Optional[StateCapture] = None,
        resume_state: Optional[dict] = None,
    ):
        """The chain as a step generator; returns the :class:`ChainResult`."""
        return self._steps(ChainLoop(
            self, x0, n_iterations, rng,
            n_warmup, iteration_hook, state_capture, resume_state,
        ))

    def sample_chain(
        self,
        model,
        x0: np.ndarray,
        n_iterations: int,
        rng: np.random.Generator,
        n_warmup: Optional[int] = None,
        iteration_hook: IterationHook = None,
        state_capture: Optional[StateCapture] = None,
        resume_state: Optional[dict] = None,
    ) -> ChainResult:
        """The step generator under the sequential solo evaluator."""
        gen = self.sample_steps(x0, n_iterations, rng, n_warmup,
                                iteration_hook, state_capture, resume_state)
        return drive_steps(gen, SoloEvaluator(model, gradient=self.gradient).one)


def run_chains(
    model,
    sampler,
    n_iterations: int,
    n_chains: int = DEFAULT_CHAINS,
    seed: int = 0,
    n_warmup: Optional[int] = None,
    initial_jitter: float = 1.0,
    iteration_hook: IterationHook = None,
) -> SamplingResult:
    """Run ``n_chains`` independent chains of ``sampler`` on ``model``.

    Parameters
    ----------
    model:
        A :class:`~repro.models.model.BayesianModel`.
    sampler:
        Any object with the ``sample_chain(model, x0, n_iterations, rng,
        n_warmup)`` interface (:class:`NUTS`, :class:`HMC`,
        :class:`MetropolisHastings`, :class:`SliceSampler`).
    n_iterations:
        Total iterations per chain, warmup included.
    n_chains:
        Independent Markov chains (paper default: 4).
    seed:
        Master seed; chain ``c`` uses the spawned stream ``(seed, c)``.
    n_warmup:
        Warmup iterations (default: half, Stan's convention).
    initial_jitter:
        Width of the uniform jitter around the model's declared inits, in
        unconstrained space.
    iteration_hook:
        Optional per-iteration callback threaded through to every chain
        (see :data:`repro.inference.results.IterationHook`).
    """
    # Opt-in runtime telemetry (repro.telemetry.enable() / REPRO_TELEMETRY=1).
    # When disabled this adds nothing — not even a no-op hook — so the
    # uninstrumented path stays bit-and-time-identical.
    from repro import telemetry

    open_chain = telemetry.chain_run(
        model, sampler, n_iterations, n_chains, iteration_hook
    )
    chains = []
    for chain_index in range(n_chains):
        rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
        hook, close = open_chain(chain_index)
        chains.append(
            sampler.sample_chain(
                model, x0, n_iterations, rng, n_warmup=n_warmup,
                iteration_hook=hook,
            )
        )
        close()

    return SamplingResult(
        model_name=model.name,
        chains=chains,
        param_names=model.flat_param_names(),
    )
