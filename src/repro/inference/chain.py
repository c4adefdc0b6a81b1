"""Multi-chain driver — the outer loop of Algorithm 1.

Chains are statistically independent; the paper exploits exactly this
parallelism on multicore CPUs (Section IV-B). Here chains run sequentially
in-process, but each chain gets an independent, deterministically seeded RNG
stream (:func:`chain_rng`), so results are identical however the chains are
scheduled — :mod:`repro.serve.workers` executes the very same chains on a
``multiprocessing`` pool and reproduces this driver's output bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.inference.results import IterationHook, SamplingResult

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


def restore_sampler_prefix(
    resume_state: dict,
    engine: str,
    rng: np.random.Generator,
    **arrays: np.ndarray,
) -> int:
    """Restore the engine-independent part of a sampler state snapshot.

    Copies the snapshot's per-iteration output prefixes (``samples``,
    ``logps``, ``work``, …) into the sampler's freshly allocated arrays,
    restores the RNG bit-generator state, and returns the iteration to
    resume at — one past the snapshot's last completed iteration. Raises
    ``ValueError`` when the snapshot does not fit the run it is being fed
    into (wrong engine, or a prefix longer than the requested budget), so a
    caller can fall back to a fresh start instead of resuming wrongly.
    """
    snapshot_engine = resume_state.get("engine")
    if snapshot_engine != engine:
        raise ValueError(
            f"snapshot was taken by engine {snapshot_engine!r}, not {engine!r}"
        )
    start = int(resume_state["t"]) + 1
    for name, dest in arrays.items():
        src = np.asarray(resume_state[name])
        if start > dest.shape[0] or src.shape[0] < start:
            raise ValueError(
                f"snapshot prefix {name!r} ({src.shape[0]} iterations) does "
                f"not cover a resume at iteration {start} of {dest.shape[0]}"
            )
        dest[:start] = src[:start]
    rng.bit_generator.state = resume_state["rng"]
    return start


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
        :class:`MetropolisHastings`).
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

    with telemetry.chain_run(
        model, sampler, n_iterations, n_chains, iteration_hook
    ) as hook:
        chains = []
        for chain_index in range(n_chains):
            rng, x0 = chain_start(model, seed, chain_index, initial_jitter)
            chains.append(
                sampler.sample_chain(
                    model, x0, n_iterations, rng, n_warmup=n_warmup,
                    iteration_hook=hook,
                )
            )

    return SamplingResult(
        model_name=model.name,
        chains=chains,
        param_names=model.flat_param_names(),
    )
