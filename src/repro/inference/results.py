"""Containers for sampling output and per-chain work accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.diagnostics.summary import ParameterSummary, summarize

#: Per-iteration sampler callback: called as ``hook(t, draw)`` after iteration
#: ``t`` (0-based, warmup included) is recorded. Returning ``False`` stops the
#: chain early; the sampler truncates its arrays to the iterations actually
#: run. Because each chain consumes its RNG stream strictly in iteration
#: order, the truncated output is bit-identical to a prefix of the full run —
#: the property :mod:`repro.serve` relies on for mid-run elision.
#:
#: **Stats extension.** A hook carrying a truthy ``wants_stats`` attribute is
#: instead called as ``hook(t, draw, stats)`` where ``stats`` is a small dict
#: of that iteration's sampler statistics: always ``work`` (gradient or
#: log-density evaluations) and ``accept`` (the iteration's acceptance
#: statistic), plus ``divergent``, ``tree_depth`` (NUTS), and ``step_size``
#: where the engine has them. Samplers check ``wants_stats`` once before the
#: loop and build the dict only when asked, so plain hooks and uninstrumented
#: runs pay nothing — the no-op fast path :mod:`repro.telemetry` budgets on.
IterationHook = Optional[Callable[[int, np.ndarray], bool]]


class _ComposedHook:
    """Fan one iteration-hook call out to several hooks.

    Advertises ``wants_stats`` when any member wants stats; members that
    don't are still called with the two-argument form. The chain continues
    only if every hook says to continue.
    """

    def __init__(self, hooks) -> None:
        self.hooks = tuple(hooks)
        self.wants_stats = any(
            getattr(hook, "wants_stats", False) for hook in self.hooks
        )

    def __call__(self, t, draw, stats=None) -> bool:
        keep_going = True
        for hook in self.hooks:
            if getattr(hook, "wants_stats", False):
                ok = hook(t, draw, stats)
            else:
                ok = hook(t, draw)
            keep_going = keep_going and bool(ok)
        return keep_going


def compose_hooks(*hooks: IterationHook) -> IterationHook:
    """Combine iteration hooks; ``None`` members are dropped.

    Every hook sees every iteration (no short-circuiting — a telemetry hook
    must observe the final iteration even when a control hook stops the
    chain there); the chain stops if any hook returns ``False``.
    """
    present = [hook for hook in hooks if hook is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return _ComposedHook(present)


class StateCapture:
    """Executor-side handle for pulling resumable sampler state mid-run.

    An executor passes an instance to ``sample_chain``; the chain scaffold
    (:class:`~repro.inference.chain.ChainLoop`) binds its ``snapshot`` when
    the chain opens. Calling the handle from inside an ``iteration_hook``
    then returns a plain-data snapshot of everything needed to continue the
    chain from the *next* iteration: position, cached log-density/gradient,
    RNG bit-generator state, adaptation state, the output arrays so far.
    Feeding that snapshot back through ``sample_chain(..., resume_state=...)``
    yields a chain bit-identical to the uninterrupted run — the extension of
    the prefix-determinism guarantee that :mod:`repro.serve` builds chain
    resume on.
    """

    def __init__(self) -> None:
        self._capture: Optional[Callable[[], dict]] = None

    def bind(self, capture: Callable[[], dict]) -> None:
        self._capture = capture

    @property
    def bound(self) -> bool:
        return self._capture is not None

    def __call__(self) -> dict:
        if self._capture is None:
            raise RuntimeError("no sampler has bound this StateCapture yet")
        return self._capture()


@dataclass
class ChainResult:
    """Output of one Markov chain.

    ``samples`` holds every iteration (warmup included) in unconstrained
    space; ``n_warmup`` marks how many leading iterations are adaptation.
    ``work_per_iteration`` counts gradient/log-density evaluations per
    iteration — the unit of compute the architectural model translates into
    cycles, which makes the paper's chain-imbalance effects (Section VI-A)
    emergent rather than assumed.
    """

    samples: np.ndarray
    logps: np.ndarray
    work_per_iteration: np.ndarray
    n_warmup: int
    accept_rate: float
    divergences: int = 0
    tree_depths: Optional[np.ndarray] = None
    step_size: float = float("nan")

    @property
    def n_iterations(self) -> int:
        return self.samples.shape[0]

    @property
    def kept(self) -> np.ndarray:
        """Post-warmup draws."""
        return self.samples[self.n_warmup:]

    @property
    def total_work(self) -> float:
        return float(self.work_per_iteration.sum())

    def work_through(self, iteration: int) -> float:
        """Cumulative work after ``iteration`` post-warmup iterations."""
        stop = min(self.n_warmup + iteration, len(self.work_per_iteration))
        return float(self.work_per_iteration[:stop].sum())


@dataclass
class SamplingResult:
    """Output of a multi-chain run for one model."""

    model_name: str
    chains: List[ChainResult]
    param_names: List[str] = field(default_factory=list)
    #: Memo of :meth:`summary`. It travels with the pickle, so a stored
    #: result carries its summary to every process that loads it; a result
    #: pickled before the field existed reads the class default ``None``
    #: and computes on first use.
    _summary: Optional[List[ParameterSummary]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def dim(self) -> int:
        return self.chains[0].samples.shape[1]

    @property
    def n_kept(self) -> int:
        return min(chain.kept.shape[0] for chain in self.chains)

    def stacked(self, second_half_only: bool = False) -> np.ndarray:
        """(n_chains, n_draws, dim) array of post-warmup draws.

        ``second_half_only`` mirrors the paper's practice (after Brooks et
        al.) of inferring from the second half of the kept samples.
        """
        n = self.n_kept
        draws = np.stack([chain.kept[:n] for chain in self.chains])
        if second_half_only:
            draws = draws[:, draws.shape[1] // 2:, :]
        return draws

    def pooled(self, second_half_only: bool = False) -> np.ndarray:
        """(n_chains * n_draws, dim) pooled posterior matrix."""
        draws = self.stacked(second_half_only=second_half_only)
        return draws.reshape(-1, draws.shape[-1])

    def summary(self) -> List[ParameterSummary]:
        """Per-parameter summary rows of the kept draws, computed once.

        The chains of a finished result do not change, so the rows are
        memoized on the object (and shared by every job deduplicated onto
        it).
        """
        if self._summary is None:
            self._summary = summarize(
                self.stacked(), list(self.param_names) or None
            )
        return self._summary

    @property
    def total_work(self) -> float:
        """Aggregate gradient-evaluation count across chains."""
        return float(sum(chain.total_work for chain in self.chains))

    @property
    def max_chain_work(self) -> float:
        """Work of the slowest chain — the multicore latency constraint."""
        return float(max(chain.total_work for chain in self.chains))

    @property
    def chain_work(self) -> np.ndarray:
        return np.array([chain.total_work for chain in self.chains])

    @property
    def accept_rates(self) -> np.ndarray:
        return np.array([chain.accept_rate for chain in self.chains])

    @property
    def divergences(self) -> int:
        return int(sum(chain.divergences for chain in self.chains))

    def constrained(self, model) -> Dict[str, np.ndarray]:
        """Map pooled draws through the model's constraining transforms.

        Returns a dict of (n_total_draws, param_size) arrays.
        """
        pooled = self.pooled()
        out: Dict[str, List[np.ndarray]] = {spec.name: [] for spec in model.params}
        for draw in pooled:
            values = model.constrain(draw)
            for name, value in values.items():
                out[name].append(value)
        return {name: np.asarray(values) for name, values in out.items()}

    def __repr__(self) -> str:
        return (
            f"SamplingResult(model={self.model_name!r}, chains={self.n_chains}, "
            f"kept={self.n_kept}, work={self.total_work:.0f})"
        )
