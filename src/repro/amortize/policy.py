"""Serving modes, the escalation policy, and result provenance.

The three-tier serving mode is the repo's first explicit accuracy/latency
knob, chosen per request:

* ``fast``    — serve the amortized surrogate unconditionally. Milliseconds,
  no accuracy guarantee beyond the guide's training.
* ``checked`` — serve the surrogate only when the PSIS tail-shape estimate
  says importance weighting against the true posterior is reliable
  (``k̂ ≤ 0.7``); otherwise escalate to a full exact run. The measured
  middle ground.
* ``exact``   — bypass the amortized tier entirely; full MCMC as before.
  The default, so existing traffic is untouched.

Every answer carries a :class:`Provenance` block saying which tier
actually produced the draws and why — without it, a posterior pulled from
the result store is indistinguishable from an exact one, which is exactly
the kind of silent approximation the paper's robustness discussion warns
about.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.amortize.psis import KHAT_THRESHOLD
from repro.inference.results import ChainResult, SamplingResult

#: Recognized serving modes, in increasing order of cost and accuracy.
MODES = ("fast", "checked", "exact")

#: The default serving mode: full MCMC, exactly the pre-amortization path.
DEFAULT_MODE = "exact"


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(
            f"unknown serving mode {mode!r}; available: {', '.join(MODES)}"
        )
    return mode


@dataclass(frozen=True)
class EscalationPolicy:
    """When the checked tier trusts the surrogate, and how hard it checks."""

    #: Serve the surrogate only when k̂ is at or below this (PSIS's 0.7).
    k_hat_threshold: float = KHAT_THRESHOLD
    #: Cap on true-logp evaluations per check; draws are subsampled
    #: evenly beyond it, bounding checked-tier latency.
    psis_max_draws: int = 1024

    def should_escalate(self, k_hat: float) -> bool:
        """True when the surrogate must not be served (fails closed: a
        NaN k̂ escalates)."""
        return not (k_hat <= self.k_hat_threshold)


@dataclass
class Provenance:
    """How one result was produced — attached to every served answer.

    ``tier`` is the tier that actually produced the draws (``fast`` /
    ``checked`` = surrogate, ``exact`` = full MCMC), which differs from
    the requested ``mode`` exactly when ``escalated`` is True.
    """

    #: Serving mode the request asked for.
    mode: str
    #: Tier that produced the draws.
    tier: str
    #: PSIS tail-shape estimate (checked tier only; None elsewhere).
    k_hat: Optional[float] = None
    #: Threshold k̂ was compared against (checked tier only).
    k_hat_threshold: Optional[float] = None
    #: Identity of the guide that produced (or failed to produce) the
    #: surrogate answer.
    guide_id: Optional[str] = None
    #: True when this request paid the guide's training.
    guide_trained: bool = False
    #: True when the checked tier rejected the surrogate and the draws
    #: come from the exact tier instead.
    escalated: bool = False
    #: Why this answer is less than what the request asked for, when the
    #: resilience layer degraded it: ``"deadline"`` (partial draws — the
    #: job's deadline lapsed mid-run) or ``"brownout"`` (a checked-tier
    #: escalation suppressed under sustained overload). ``None`` for every
    #: undegraded answer, so pre-resilience payloads deserialize unchanged.
    degraded: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def exact_provenance(mode: str = "exact") -> Provenance:
    """The provenance of a plain full-MCMC answer."""
    return Provenance(mode=mode, tier="exact")


def surrogate_rng(seed: int) -> np.random.Generator:
    """The canonical RNG stream for one request's surrogate draws.

    Keyed off the spec seed (salted so it never collides with a chain
    stream from :func:`~repro.inference.chain.chain_rng`), making
    surrogate answers as deterministic as exact ones — which is what lets
    the result store dedup them.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, 0xA3087712)))


def surrogate_result(
    model,
    guide_advi,
    n_chains: int,
    n_kept: int,
    rng: np.random.Generator,
) -> SamplingResult:
    """Package guide draws as a :class:`SamplingResult` shaped like the
    exact answer: ``n_chains`` pseudo-chains of ``n_kept`` draws each.

    The draws are i.i.d. from the fitted approximation, so the pseudo-chain
    split only preserves the downstream result-shape contract (summaries,
    R-hat, the gateway's draws download); the per-draw log densities are
    the *guide's*, recorded so the served object is honest about what it
    sampled.
    """
    draws = guide_advi.sample(n_chains * n_kept, rng)
    logq = guide_advi.log_density(draws)
    chains = []
    for c in range(n_chains):
        block = slice(c * n_kept, (c + 1) * n_kept)
        chains.append(
            ChainResult(
                samples=draws[block],
                logps=logq[block],
                work_per_iteration=np.ones(n_kept),
                n_warmup=0,
                accept_rate=1.0,
            )
        )
    return SamplingResult(
        model_name=f"{model.name}-amortized",
        chains=chains,
        param_names=model.flat_param_names(),
    )
