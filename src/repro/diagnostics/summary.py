"""Per-parameter posterior summaries in the style of Stan's ``print(fit)``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.diagnostics.ess import effective_sample_size
from repro.diagnostics.rhat import split_rhat


@dataclass
class ParameterSummary:
    name: str
    mean: float
    sd: float
    q05: float
    q50: float
    q95: float
    ess: float
    rhat: float

    def row(self) -> str:
        return (
            f"{self.name:<16s} {self.mean:>9.3f} {self.sd:>8.3f} "
            f"{self.q05:>9.3f} {self.q50:>9.3f} {self.q95:>9.3f} "
            f"{self.ess:>8.0f} {self.rhat:>6.3f}"
        )


HEADER = (
    f"{'param':<16s} {'mean':>9s} {'sd':>8s} {'5%':>9s} {'50%':>9s} "
    f"{'95%':>9s} {'ess':>8s} {'rhat':>6s}"
)


def summarize(
    draws: np.ndarray, names: Optional[Sequence[str]] = None
) -> List[ParameterSummary]:
    """Summaries for a (n_chains, n_draws, dim) array of posterior draws.

    ``ess`` and ``rhat`` (split) are the statistics the stop rule judges,
    over all the draws given. A single chain has no other chain to agree
    with, so its rows carry R-hat ``nan``.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3:
        raise ValueError(f"expected (n_chains, n_draws, dim), got {draws.shape}")
    n_chains, _, dim = draws.shape
    if names is None:
        names = [f"theta[{index}]" for index in range(dim)]
    if len(names) != dim:
        raise ValueError(f"{len(names)} names for {dim} parameters")

    pooled = np.ascontiguousarray(draws.reshape(-1, dim).T)
    columns = (
        pooled.mean(axis=1),
        pooled.std(axis=1, ddof=1),
        *np.quantile(pooled, [0.05, 0.50, 0.95], axis=1),
        effective_sample_size(draws),
        split_rhat(draws) if n_chains > 1 else np.full(dim, np.nan),
    )
    return [
        ParameterSummary(name, *row)
        for name, row in zip(names, np.column_stack(columns).tolist())
    ]


def format_summary(
    draws: np.ndarray, names: Optional[Sequence[str]] = None
) -> str:
    """Render a text table of posterior summaries."""
    rows = summarize(draws, names)
    return "\n".join([HEADER] + [row.row() for row in rows])
