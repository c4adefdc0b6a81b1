"""Synthetic memory-access traces for chain-parallel Bayesian inference.

The paper's key multicore mechanism: with one core, chains run one at a time
and only one working set must fit in the LLC; with N cores, N chains stream
their working sets concurrently and the *aggregate* occupancy determines the
miss rate (Section IV-B). These generators produce exactly that pattern —
per-chain working sets streamed in round-robin interleave — so the cache
simulator can validate the analytical occupancy model.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.arch.cache import LINE_BYTES, SetAssociativeCache

#: Chance that a burst of streaming is followed by a hot-state reuse.
REUSE_FRACTION = 0.25


def chain_working_set_lines(
    working_set_bytes: int, chain_index: int
) -> np.ndarray:
    """Line numbers of one chain's working set (disjoint across chains)."""
    n_lines = max(int(working_set_bytes // LINE_BYTES), 1)
    base = chain_index * (1 << 26)  # separate 4 GiB-ish regions per chain
    return base + np.arange(n_lines)


def interleaved_chain_trace(
    working_set_bytes: int,
    n_active_chains: int,
    sweeps: int = 4,
    seed: int = 0,
) -> Iterator[int]:
    """Round-robin interleaving of per-chain working-set sweeps.

    Each chain repeatedly streams its working set (the per-iteration pass
    over modeled data and autodiff tape) with a fraction of temporally-local
    reuse accesses (parameter vector, sampler state).
    """
    rng = np.random.default_rng(seed)
    chain_lines: List[np.ndarray] = [
        chain_working_set_lines(working_set_bytes, c)
        for c in range(n_active_chains)
    ]
    positions = [0] * n_active_chains
    hot_sizes = [max(len(lines) // 20, 1) for lines in chain_lines]

    total = sum(len(lines) for lines in chain_lines) * sweeps
    emitted = 0
    chain = 0
    while emitted < total:
        lines = chain_lines[chain]
        pos = positions[chain]
        # Burst of sequential streaming...
        for _ in range(8):
            yield int(lines[pos])
            pos = (pos + 1) % len(lines)
            emitted += 1
        # ...plus occasional hot-state reuse.
        if rng.uniform() < REUSE_FRACTION:
            yield int(lines[rng.integers(0, hot_sizes[chain])])
            emitted += 1
        positions[chain] = pos
        chain = (chain + 1) % n_active_chains


def measure_llc_miss_rate(
    working_set_bytes: int,
    n_active_chains: int,
    llc_bytes: int,
    sweeps: int = 4,
) -> float:
    """Simulated steady-state LLC miss rate for the interleaved trace.

    The first sweep (cold misses) is excluded: one warmup pass runs before
    measurement.
    """
    cache = SetAssociativeCache(llc_bytes)
    cache.run_trace(interleaved_chain_trace(
        working_set_bytes, n_active_chains, sweeps=1, seed=0,
    ))
    measured = interleaved_chain_trace(
        working_set_bytes, n_active_chains, sweeps=sweeps, seed=1,
    )
    stats = cache.run_trace(measured)
    return stats.miss_rate


def analytical_miss_rate(
    working_set_bytes: float, n_active_chains: int, llc_bytes: float
) -> float:
    """Closed-form approximation of the simulated curve.

    For cyclic streaming with LRU, occupancy below capacity gives near-zero
    steady-state misses; once the aggregate working set exceeds capacity,
    LRU thrashes on the streamed portion and the miss rate approaches the
    overflow fraction of accesses.
    """
    total = working_set_bytes * n_active_chains
    if total <= 0:
        return 0.0
    overflow = max(total - 0.9 * llc_bytes, 0.0)  # ~10% held by other state
    if overflow == 0.0:
        return 0.0
    # LRU on a cyclic sweep degrades sharply: the reuse distance of every
    # streamed line exceeds capacity, so misses approach 1 for the streamed
    # fraction; the hot (reused) fraction still hits.
    streamed_fraction = min(overflow / total * 3.0, 1.0)
    return 0.88 * streamed_fraction
