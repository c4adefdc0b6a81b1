"""A set-associative LRU cache simulator.

Used two ways: directly by tests (invariants of LRU replacement), and by
:mod:`repro.arch.trace` to validate the analytical occupancy -> miss-rate
curve that :mod:`repro.arch.machine` uses for the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Cache line size in bytes.
LINE_BYTES = 64
#: Associativity: lines per set.
WAYS = 16


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Byte-addressed :data:`WAYS`-way set-associative cache of
    :data:`LINE_BYTES` lines, with true-LRU replacement."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if size_bytes % (LINE_BYTES * WAYS) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by line*ways = {LINE_BYTES * WAYS}"
            )
        self.size_bytes = size_bytes
        self.n_sets = size_bytes // (LINE_BYTES * WAYS)
        # Each set is an ordered list of tags, most-recently-used last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = address // LINE_BYTES
        set_index = line % self.n_sets
        tag = line // self.n_sets
        entries = self._sets[set_index]
        self.stats.accesses += 1
        if tag in entries:
            entries.remove(tag)
            entries.append(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entries) >= WAYS:
            entries.pop(0)  # evict LRU
        entries.append(tag)
        return False

    def access_line(self, line_number: int) -> bool:
        """Access by cache-line number directly (trace convenience)."""
        return self.access(line_number * LINE_BYTES)

    def run_trace(self, line_numbers) -> CacheStats:
        """Run a whole trace of line numbers; returns stats for this trace."""
        before = CacheStats(self.stats.accesses, self.stats.hits, self.stats.misses)
        for line in line_numbers:
            self.access_line(int(line))
        return CacheStats(
            accesses=self.stats.accesses - before.accesses,
            hits=self.stats.hits - before.hits,
            misses=self.stats.misses - before.misses,
        )

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.size_bytes}B, {WAYS}-way, "
            f"{self.n_sets} sets)"
        )
