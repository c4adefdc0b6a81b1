"""Tests for the set-associative cache simulator and trace generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssociativeCache
from repro.arch.trace import (
    analytical_miss_rate,
    chain_working_set_lines,
    interleaved_chain_trace,
    measure_llc_miss_rate,
)


class TestCacheGeometry:
    def test_sets_computed(self):
        cache = SetAssociativeCache(4096)  # 64 lines of 64 B, 16 ways
        assert cache.n_sets == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="divisible"):
            SetAssociativeCache(1000)
        with pytest.raises(ValueError, match="positive"):
            SetAssociativeCache(0)

    def test_repr(self):
        assert "16-way" in repr(SetAssociativeCache(1024))


class TestCacheBehavior:
    def test_first_access_misses_second_hits(self):
        cache = SetAssociativeCache(4096)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)       # same line
        assert not cache.access(64)   # next line

    def test_lru_eviction_order(self):
        # One set of 16 ways: capacity 16 lines.
        cache = SetAssociativeCache(1024)
        for line in range(16):
            cache.access_line(line)
        cache.access_line(0)      # make line 0 MRU
        cache.access_line(16)     # evicts line 1 (LRU)
        assert cache.access_line(0)
        assert not cache.access_line(1)

    def test_working_set_within_capacity_all_hits(self):
        cache = SetAssociativeCache(64 * 1024)
        lines = list(range(512))  # 32 KB working set
        cache.run_trace(lines)
        stats = cache.run_trace(lines * 3)
        assert stats.miss_rate == 0.0

    def test_cyclic_sweep_beyond_capacity_thrashes(self):
        cache = SetAssociativeCache(8 * 1024)  # 128 lines
        lines = list(range(256))  # 2x capacity
        cache.run_trace(lines)
        stats = cache.run_trace(lines * 3)
        assert stats.miss_rate > 0.9  # LRU worst case on cyclic sweeps

    def test_resident_lines_bounded(self):
        cache = SetAssociativeCache(4096)  # 64 lines
        for line in range(1000):
            cache.access_line(line)
        assert sum(len(entries) for entries in cache._sets) == 64

    def test_flush(self):
        cache = SetAssociativeCache(4096)
        cache.access_line(0)
        cache.flush()
        assert not cache.access_line(0)

    def test_stats_accumulate(self):
        cache = SetAssociativeCache(4096)
        cache.access_line(0)
        cache.access_line(0)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=15, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, n_lines):
        cache = SetAssociativeCache(2048)
        rng = np.random.default_rng(0)
        cache.run_trace(rng.integers(0, n_lines, size=200))
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


class TestTraces:
    def test_chain_working_sets_disjoint(self):
        a = chain_working_set_lines(64 * 1024, 0)
        b = chain_working_set_lines(64 * 1024, 1)
        assert len(np.intersect1d(a, b)) == 0

    def test_trace_length_scales_with_sweeps(self):
        short = list(interleaved_chain_trace(8 * 1024, 2, sweeps=1))
        longer = list(interleaved_chain_trace(8 * 1024, 2, sweeps=3))
        assert len(longer) > 2 * len(short)

    def test_fitting_working_set_low_miss_rate(self):
        rate = measure_llc_miss_rate(
            working_set_bytes=64 * 1024, n_active_chains=2,
            llc_bytes=1024 * 1024, sweeps=2,
        )
        assert rate < 0.12

    def test_overflowing_working_set_high_miss_rate(self):
        rate = measure_llc_miss_rate(
            working_set_bytes=512 * 1024, n_active_chains=4,
            llc_bytes=512 * 1024, sweeps=2,
        )
        assert rate > 0.5

    def test_more_chains_increase_miss_rate(self):
        one = measure_llc_miss_rate(256 * 1024, 1, 512 * 1024, sweeps=2)
        four = measure_llc_miss_rate(256 * 1024, 4, 512 * 1024, sweeps=2)
        assert four > one

    def test_analytical_matches_simulated_shape(self):
        """The closed-form curve must agree with the simulator about which
        side of capacity a configuration is on."""
        llc = 1024 * 1024
        for ws, chains in [(64 * 1024, 2), (256 * 1024, 2), (512 * 1024, 4)]:
            simulated = measure_llc_miss_rate(ws, chains, llc, sweeps=2)
            analytical = analytical_miss_rate(ws, chains, llc)
            fits = ws * chains <= 0.9 * llc
            if fits:
                assert analytical == 0.0
                assert simulated < 0.15
            else:
                assert analytical > 0.2
                assert simulated > 0.2

    def test_analytical_zero_for_empty(self):
        assert analytical_miss_rate(0, 4, 1024) == 0.0
