"""Tests for the work/span parallelism analysis and accelerator model."""

import numpy as np
import pytest

from repro.arch.accelerator import (
    AcceleratorConfig,
    AcceleratorModel,
    AcceleratorProjection,
)
from repro.arch.parallelism import GraphParallelism, analyze_graph
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.autodiff import ops
from tests.test_arch_machine import make_profile


class WideModel(BayesianModel):
    """Many independent likelihood terms -> wide, shallow graph."""

    name = "wide"

    def __init__(self, n_blocks=8):
        super().__init__()
        self.n_blocks = n_blocks
        rng = np.random.default_rng(0)
        self.add_data(y=rng.normal(size=(n_blocks, 50)))

    @property
    def params(self):
        return [ParameterSpec("mu", self.n_blocks, init=0.0)]

    def log_joint(self, p):
        y = self.data("y")
        total = dist.normal_lpdf(p["mu"], 0.0, 5.0)
        for block in range(self.n_blocks):
            total = total + dist.normal_lpdf(y[block], p["mu"][block], 1.0)
        return total


class DeepModel(BayesianModel):
    """A long scalar dependency chain -> deep, narrow graph."""

    name = "deep"

    def __init__(self, depth=60):
        super().__init__()
        self.depth = depth
        self.add_data(y=np.array([1.0]))

    @property
    def params(self):
        return [ParameterSpec("x", 1, init=0.5)]

    def log_joint(self, p):
        z = p["x"]
        for _ in range(self.depth):
            z = ops.tanh(z * 1.01)
        return dist.normal_lpdf(self.data("y"), z, 1.0)


class TestAnalyzeGraph:
    def test_fields_consistent(self):
        analysis = analyze_graph(WideModel())
        assert analysis.work >= analysis.span > 0
        assert analysis.parallelism >= 1.0

    def test_wide_model_more_parallel_than_deep(self):
        wide = analyze_graph(WideModel())
        deep = analyze_graph(DeepModel())
        assert wide.parallelism > 2 * deep.parallelism

    def test_deep_chain_span_scales_with_depth(self):
        shallow = analyze_graph(DeepModel(depth=20))
        deep = analyze_graph(DeepModel(depth=80))
        assert deep.span > shallow.span

    def test_brent_bound_monotone_and_capped(self):
        analysis = analyze_graph(WideModel())
        speedups = [analysis.speedup_bound(p) for p in (1, 2, 8, 64, 10 ** 6)]
        assert all(b >= a - 1e-12 for a, b in zip(speedups, speedups[1:]))
        assert speedups[0] <= 1.0 + 1e-9
        assert speedups[-1] <= analysis.parallelism + 1e-9

    def test_speedup_bound_validation(self):
        analysis = analyze_graph(DeepModel(depth=10))
        with pytest.raises(ValueError, match="n_units"):
            analysis.speedup_bound(0)

    def test_suite_workloads_expose_parallelism(self):
        from repro.suite import load_workload
        for name in ("ad", "votes"):
            analysis = analyze_graph(load_workload(name, scale=0.25))
            assert analysis.parallelism > 1.5, name


class TestAcceleratorModel:
    @pytest.fixture
    def parallel_graph(self):
        return GraphParallelism(workload="synthetic", work=1e6, span=1e4)

    def test_more_lanes_fewer_cycles(self, parallel_graph):
        profile = make_profile()
        few = AcceleratorModel(AcceleratorConfig(vector_lanes=2))
        many = AcceleratorModel(AcceleratorConfig(vector_lanes=64))
        assert (
            many.cycles_per_work_unit(profile, parallel_graph)
            < few.cycles_per_work_unit(profile, parallel_graph)
        )

    def test_sfu_reduces_cycles(self, parallel_graph):
        profile = make_profile()
        with_sfu = AcceleratorModel(AcceleratorConfig(has_sfu=True))
        without = AcceleratorModel(AcceleratorConfig(has_sfu=False))
        assert (
            with_sfu.cycles_per_work_unit(profile, parallel_graph)
            < without.cycles_per_work_unit(profile, parallel_graph)
        )

    def test_scratchpad_fit_means_no_spill(self, parallel_graph):
        small_ws = make_profile(data_bytes=4 * 1024, intermediate_kb=20)
        model = AcceleratorModel(AcceleratorConfig(scratchpad_mb=16))
        projection = model.project(small_ws, parallel_graph)
        assert projection.compute_bound
        assert projection.spill_bytes == 0.0

    def test_oversized_working_set_spills(self, parallel_graph):
        big_ws = make_profile(data_bytes=400 * 1024, intermediate_kb=1100)
        model = AcceleratorModel(AcceleratorConfig(scratchpad_mb=2))
        projection = model.project(big_ws, parallel_graph)
        assert not projection.compute_bound
        assert projection.spill_bytes > 0

    def test_projection_speedup(self, parallel_graph):
        profile = make_profile()
        model = AcceleratorModel(AcceleratorConfig())
        projection = model.project(profile, parallel_graph)
        assert isinstance(projection, AcceleratorProjection)
        assert projection.seconds_per_iteration > 0
        assert projection.speedup_over(1.0) > 0
