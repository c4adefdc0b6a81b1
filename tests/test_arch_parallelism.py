"""Tests for the work/span analysis of a model's tape and the accelerator
model that reads it."""

import numpy as np

from repro.arch.accelerator import (
    AcceleratorConfig,
    AcceleratorModel,
    AcceleratorProjection,
)
from repro.arch.profile import (
    INSTRUCTIONS_PER_ELEMENT,
    INSTRUCTIONS_PER_NODE,
    measure_tape,
)
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.autodiff import ops
from tests.test_arch_machine import make_profile


def work_span(model):
    """(work, span) of ``model``'s tape, in the profile's instruction units."""
    nodes, _, intermediate, _, span = measure_tape(model)
    work = make_profile(
        nodes=nodes, intermediate_kb=intermediate / 1024
    ).instructions_per_work_unit
    return work, span


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


class SumModel(BayesianModel):
    """``sum(x)`` over ``n`` parameters; with ``wide_exp``, ``sum(exp(x))``:
    one extra node, ``n`` elements wide."""

    name = "sum"

    def __init__(self, n=4000, wide_exp=False):
        super().__init__()
        self.n = n
        self.wide_exp = wide_exp

    @property
    def params(self):
        return [ParameterSpec("x", self.n, init=0.0)]

    def log_joint(self, p):
        x = ops.exp(p["x"]) if self.wide_exp else p["x"]
        return ops.reduce_sum(x)


class TestAnalyzeGraph:
    """Work/span of a model's graph, as ``measure_tape`` takes it."""

    def test_fields_consistent(self):
        work, span = work_span(WideModel())
        assert work >= span > 0

    def test_wide_node_adds_one_lane_to_the_span(self):
        """An ``exp`` over n elements runs one element per lane: it adds one
        node and one element to the critical path, and n elements to the
        work."""
        n = 4000
        base_work, base_span = work_span(SumModel(n))
        work, span = work_span(SumModel(n, wide_exp=True))
        assert span - base_span == INSTRUCTIONS_PER_NODE + INSTRUCTIONS_PER_ELEMENT
        assert work - base_work == (
            INSTRUCTIONS_PER_NODE + INSTRUCTIONS_PER_ELEMENT * n
        )
        assert span < work / 50

    def test_wide_model_more_parallel_than_deep(self):
        wide_work, wide_span = work_span(WideModel())
        deep_work, deep_span = work_span(DeepModel())
        assert wide_work / wide_span > 2 * deep_work / deep_span

    def test_deep_chain_span_scales_with_depth(self):
        _, shallow = work_span(DeepModel(depth=20))
        _, deep = work_span(DeepModel(depth=80))
        assert deep > shallow

    def test_brent_bound_monotone_and_capped(self):
        """Projected cycles fall as lanes grow, and never below the span's
        share of the work."""
        profile = make_profile()
        cycles = [
            AcceleratorModel(
                AcceleratorConfig(vector_lanes=lanes, has_sfu=False)
            ).cycles_per_work_unit(profile)
            for lanes in (1, 2, 8, 64, 10 ** 6)
        ]
        assert all(b < a for a, b in zip(cycles, cycles[1:]))
        assert cycles[0] >= profile.instructions_per_work_unit
        assert cycles[-1] >= profile.tape_span_instructions

    def test_suite_workloads_expose_parallelism(self):
        from repro.suite import load_workload
        for name in ("ad", "votes"):
            work, span = work_span(load_workload(name, scale=0.25))
            assert work / span > 1.5, name


class TestAcceleratorModel:
    def test_more_lanes_fewer_cycles(self):
        profile = make_profile()
        few = AcceleratorModel(AcceleratorConfig(vector_lanes=2))
        many = AcceleratorModel(AcceleratorConfig(vector_lanes=64))
        assert (
            many.cycles_per_work_unit(profile)
            < few.cycles_per_work_unit(profile)
        )

    def test_sfu_reduces_cycles(self):
        profile = make_profile()
        with_sfu = AcceleratorModel(AcceleratorConfig(has_sfu=True))
        without = AcceleratorModel(AcceleratorConfig(has_sfu=False))
        assert (
            with_sfu.cycles_per_work_unit(profile)
            < without.cycles_per_work_unit(profile)
        )

    def test_scratchpad_fit_means_no_spill(self):
        small_ws = make_profile(data_bytes=4 * 1024, intermediate_kb=20)
        model = AcceleratorModel(AcceleratorConfig(scratchpad_mb=16))
        projection = model.project(small_ws)
        assert projection.compute_bound
        assert projection.spill_bytes == 0.0

    def test_oversized_working_set_spills(self):
        big_ws = make_profile(data_bytes=400 * 1024, intermediate_kb=1100)
        model = AcceleratorModel(AcceleratorConfig(scratchpad_mb=2))
        projection = model.project(big_ws)
        assert not projection.compute_bound
        assert projection.spill_bytes > 0

    def test_projection_speedup(self):
        profile = make_profile()
        model = AcceleratorModel(AcceleratorConfig())
        projection = model.project(profile)
        assert isinstance(projection, AcceleratorProjection)
        assert projection.seconds_per_iteration > 0
        assert projection.speedup_over(1.0) > 0
