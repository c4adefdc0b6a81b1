"""First-order accelerator projection model (paper Section VII).

The paper argues that the right accelerator style for Bayesian inference is
a **programmable SIMD architecture augmented with special functional units**
for the popular distributions (Gaussian -> erf, Cauchy -> atan), with
scratchpad memory sized to the working set. This module turns that
qualitative argument into a first-order analytical model so the projection
can be swept and compared against the CPU baseline:

* vector lanes exploit the computation parallelism measured from the actual
  model graphs (:mod:`repro.arch.parallelism`), bounded by Brent's bound;
* special functional units (SFUs) collapse the multi-instruction special
  functions (exp/log/erf/atan) into short fixed-latency table lookups — at a
  precision cost the paper also notes;
* a scratchpad replaces the LLC: if the per-chain working set fits, memory
  stalls disappear; if not, the overflow spills to DRAM exactly as in the
  CPU model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.parallelism import GraphParallelism
from repro.arch.profile import WorkloadProfile

#: fraction of dynamic instructions that are special-function evaluations in
#: density code (exp/log in every lpdf; erf/atan in the CDFs)
SPECIAL_FUNCTION_FRACTION = 0.18
#: CPU cost of one special-function evaluation (instructions)
SPECIAL_FUNCTION_CPU_COST = 20.0
#: SFU cost of one special-function evaluation (cycles, table lookup)
SPECIAL_FUNCTION_SFU_COST = 2.0
#: DRAM spill penalty per overflowing byte, in cycles per byte
SPILL_CYCLES_PER_BYTE = 0.4


@dataclass(frozen=True)
class AcceleratorConfig:
    """A Section VII-style programmable SIMD accelerator."""

    name: str = "simd-sfu"
    vector_lanes: int = 64
    frequency_ghz: float = 1.0
    scratchpad_mb: float = 16.0
    has_sfu: bool = True
    sampling_units: int = 4   # parallel per-chain engines on one die

    @property
    def scratchpad_bytes(self) -> float:
        return self.scratchpad_mb * 1024 * 1024


@dataclass(frozen=True)
class AcceleratorProjection:
    """Projected per-iteration latency and CPU-relative speedup."""

    workload: str
    config: AcceleratorConfig
    cycles_per_work_unit: float
    seconds_per_iteration: float
    compute_bound: bool
    spill_bytes: float

    def speedup_over(self, cpu_seconds_per_iteration: float) -> float:
        if self.seconds_per_iteration <= 0:
            return float("inf")
        return cpu_seconds_per_iteration / self.seconds_per_iteration


class AcceleratorModel:
    """Project a workload profile onto an accelerator configuration."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def cycles_per_work_unit(
        self, profile: WorkloadProfile, parallelism: GraphParallelism
    ) -> float:
        """Cycles for one gradient evaluation on the accelerator."""
        instructions = profile.instructions_per_work_unit

        # Split the instruction stream into special functions and the rest.
        special = SPECIAL_FUNCTION_FRACTION * instructions
        regular = instructions - special

        # SIMD lanes help up to the graph's parallelism (Brent's bound on
        # the measured work/span of this model's actual graph).
        lane_speedup = parallelism.speedup_bound(self.config.vector_lanes)
        regular_cycles = regular / lane_speedup

        if self.config.has_sfu:
            special_cycles = (
                special / SPECIAL_FUNCTION_CPU_COST * SPECIAL_FUNCTION_SFU_COST
            )
            # SFUs are also vectorized across lanes.
            special_cycles /= lane_speedup
        else:
            special_cycles = special / lane_speedup

        return regular_cycles + special_cycles

    def spill_bytes(self, profile: WorkloadProfile, active_chains: int) -> float:
        """Working-set overflow beyond the scratchpad, per iteration."""
        occupancy = profile.working_set_bytes * min(
            active_chains, self.config.sampling_units
        )
        return max(occupancy - self.config.scratchpad_bytes, 0.0)

    def project(
        self,
        profile: WorkloadProfile,
        parallelism: GraphParallelism,
        n_chains: int = 4,
    ) -> AcceleratorProjection:
        if profile.work_per_iteration is None:
            raise ValueError(f"profile of {profile.name!r} is uncalibrated")
        compute_cycles = self.cycles_per_work_unit(profile, parallelism)
        spill = self.spill_bytes(profile, n_chains)
        # Spill traffic is amortized over the iteration's work units.
        spill_cycles = (
            SPILL_CYCLES_PER_BYTE * spill / max(profile.work_per_iteration, 1.0)
        )
        total_cycles = compute_cycles + spill_cycles
        seconds_per_work = total_cycles / (self.config.frequency_ghz * 1e9)
        return AcceleratorProjection(
            workload=profile.name,
            config=self.config,
            cycles_per_work_unit=total_cycles,
            seconds_per_iteration=profile.work_per_iteration * seconds_per_work,
            compute_bound=spill == 0.0,
            spill_bytes=spill,
        )
