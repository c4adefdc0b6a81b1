"""Analytical multicore performance model.

Maps (workload profile, platform, active cores, chains) to the counters the
paper reports: IPC, i-cache/branch/LLC MPKI, DRAM bandwidth, and time. The
mechanisms are the ones Sections IV-V identify:

* each concurrently running chain streams its own working set, so LLC
  pressure scales with min(cores, chains) — one core runs chains one at a
  time and only one working set must be resident;
* the LLC miss ratio follows a capacity-share curve validated against the
  set-associative simulator in :mod:`repro.arch.trace`;
* DRAM bandwidth is LLC misses times the line size, capped by the platform,
  with IPC scaled down when the cap binds;
* the i-cache model compares the executed code footprint against the 32 KB
  L1I (Section VII-B: ``tickets`` overflows it).

Calibration constants are module-level and shared by every workload — the
per-workload diversity of the outputs comes entirely from the measured
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cache import LINE_BYTES
from repro.arch.platforms import Platform
from repro.arch.profile import WorkloadProfile

#: Fraction of LLC capacity available to chain working sets (the rest holds
#: code, OS and framework state).
LLC_USABLE_FRACTION = 0.9
#: Peak miss ratio of the capacity-share curve (cyclic streaming under LRU
#: retains a hit band roughly equal to capacity).
MISS_RATIO_SCALE = 0.65
#: Shape exponent of the overflow -> miss-ratio curve.
MISS_RATIO_EXPONENT = 1.5
#: Compulsory/cold miss ratio when the working sets fit.
BASE_MISS_RATIO = 0.002
#: Effective LLC miss penalty after memory-level parallelism/prefetching.
MLP_FACTOR = 4.0
#: Python/Stan code expansion: executed machine-code footprint per byte of
#: model bytecode (generated C++, inlined density/gradient kernels).
CODE_EXPANSION = 33.0
#: i-cache MPKI when the footprint fits (conflict misses scale with usage).
ICACHE_FIT_MPKI_SCALE = 1.2
#: i-cache MPKI growth once the footprint exceeds L1I capacity.
ICACHE_OVERFLOW_MPKI_SCALE = 28.0
#: i-cache miss penalty in cycles (hits in L2).
ICACHE_MISS_PENALTY = 14.0
#: Mispredicted branches per tape node (dispatch + loop exits).
BRANCH_MISSES_PER_NODE = 0.8
#: Branch misprediction penalty in cycles.
BRANCH_MISS_PENALTY = 16.0


@dataclass(frozen=True)
class SimulatedCounters:
    """Per-core steady-state counters for one (workload, platform, config)."""

    workload: str
    platform: str
    n_cores: int
    n_chains: int
    ipc: float
    icache_mpki: float
    branch_mpki: float
    llc_mpki: float
    bandwidth_mbs: float          # aggregate demand across active cores
    seconds_per_work_unit: float  # per-chain latency of one gradient eval
    llc_miss_ratio: float


class MachineModel:
    """Analytical performance model of one platform."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    # -- memory hierarchy ----------------------------------------------------

    def llc_miss_ratio(self, profile: WorkloadProfile, active_chains: int) -> float:
        """Capacity-share LLC miss ratio for ``active_chains`` resident sets."""
        usable = LLC_USABLE_FRACTION * self.platform.llc_bytes
        total = profile.working_set_bytes * max(active_chains, 1)
        if total <= usable:
            return BASE_MISS_RATIO
        overflow_fraction = 1.0 - usable / total
        return (
            BASE_MISS_RATIO
            + MISS_RATIO_SCALE * overflow_fraction ** MISS_RATIO_EXPONENT
        )

    def icache_mpki(self, profile: WorkloadProfile) -> float:
        footprint = CODE_EXPANSION * profile.code_footprint_bytes
        capacity = self.platform.icache_bytes
        mpki = ICACHE_FIT_MPKI_SCALE * min(footprint / capacity, 1.0)
        if footprint > capacity:
            mpki += ICACHE_OVERFLOW_MPKI_SCALE * (footprint - capacity) / footprint
        return mpki

    def branch_mpki(self, profile: WorkloadProfile) -> float:
        instructions = profile.instructions_per_work_unit
        return BRANCH_MISSES_PER_NODE * profile.tape_nodes / instructions * 1000.0

    # -- the full counter set -----------------------------------------------

    def counters(
        self, profile: WorkloadProfile, n_cores: int = 1, n_chains: int = 4
    ) -> SimulatedCounters:
        if n_cores < 1 or n_cores > self.platform.cores:
            raise ValueError(
                f"{self.platform.codename} has {self.platform.cores} cores; "
                f"requested {n_cores}"
            )
        if n_chains < 1:
            raise ValueError("n_chains must be >= 1")

        active = min(n_cores, n_chains)
        instructions = profile.instructions_per_work_unit
        miss_ratio = self.llc_miss_ratio(profile, active)
        llc_apki = profile.llc_accesses_per_work_unit / instructions * 1000.0
        llc_mpki = llc_apki * miss_ratio
        icache_mpki = self.icache_mpki(profile)
        branch_mpki = self.branch_mpki(profile)

        cpi = (
            1.0 / self.platform.base_ipc
            + llc_mpki / 1000.0
            * self.platform.llc_miss_penalty_cycles / MLP_FACTOR
            + icache_mpki / 1000.0 * ICACHE_MISS_PENALTY
            + branch_mpki / 1000.0 * BRANCH_MISS_PENALTY
        )
        ipc = 1.0 / cpi

        # Bandwidth demand across all active cores; throttle if it exceeds
        # the platform's peak.
        freq = self.platform.frequency_hz
        demand_bytes_s = (
            llc_mpki / 1000.0 * LINE_BYTES * (ipc * freq) * active
        )
        cap = self.platform.bandwidth_gbs * 1e9
        if demand_bytes_s > cap:
            throttle = cap / demand_bytes_s
            ipc *= throttle
            demand_bytes_s = cap

        seconds_per_work = instructions / (ipc * freq)
        return SimulatedCounters(
            workload=profile.name,
            platform=self.platform.codename,
            n_cores=n_cores,
            n_chains=n_chains,
            ipc=ipc,
            icache_mpki=icache_mpki,
            branch_mpki=branch_mpki,
            llc_mpki=llc_mpki,
            bandwidth_mbs=demand_bytes_s / 1e6,
            seconds_per_work_unit=seconds_per_work,
            llc_miss_ratio=miss_ratio,
        )

    # -- job latency ----------------------------------------------------------

    def job_seconds(
        self,
        profile: WorkloadProfile,
        chain_works: Sequence[float],
        n_cores: int,
    ) -> float:
        """End-to-end latency of one inference job.

        ``chain_works`` holds each chain's total gradient evaluations (from a
        real sampler run — unequal across chains, which is what makes the
        multicore latency "constrained by the slowest chain", Section VI-A).
        Chains are placed on cores with greedy longest-processing-time
        assignment; job latency is the busiest core's total.
        """
        works = sorted((float(w) for w in chain_works), reverse=True)
        if not works:
            return 0.0
        counters = self.counters(profile, n_cores=n_cores, n_chains=len(works))
        core_loads = [0.0] * min(n_cores, len(works))
        for work in works:
            lightest = int(np.argmin(core_loads))
            core_loads[lightest] += work
        return max(core_loads) * counters.seconds_per_work_unit
