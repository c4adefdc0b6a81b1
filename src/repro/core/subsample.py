"""Data-subsampling guidance from the LLC model (paper Section VII-B).

"With larger datasets applied to Bayesian models, simply scaling up the LLC
is not the solution. Instead, the inference algorithm should be tuned to
subsample the data such that the working set fits the LLC. Figure 3 can be
used to estimate the proper sub-sampled data size."

This module implements exactly that recommendation: given a workload profile
and a platform, find the largest data fraction whose projected working set
(for the planned number of concurrently active chains) fits the usable LLC.
The working-set model is the same one the machine model uses, so "fits"
here is consistent with "no capacity misses" there. Statistically, the
subsampled likelihood corresponds to the paper's cited subsampling MCMC
methods (Firefly MC, Quiroz et al.) and trades a little posterior precision
for cache-resident execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.machine import LLC_USABLE_FRACTION
from repro.arch.platforms import Platform
from repro.arch.profile import WorkloadProfile

#: The data fractions tried, from 1.0 down in these steps to the minimum.
RESOLUTION = 0.05
MIN_FRACTION = 0.05


@dataclass(frozen=True)
class SubsamplePlan:
    """Recommendation for one (workload, platform, chains) combination."""

    workload: str
    platform: str
    n_active_chains: int
    data_fraction: float          # fraction of the data to keep (<= 1.0)
    projected_working_set_bytes: float
    fits: bool

    @property
    def subsampling_needed(self) -> bool:
        return self.data_fraction < 1.0


def _scaled_working_set(profile: WorkloadProfile, fraction: float) -> float:
    """Working set when the modeled data is subsampled to ``fraction``.

    The data-proportional parts of the working set (the data itself and the
    per-observation intermediates) scale with the fraction; the
    dimension-proportional sampler state does not.
    """
    scaled = replace(
        profile,
        modeled_data_bytes=int(profile.modeled_data_bytes * fraction),
        modeled_data_points=int(profile.modeled_data_points * fraction),
        tape_bytes=int(profile.tape_bytes * fraction),
        tape_intermediate_bytes=int(profile.tape_intermediate_bytes * fraction),
        tape_gather_bytes=int(profile.tape_gather_bytes * fraction),
    )
    return scaled.working_set_bytes


def recommend_subsample(
    profile: WorkloadProfile, platform: Platform, n_active_chains: int = 4
) -> SubsamplePlan:
    """Largest data fraction whose aggregate working set fits the LLC."""
    if n_active_chains < 1:
        raise ValueError("n_active_chains must be >= 1")

    usable = LLC_USABLE_FRACTION * platform.llc_bytes

    def occupancy(fraction: float) -> float:
        return _scaled_working_set(profile, fraction) * n_active_chains

    # Already fits: no subsampling needed.
    if occupancy(1.0) <= usable:
        return SubsamplePlan(
            workload=profile.name,
            platform=platform.codename,
            n_active_chains=n_active_chains,
            data_fraction=1.0,
            projected_working_set_bytes=occupancy(1.0),
            fits=True,
        )

    # Walk down in RESOLUTION steps to the largest fitting fraction.
    fraction = 1.0
    while fraction - RESOLUTION >= MIN_FRACTION:
        fraction = round(fraction - RESOLUTION, 10)
        if occupancy(fraction) <= usable:
            return SubsamplePlan(
                workload=profile.name,
                platform=platform.codename,
                n_active_chains=n_active_chains,
                data_fraction=fraction,
                projected_working_set_bytes=occupancy(fraction),
                fits=True,
            )

    # Even the minimum fraction does not fit (fixed state dominates).
    return SubsamplePlan(
        workload=profile.name,
        platform=platform.codename,
        n_active_chains=n_active_chains,
        data_fraction=MIN_FRACTION,
        projected_working_set_bytes=occupancy(MIN_FRACTION),
        fits=occupancy(MIN_FRACTION) <= usable,
    )
