"""Architectural simulation substrate.

The paper characterizes BayesSuite with hardware performance counters on two
Intel machines (Table II). This package is the reproduction's stand-in for
that testbed:

* :mod:`repro.arch.platforms` — the Table II machine specifications;
* :mod:`repro.arch.cache` — a set-associative LRU cache simulator;
* :mod:`repro.arch.trace` — synthetic chain-interleaved access traces that
  drive the cache simulator and validate the analytical occupancy model;
* :mod:`repro.arch.profile` — extraction of *measured* workload features
  (modeled data bytes, autodiff tape size and critical path, gradient
  evaluations per iteration, code footprint);
* :mod:`repro.arch.machine` — the analytical multicore performance model
  mapping (workload profile, platform, cores, chains) to IPC, MPKI,
  bandwidth and runtime;
* :mod:`repro.arch.energy` — package power and energy.

The mechanisms the machine model encodes are exactly the ones the paper
identifies: per-chain working sets contend for a shared LLC, miss rates rise
once aggregate occupancy exceeds LLC capacity, bandwidth is proportional to
LLC misses, and compute-bound workloads scale with core count and frequency.
"""

from repro.arch.platforms import Platform, SKYLAKE, BROADWELL, PLATFORMS
from repro.arch.cache import SetAssociativeCache
from repro.arch.profile import WorkloadProfile, profile_workload
from repro.arch.machine import MachineModel, SimulatedCounters
from repro.arch.energy import EnergyModel
from repro.arch.accelerator import (
    AcceleratorConfig,
    AcceleratorModel,
    AcceleratorProjection,
)

__all__ = [
    "AcceleratorConfig",
    "AcceleratorModel",
    "AcceleratorProjection",
    "Platform",
    "SKYLAKE",
    "BROADWELL",
    "PLATFORMS",
    "SetAssociativeCache",
    "WorkloadProfile",
    "profile_workload",
    "MachineModel",
    "SimulatedCounters",
    "EnergyModel",
]
