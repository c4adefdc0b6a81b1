"""Resilience for the serving stack: deadlines, shedding, breakers, chaos.

This package holds the overload-protection and graceful-degradation
policies that connect the fault-tolerant workers (PR 2), the telemetry
subsystem (PR 3), the gateway (PR 4), and the amortized tiers (PR 6) into
one story:

* :mod:`repro.resilience.admission` — cost-aware load shedding from
  measured per-family service times, plus the brownout tier-downgrade
  machine.
* :mod:`repro.resilience.breakers` — circuit breakers with half-open
  probing around failure-prone dependencies.
* :mod:`repro.resilience.chaos` — the stack's one fault injector (chain,
  disk, network and lease faults from one ``REPRO_CHAOS`` plan), used by
  the fault and chaos suites and available against live services.

Per-job deadlines live on :class:`repro.serve.job.JobSpec` (``deadline_s``)
and are enforced by :class:`repro.serve.server.InferenceServer` with
cooperative mid-run cancellation through the worker pool's stop broadcast.
See ``docs/resilience.md``.
"""

from repro.resilience.admission import (
    AdmissionController,
    LoadSheddedError,
    family_key,
)
from repro.resilience.breakers import (
    BreakerBoard,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.resilience.chaos import ChaosFault, ChaosInjector
from repro.resilience.errors import AdmissionError

__all__ = [
    "AdmissionError",
    "AdmissionController",
    "LoadSheddedError",
    "family_key",
    "BreakerBoard",
    "CircuitBreaker",
    "CircuitOpenError",
    "ChaosFault",
    "ChaosInjector",
]
