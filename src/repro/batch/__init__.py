"""repro.batch — cross-chain vectorized tape replay.

The paper's bottom line is that MCMC throughput is bounded by per-iteration
``logp``+gradient evaluations. :mod:`repro.autodiff.compile` removed the
graph-rebuild overhead from a *single* evaluation; this subsystem removes
the per-*chain* dispatch overhead: every chain of a job (and same-shape
chains across queued jobs) shares the compiled tape's structure exactly, so
their states can be stacked along a leading batch axis and replayed as one
batched numpy evaluation per instruction instead of one per chain.

Two layers:

* :mod:`repro.batch.engine` — :class:`BatchedTape` (the batch-axis replay
  engine over :data:`repro.autodiff.ops.KERNELS`, with per-instruction
  vector/lane modes and runtime bit-identity calibration) and
  :class:`BatchedEvaluator` (the model-facing wrapper that acquires the
  solo tape, falls back per lane when compilation is unavailable, and
  reproduces ``Model.compiled_logp_and_grad`` semantics per lane).
* :mod:`repro.batch.driver` — the round loop that holds one suspended
  sampler step generator per chain, one lane each (see
  :mod:`repro.inference.stepper`), answers all pending requests with one
  batched evaluation, and exposes :func:`run_chains_batched` as the
  batched counterpart of :func:`repro.inference.run_chains`.

Lanes need not be chains: :meth:`repro.amortize.GuideStore.train` gives
each Monte Carlo draw of an ADVI step one lane.

Everything here is bit-identical to the solo compiled-tape path by
construction and by probation at run time; see ``docs/batching.md`` and,
for the protocol and the ``REPRO_BATCH`` kill switch,
``docs/performance.md`` ("How a fast path earns trust").
"""

from __future__ import annotations

from repro.batch.driver import BatchedChainDriver, run_chains_batched
from repro.batch.engine import BatchedEvaluator, BatchedTape
from repro.switch import Switch

__all__ = [
    "BatchedChainDriver",
    "BatchedEvaluator",
    "BatchedTape",
    "run_chains_batched",
    "enabled",
    "enable",
    "disable",
    "override",
]


_switch = Switch("REPRO_BATCH")
enabled, enable, disable, override = (
    _switch.enabled, _switch.enable, _switch.disable, _switch.override
)
