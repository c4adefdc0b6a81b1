"""repro.telemetry — runtime metrics, tracing, and profiling.

The paper is a *characterization* study; this subsystem is what lets the
reproduction characterize itself at runtime instead of relying on the
static estimates in :mod:`repro.arch.profile`:

* :mod:`repro.telemetry.metrics` — process-local counters, gauges, and
  log-bucket histograms with mergeable plain-data snapshots;
* :mod:`repro.telemetry.tracing` — span tracing with a bounded buffer and
  JSONL export;
* :mod:`repro.telemetry.exposition` — Prometheus text rendering, atomic
  metrics/snapshot files;
* :mod:`repro.telemetry.instrument` — the sampler/serve instrumentation:
  stats-aware iteration hooks, cumulative per-chain statistics (the
  crash-proof cross-process merge), metric name constants.

**Enablement.** The serving layer (:mod:`repro.serve`) is always
instrumented — a service's observability is not optional, and the cost is
a few counter adds per sampler iteration. Library-level instrumentation of
:func:`repro.inference.run_chains` is opt-in through :func:`enable` (or
``REPRO_TELEMETRY=1``) and has a strict no-op fast path when disabled: no
hook is installed at all, so a disabled run is bit-and-time-identical to an
uninstrumented one (``benchmarks/bench_telemetry_overhead.py`` checks
both budgets).

Module-global default registry/tracer exist for exactly one reason: the
sampler hot path cannot thread a registry argument through every caller.
Components that *can* take an explicit registry (the server, the pool, the
monitor) do, defaulting to the global one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.telemetry.exposition import (
    read_snapshot,
    render_prometheus,
    write_metrics_file,
    write_snapshot,
)
from repro.telemetry.instrument import (
    ChainMetricsMerger,
    ChainStats,
    ChainTelemetry,
    SamplerInstrument,
    TelemetrySnapshot,
    observe_tape_stats,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.telemetry.tracing import Span, Tracer, read_jsonl

_registry = MetricsRegistry()
_tracer = Tracer()
_enabled = os.environ.get("REPRO_TELEMETRY", "").strip().lower() in (
    "1", "true", "on", "yes",
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def enabled() -> bool:
    """Whether library-level sampler instrumentation is on."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear the global registry and tracer (test isolation)."""
    _registry.clear()
    _tracer.clear()


def sampler_hook(model_name: str, sampler) -> Optional[SamplerInstrument]:
    """A registry-backed stats hook for one run, or None when disabled.

    ``sampler`` may be an engine name or a sampler instance (its class name
    is lowercased into the ``engine`` label).
    """
    if not _enabled:
        return None
    engine = (
        sampler if isinstance(sampler, str)
        else type(sampler).__name__.lower()
    )
    return SamplerInstrument(_registry, workload=model_name, engine=engine)


@contextmanager
def chain_run(model, sampler, n_iterations: int, n_chains: int, iteration_hook):
    """Bracket one in-process multi-chain run; yields the hook to thread.

    Checks the budget every executor checks, and — only when library-level
    instrumentation is on; otherwise ``iteration_hook`` comes back
    untouched — composes the sampler stats hook in front of it and, once
    the run is through, publishes the advance of ``model.tape_stats()``
    over the run (:func:`observe_tape_stats`).
    """
    if n_iterations < 2:
        raise ValueError("n_iterations must be at least 2")
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if not _enabled:
        yield iteration_hook
        return
    from repro.inference.results import compose_hooks

    tape_stats = getattr(model, "tape_stats", lambda: None)
    before = dict(tape_stats() or {})
    yield compose_hooks(sampler_hook(model.name, sampler), iteration_hook)
    stats = tape_stats()
    if stats:
        observe_tape_stats(
            _registry,
            {f"tape_{key}": value - before.get(key, 0)
             for key, value in stats.items()},
            labels={"workload": model.name},
        )


__all__ = [
    "ChainMetricsMerger",
    "ChainStats",
    "ChainTelemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SamplerInstrument",
    "Span",
    "TelemetrySnapshot",
    "Tracer",
    "chain_run",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "log_buckets",
    "observe_tape_stats",
    "read_jsonl",
    "read_snapshot",
    "render_prometheus",
    "reset",
    "sampler_hook",
    "write_metrics_file",
    "write_snapshot",
]
