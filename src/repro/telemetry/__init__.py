"""repro.telemetry — runtime metrics, tracing, and profiling.

The paper is a *characterization* study; this subsystem is what lets the
reproduction characterize itself at runtime instead of relying on the
static estimates in :mod:`repro.arch.profile`:

* :mod:`repro.telemetry.metrics` — process-local counters, gauges, and
  log-bucket histograms with mergeable plain-data snapshots;
* :mod:`repro.telemetry.tracing` — span tracing with a bounded buffer;
* :mod:`repro.telemetry.exposition` — Prometheus text rendering, atomic
  metrics/snapshot files;
* :mod:`repro.telemetry.instrument` — the chain instrumentation:
  cumulative per-chain statistics (the crash-proof cross-process merge,
  which in-process runs use too), metric name constants.

**Enablement.** The serving layer (:mod:`repro.serve`) is always
instrumented — a service's observability is not optional, and the cost is
a few counter adds per sampler iteration. Library-level instrumentation of
:func:`repro.inference.run_chains` is opt-in through :func:`enable` (or
``REPRO_TELEMETRY=1``; a :class:`repro.switch.Switch`, off by default),
counts each chain exactly as a served chain is counted
(:func:`chain_run`), and has a strict no-op fast path when
disabled: no hook is installed at all, so a disabled run is
bit-and-time-identical to an uninstrumented one
(``benchmarks/bench_telemetry_overhead.py`` checks both budgets).

Module-global default registry/tracer exist for exactly one reason: the
sampler hot path cannot thread a registry argument through every caller.
Components that *can* take an explicit registry (the server, the pool, the
monitor) do, defaulting to the global one.
"""

from __future__ import annotations

from functools import partial

from repro.switch import Switch
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
    TelemetrySnapshot,
    group_counters,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.telemetry.tracing import Span, Tracer

_registry = MetricsRegistry()
_tracer = Tracer()
_switch = Switch("REPRO_TELEMETRY", default=False)
enabled, enable, disable = _switch.enabled, _switch.enable, _switch.disable


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def reset() -> None:
    """Clear the global registry and tracer (test isolation)."""
    _registry.clear()
    _tracer.clear()


def chain_run(model, sampler, n_iterations: int, n_chains: int, iteration_hook):
    """Check one in-process multi-chain run; returns ``open_chain``.

    ``open_chain(chain_index)`` gives ``(hook, close)``: the hook to thread
    through that chain and the call that ends it. Only when library-level
    instrumentation is on — otherwise ``hook`` is ``iteration_hook``
    untouched and ``close`` does nothing — is a chain counted, the way
    :func:`repro.serve.workers.run_chain_group` counts a served one: its
    own :class:`ChainTelemetry`, labelled with the workload and the
    sampler's engine tag, in front of ``iteration_hook``; its blocks
    merged straight into the global registry by one
    :class:`ChainMetricsMerger`; its close step reporting how far the tape
    counters advanced since the previous chain closed.
    """
    if n_iterations < 2:
        raise ValueError("n_iterations must be at least 2")
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if not _switch.on:
        return lambda chain_index: (iteration_hook, lambda: None)
    from repro.inference.results import compose_hooks

    engine = getattr(sampler, "engine", type(sampler).__name__.lower())
    merger = ChainMetricsMerger(_registry)
    seen = group_counters(model)

    def open_chain(chain_index: int):
        chain = ChainTelemetry(
            model.name, engine, partial(merger.merge, model.name, chain_index)
        )
        return (
            compose_hooks(chain, iteration_hook),
            lambda: chain.close(group_counters(model), seen),
        )

    return open_chain


__all__ = [
    "ChainMetricsMerger",
    "ChainStats",
    "ChainTelemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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
    "read_snapshot",
    "render_prometheus",
    "reset",
    "write_metrics_file",
    "write_snapshot",
]
