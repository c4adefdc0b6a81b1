"""Process-local metrics: counters, gauges, and log-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of metrics keyed by
``(name, sorted label pairs)``. It is deliberately minimal — the shapes are
the Prometheus data model (monotone counters, last-write gauges, cumulative
histograms with fixed buckets) without a client-library dependency, because
the repo's hard constraint is the baked-in toolchain.

Three properties matter for the serving layer:

* **mergeable** — :meth:`MetricsRegistry.snapshot` produces a plain-data
  (JSON-serializable) snapshot and :meth:`MetricsRegistry.merge_snapshot`
  folds one registry's snapshot into another: counters and histogram buckets
  add, gauges last-write-win. This is how worker-process metrics reach the
  server's registry across process boundaries.
* **fixed log-scale buckets** — histograms use a fixed geometric bucket
  ladder chosen at creation, so snapshots from different processes always
  have identical bounds and bucket counts add elementwise.
* **cheap** — one observation is a few attribute updates on a plain Python
  object under one module-wide lock. Several threads write one registry
  (the server's drain threads, the gateway's handler threads), but a
  metric moves once per flushed block or served event, never per sampler
  iteration, so the lock is effectively uncontended; metric *creation*
  takes the registry lock.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram ladder: 2 buckets per decade from 1 to 1e6
#: (1, ~3.16, 10, ... 1e6) — wide enough for gradient evals, bytes are given
#: their own ladder by callers.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (i / 2.0) for i in range(0, 13)
)


def log_buckets(lo: float, hi: float, per_decade: int = 2) -> Tuple[float, ...]:
    """A fixed geometric bucket ladder covering ``[lo, hi]``.

    ``per_decade`` buckets per factor of 10; bounds are exact powers so two
    independently created ladders with the same arguments are identical
    (the merge precondition).
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for a log bucket ladder")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    start = math.floor(math.log10(lo) * per_decade)
    stop = math.ceil(math.log10(hi) * per_decade)
    return tuple(10.0 ** (i / per_decade) for i in range(start, stop + 1))


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Makes every read-modify-write of a metric atomic across threads.
_UPDATES = threading.Lock()


class Counter:
    """Monotone accumulator. Fractional increments are allowed (e.g. the
    sum of per-iteration acceptance statistics)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with _UPDATES:
            self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with _UPDATES:
            self.value += amount


class Histogram:
    """Cumulative histogram over a fixed bucket ladder.

    ``counts[i]`` counts observations ``<= bounds[i]``; the implicit final
    bucket is ``+Inf``. Bounds are fixed at creation so snapshots merge by
    elementwise addition.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times, for bulk merges of equal values)."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with _UPDATES:
            self.counts[index] += n
            self.sum += value * n
            self.count += n


class MetricsRegistry:
    """Flat, label-aware namespace of process-local metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}
        self._help: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def _describe(self, name: str) -> None:
        """Record a new metric's help text from the catalog (``instrument``
        imports this module, hence the late import; only a metric's first
        registration gets here)."""
        if name in self._help:
            return
        from repro.telemetry.instrument import help_for

        help = help_for(name)
        if help:
            self._help[name] = help

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        key = (name, _label_pairs(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
                self._describe(name)
        return metric

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        key = (name, _label_pairs(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
                self._describe(name)
        return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _label_pairs(labels))
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(buckets))
                self._describe(name)
        return metric

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._help.clear()

    # -- snapshots and cross-process merging -----------------------------------

    def snapshot(self) -> dict:
        """Plain-data (JSON-round-trippable) copy of every metric."""
        return {
            "counters": [
                {"name": name, "labels": list(pairs), "value": c.value}
                for (name, pairs), c in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": list(pairs), "value": g.value}
                for (name, pairs), g in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": list(pairs),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for (name, pairs), h in sorted(self._histograms.items())
            ],
            "help": dict(self._help),
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram bucket counts add; gauges take the incoming
        value (last write wins). Histogram bounds must match — they do by
        construction when both sides created the metric through the same
        code path.
        """
        for entry in snapshot.get("counters", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.counter(entry["name"], labels).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.gauge(entry["name"], labels).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            hist = self.histogram(
                entry["name"], labels, buckets=entry["bounds"]
            )
            if list(hist.bounds) != [float(b) for b in entry["bounds"]]:
                raise ValueError(
                    f"histogram {entry['name']!r}: bucket bounds differ; "
                    "snapshots are only mergeable across identical ladders"
                )
            with _UPDATES:
                for i, n in enumerate(entry["counts"]):
                    hist.counts[i] += int(n)
                hist.sum += float(entry["sum"])
                hist.count += int(entry["count"])
        for name, text in snapshot.get("help", {}).items():
            self._help.setdefault(name, text)

    # -- introspection (tests, displays) ---------------------------------------

    def counter_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        metric = self._counters.get((name, _label_pairs(labels)))
        return metric.value if metric is not None else 0.0

    def gauge_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        metric = self._gauges.get((name, _label_pairs(labels)))
        return metric.value if metric is not None else None

    def sum_counter(self, name: str) -> float:
        """Total of a counter across every label combination."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def histograms_named(self, name: str) -> Iterable[Tuple[LabelPairs, Histogram]]:
        for (n, pairs), hist in self._histograms.items():
            if n == name:
                yield pairs, hist
