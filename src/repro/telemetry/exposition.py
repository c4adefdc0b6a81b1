"""Prometheus-style text exposition and snapshot files.

Two on-disk artifacts, both written with :func:`repro.durable.atomic_write`
so a scrape or a ``repro metrics`` invocation never sees a torn file:

* a **snapshot file** (JSON) — the registry's mergeable plain-data form,
  written by ``repro serve`` into the queue directory; ``repro metrics``
  loads and renders it;
* a **metrics file** (Prometheus text exposition format 0.0.4) — the form a
  node-exporter-style textfile collector scrapes, rewritten by the server
  on each poll when ``--metrics-file`` is given.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Optional

from repro.durable import atomic_write
from repro.telemetry.metrics import MetricsRegistry

#: Snapshot schema version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _label_str(pairs, extra: Optional[Mapping[str, str]] = None) -> str:
    items = [(k, v) for k, v in pairs]
    if extra:
        items.extend(extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(items))
    return "{" + body + "}"


def render_prometheus(snapshot: Mapping) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    help_text = snapshot.get("help", {})
    lines = []
    seen_headers = set()

    def header(name: str, kind: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        text = help_text.get(name)
        if text:
            lines.append(f"# HELP {name} {_escape(text)}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        header(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_label_str(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        header(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_label_str(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        header(name, "histogram")
        cumulative = 0
        for bound, count in zip(
            list(entry["bounds"]) + [float("inf")], entry["counts"]
        ):
            cumulative += int(count)
            le = _label_str(entry["labels"], {"le": _format_value(bound)})
            lines.append(f"{name}_bucket{le} {cumulative}")
        base = _label_str(entry["labels"])
        lines.append(f"{name}_sum{base} {_format_value(entry['sum'])}")
        lines.append(f"{name}_count{base} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_file(path: str, registry: MetricsRegistry) -> Path:
    """Atomically (re)write ``path`` with the registry's Prometheus text."""
    target = Path(path)
    atomic_write(target, render_prometheus(registry.snapshot()).encode())
    return target


def write_snapshot(path: str, registry: MetricsRegistry) -> Path:
    """Atomically (re)write the JSON snapshot file."""
    target = Path(path)
    payload = {"version": SNAPSHOT_VERSION, "metrics": registry.snapshot()}
    atomic_write(target, json.dumps(payload, sort_keys=True).encode())
    return target


def read_snapshot(path: str) -> dict:
    """Load a snapshot file; returns the registry snapshot dict."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"metrics snapshot {path} has version {version!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    return payload["metrics"]
