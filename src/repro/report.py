"""Markdown report of what a served run measured.

``python -m repro report`` renders the metrics snapshot(s) ``repro serve``
writes, loaded and merged as ``repro metrics`` loads them, as four
sections: runtime telemetry, the sufficient-statistics rewrite, batched
execution and amortized serving. The paper's tables and figures are the
figure benches' (their scorecard is in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List

from repro.telemetry import TelemetrySnapshot
from repro.telemetry.instrument import (
    AMORTIZE_ESCALATIONS,
    AMORTIZE_GUIDE_TRAIN_SECONDS,
    AMORTIZE_GUIDE_TRAINS,
    AMORTIZE_KHAT,
    AMORTIZE_SERVED,
    BATCH_CHAINS,
    BATCH_DEMOTIONS,
    BATCH_LANE_EVALS,
    BATCH_PREFETCH_ROWS,
    BATCH_PREFETCH_USED,
    BATCH_ROUNDS,
    BATCH_SOLO_CALLS,
    BATCH_WIDTH,
    SAMPLER_DIVERGENCES,
    SAMPLER_ITERATIONS,
    SAMPLER_WORK,
    TAPE_SUFFSTATS_ACTIVE,
    TAPE_SUFFSTATS_DEMOTIONS,
    TAPE_SUFFSTATS_FOLDED_ELEMENTS,
    TAPE_SUFFSTATS_FOLDED_OPS,
)


def _table(header: List[str], rows: List[List[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _rollup(
    snapshot: TelemetrySnapshot, kind: str, names, by, missing="?"
) -> dict:
    """Sum the ``kind`` entries (``"counters"`` or ``"gauges"``) by label.

    ``names`` is one metric name, giving ``{key: total}``, or a set of
    names (``None``: every name), giving rows ``{key: {name: total}}``.
    ``by`` is a label name, keying by that label's value, or a tuple of
    label names, keying by the tuple of values (``()``: totals). A label
    an entry lacks reads as ``missing``; ``missing=None`` skips the entry.
    The gauges the report reads have one series per key, so their sum is
    their value.
    """
    one = isinstance(names, str)
    wanted = {names} if one else names
    labelled = (by,) if isinstance(by, str) else by
    rows: dict = {}
    for entry in snapshot.metrics.get(kind, []):
        if wanted is not None and entry["name"] not in wanted:
            continue
        labels = dict(tuple(pair) for pair in entry["labels"])
        values = tuple(labels.get(label, missing) for label in labelled)
        if None in values:
            continue
        key = values[0] if isinstance(by, str) else values
        row = rows.setdefault(key, {})
        row[entry["name"]] = row.get(entry["name"], 0.0) + entry["value"]
    return {key: row[names] for key, row in rows.items()} if one else rows


def _telemetry_section(snapshot: TelemetrySnapshot) -> List[str]:
    """Measured runtime counters and phase spans, when any were recorded.

    Snapshot files carry no spans, so the phase table shows only for a
    snapshot captured in process (:meth:`TelemetrySnapshot.capture`).
    """
    if snapshot.empty:
        return [
            "## Runtime telemetry",
            "",
            "No runtime telemetry was recorded in this snapshot.",
            "",
        ]

    per_workload = _rollup(
        snapshot, "counters", None, "workload", missing=None
    )
    lines = ["## Runtime telemetry (measured)", ""]
    if per_workload:
        rows = []
        for workload, row in sorted(per_workload.items()):
            iterations = row.get(SAMPLER_ITERATIONS, 0.0)
            work = row.get(SAMPLER_WORK, 0.0)
            rows.append([
                workload,
                f"{iterations:,.0f}",
                f"{work:,.0f}",
                f"{work / iterations:.1f}" if iterations else "-",
                f"{row.get(SAMPLER_DIVERGENCES, 0.0):,.0f}",
            ])
        lines.extend([
            _table(
                ["workload", "iterations", "grad/logp evals", "evals/iter",
                 "divergences"],
                rows,
            ),
            "",
        ])

    by_phase: dict = {}
    for span in snapshot.spans:
        count, seconds = by_phase.get(span["name"], (0, 0.0))
        by_phase[span["name"]] = (count + 1, seconds + span["duration_s"])
    if by_phase:
        rows = [
            [name, str(count), f"{seconds:.2f}"]
            for name, (count, seconds) in sorted(by_phase.items())
        ]
        lines.extend([
            _table(["phase", "spans", "total s"], rows),
            "",
        ])
    return lines


def _amortize_section(snapshot: TelemetrySnapshot) -> List[str]:
    """Amortized serving provenance, when any tiered traffic was served.

    Answers the operator question the provenance block answers per job,
    but in aggregate: how much traffic each tier absorbed, how often the
    PSIS gate escalated, and what guide training cost. Silent when the
    run never touched the amortized tiers (the common offline case).
    """
    if snapshot.empty:
        return []
    served = _rollup(snapshot, "counters", AMORTIZE_SERVED, "tier")
    escalations = _rollup(
        snapshot, "counters", AMORTIZE_ESCALATIONS, "workload"
    )
    trains = _rollup(snapshot, "counters", AMORTIZE_GUIDE_TRAINS, ())
    train_seconds = _rollup(
        snapshot, "counters", AMORTIZE_GUIDE_TRAIN_SECONDS, ()
    )
    k_hats = _rollup(snapshot, "gauges", AMORTIZE_KHAT, "workload")
    if not served and not escalations and not trains.get(()):
        return []

    lines = ["## Amortized serving (provenance)", ""]
    total_escalated = sum(escalations.values())
    lines.append(
        f"Tiered traffic: "
        + ", ".join(
            f"{count:.0f} `{tier}`" for tier, count in sorted(served.items())
        )
        + f"; {total_escalated:.0f} escalation(s) to exact; "
        f"{trains.get((), 0.0):.0f} guide(s) trained in "
        f"{train_seconds.get((), 0.0):.2f}s."
    )
    lines.append("")
    workloads = sorted(set(escalations) | set(k_hats))
    if workloads:
        rows = [
            [
                workload,
                f"{k_hats[workload]:.3f}" if workload in k_hats else "-",
                f"{escalations.get(workload, 0.0):.0f}",
            ]
            for workload in workloads
        ]
        lines.extend([
            _table(["workload", "latest k̂", "escalations"], rows),
            "",
        ])
    return lines


_BATCH_COUNTERS = {
    BATCH_ROUNDS, BATCH_LANE_EVALS, BATCH_SOLO_CALLS, BATCH_DEMOTIONS,
    BATCH_CHAINS, BATCH_PREFETCH_ROWS, BATCH_PREFETCH_USED,
}


def _batch_section(snapshot: TelemetrySnapshot) -> List[str]:
    """Batched-execution provenance, when any chain ran through repro.batch.

    Reports, per (workload, engine): lane occupancy (busy lanes over
    ``width × rounds``), effective chains per batched call and, where MH
    prefetched its reject path, the prefetched rows a chain went on to use
    over those evaluated (``used/rows``). Silent when
    nothing batched — solo runs and ``REPRO_BATCH=0`` leave these counters
    untouched.
    """
    if snapshot.empty:
        return []
    by = ("workload", "engine")
    per_key = {
        key: row
        for key, row in _rollup(
            snapshot, "counters", _BATCH_COUNTERS, by
        ).items()
        if row.get(BATCH_ROUNDS) or row.get(BATCH_SOLO_CALLS)
    }
    if not per_key:
        return []
    widths = _rollup(snapshot, "gauges", BATCH_WIDTH, by)

    lines = ["## Batched execution (measured)", ""]
    total_chains = sum(r.get(BATCH_CHAINS, 0.0) for r in per_key.values())
    total_rounds = sum(r.get(BATCH_ROUNDS, 0.0) for r in per_key.values())
    lines.append(
        f"{total_chains:.0f} chain(s) ran through the batched replay loop "
        f"in {total_rounds:.0f} batched evaluation round(s); lane "
        "accounting below is per workload/engine."
    )
    lines.append("")
    rows = []
    for key in sorted(per_key):
        row = per_key[key]
        workload, engine = key
        rounds = row.get(BATCH_ROUNDS, 0.0)
        lane_evals = row.get(BATCH_LANE_EVALS, 0.0)
        width = widths.get(key, 0.0)
        occupancy = (
            lane_evals / (rounds * width) if rounds and width else 0.0
        )
        chains_per_call = lane_evals / rounds if rounds else 0.0
        prefetched = row.get(BATCH_PREFETCH_ROWS, 0.0)
        rows.append([
            workload, engine,
            f"{width:.0f}" if width else "-",
            f"{rounds:,.0f}",
            f"{100 * occupancy:.0f}%" if occupancy else "-",
            f"{chains_per_call:.2f}" if rounds else "-",
            f"{row.get(BATCH_SOLO_CALLS, 0.0):,.0f}",
            f"{row.get(BATCH_DEMOTIONS, 0.0):.0f}",
            f"{row.get(BATCH_PREFETCH_USED, 0.0):,.0f}/{prefetched:,.0f}"
            if prefetched else "-",
        ])
    lines.extend([
        _table(
            ["workload", "engine", "width", "rounds", "occupancy",
             "chains/call", "solo calls", "demoted", "prefetch used"],
            rows,
        ),
        "",
    ])
    return lines


_SUFFSTATS_COUNTERS = {
    TAPE_SUFFSTATS_FOLDED_OPS,
    TAPE_SUFFSTATS_FOLDED_ELEMENTS,
    TAPE_SUFFSTATS_DEMOTIONS,
}


def _suffstats_section(snapshot: TelemetrySnapshot) -> List[str]:
    """Sufficient-statistics rewrite provenance, when any tape folded.

    Reports folded-op and folded-element counts (the per-replay data
    volume turned into record-time constants by
    :mod:`repro.autodiff.suffstats`) plus tolerance-validation demotions.
    Silent when no tape rewrote — small models and ``REPRO_SUFFSTATS=0``
    leave these counters untouched.
    """
    if snapshot.empty:
        return []
    per_label = _rollup(snapshot, "counters", _SUFFSTATS_COUNTERS, "workload")
    active = _rollup(snapshot, "gauges", TAPE_SUFFSTATS_ACTIVE, "workload")
    keys = [
        key for key in sorted(set(per_label) | set(active))
        if per_label.get(key, {}).get(TAPE_SUFFSTATS_FOLDED_OPS)
        or active.get(key)
    ]
    if not keys:
        return []

    lines = [
        "## Sufficient-statistics rewrite (measured)",
        "",
        "Tapes whose data-sum likelihood subgraphs were folded into "
        "record-time constants; *elements/replay* is the array volume "
        "each gradient evaluation no longer touches.",
        "",
    ]
    rows = []
    for key in keys:
        row = per_label.get(key, {})
        rows.append([
            key,
            "yes" if active.get(key) else "no",
            f"{row.get(TAPE_SUFFSTATS_FOLDED_OPS, 0.0):,.0f}",
            f"{row.get(TAPE_SUFFSTATS_FOLDED_ELEMENTS, 0.0):,.0f}",
            f"{row.get(TAPE_SUFFSTATS_DEMOTIONS, 0.0):.0f}",
        ])
    lines.extend([
        _table(
            ["workload", "active", "folded ops", "elements/replay",
             "demotions"],
            rows,
        ),
        "",
    ])
    return lines


def generate_report(snapshot: TelemetrySnapshot) -> str:
    """The four measured sections of ``snapshot`` as one Markdown page."""
    return "\n".join([
        "# BayesSuite runtime report",
        "",
        *_telemetry_section(snapshot),
        *_suffstats_section(snapshot),
        *_batch_section(snapshot),
        *_amortize_section(snapshot),
    ])
