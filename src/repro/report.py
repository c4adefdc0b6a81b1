"""One-shot Markdown report over the whole reproduction.

``python -m repro report -o report.md`` runs the characterization,
scheduling, and elision pipeline on every workload (re-using a
:class:`~repro.core.pipeline.SuiteRunner` disk cache when given) and writes
a self-contained Markdown summary — the README-sized version of what the
figure benches print.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, SKYLAKE, Platform
from repro.core.elision import ConvergenceDetector
from repro.core.pipeline import SuiteRunner, evaluate_overall
from repro.suite import table_one, workload_names
from repro.telemetry import TelemetrySnapshot, get_registry, get_tracer
from repro.telemetry.instrument import (
    AMORTIZE_ESCALATIONS,
    AMORTIZE_GUIDE_TRAIN_SECONDS,
    AMORTIZE_GUIDE_TRAINS,
    AMORTIZE_KHAT,
    AMORTIZE_SERVED,
    BATCH_CHAINS,
    BATCH_DEMOTIONS,
    BATCH_LANE_EVALS,
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


def _workload_table() -> str:
    rows = [
        [info.name, info.model_family, str(info.default_iterations)]
        for info in table_one()
    ]
    return _table(["workload", "model", "user iterations"], rows)


def _platform_table() -> str:
    rows = []
    for platform in (SKYLAKE, BROADWELL):
        rows.append([
            platform.codename, platform.processor, str(platform.cores),
            f"{platform.turbo_ghz:.1f} GHz", f"{platform.llc_mb:.0f} MB",
            f"{platform.tdp_w:.0f} W",
        ])
    return _table(["platform", "processor", "cores", "turbo", "LLC", "TDP"], rows)


def _characterization_table(runner: SuiteRunner, platform: Platform) -> str:
    machine = MachineModel(platform)
    rows = []
    for name in workload_names():
        profile = runner.profile(name)
        counters = machine.counters(profile, n_cores=4, n_chains=4)
        rows.append([
            name,
            f"{profile.modeled_data_bytes:,d}",
            f"{profile.working_set_bytes / 1e6:.2f} MB",
            f"{counters.ipc:.2f}",
            f"{counters.llc_mpki:.2f}",
            f"{counters.bandwidth_mbs:,.0f}",
        ])
    return _table(
        ["workload", "data bytes", "WS/chain", "IPC@4c", "LLC MPKI@4c",
         "BW MB/s"],
        rows,
    )


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

    Everything here is *measured* at run time, in contrast to the
    characterization table's static (model-based) estimates — the
    ``source`` tag on :class:`~repro.arch.profile.WorkloadProfile` marks
    that distinction at the data level; this section keeps it visible in
    the rendered report.
    """
    if snapshot.empty:
        return [
            "## Runtime telemetry",
            "",
            "No runtime telemetry was recorded for this run (enable with "
            "`REPRO_TELEMETRY=1` or `repro.telemetry.enable()`).",
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
    BATCH_CHAINS,
}


def _batch_section(snapshot: TelemetrySnapshot) -> List[str]:
    """Batched-execution provenance, when any chain ran through repro.batch.

    Reports, per (workload, engine): lane occupancy (busy lanes over
    ``width × rounds``) and effective chains per batched call. Silent when
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
        rows.append([
            workload, engine,
            f"{width:.0f}" if width else "-",
            f"{rounds:,.0f}",
            f"{100 * occupancy:.0f}%" if occupancy else "-",
            f"{chains_per_call:.2f}" if rounds else "-",
            f"{row.get(BATCH_SOLO_CALLS, 0.0):,.0f}",
            f"{row.get(BATCH_DEMOTIONS, 0.0):.0f}",
        ])
    lines.extend([
        _table(
            ["workload", "engine", "width", "rounds", "occupancy",
             "chains/call", "solo calls", "demoted"],
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


def _speedup_table(runner: SuiteRunner) -> tuple[str, float]:
    results = evaluate_overall(runner, detector=ConvergenceDetector())
    rows = []
    for row in results:
        rows.append([
            row.name, row.platform,
            f"{row.baseline_seconds:.1f}", f"{row.optimized_seconds:.1f}",
            f"{row.speedup:.2f}x",
            str(row.converged_iteration),
            f"{100 * row.iterations_saved_fraction:.0f}%",
        ])
    average = float(np.mean([r.speedup for r in results]))
    return _table(
        ["workload", "platform", "baseline s", "optimized s", "speedup",
         "converged@", "iters saved"],
        rows,
    ), average


def generate_report(
    runner: Optional[SuiteRunner] = None,
    title: str = "BayesSuite reproduction report",
    telemetry_snapshot: Optional[TelemetrySnapshot] = None,
) -> str:
    """Build the full Markdown report (runs the suite if not cached).

    ``telemetry_snapshot`` defaults to a capture of the process-global
    registry and tracer *after* the suite runs, so anything the run
    recorded (spans always, sampler counters when telemetry is enabled)
    appears in the report's measured section.
    """
    runner = runner or SuiteRunner()
    speedups, average = _speedup_table(runner)
    if telemetry_snapshot is None:
        telemetry_snapshot = TelemetrySnapshot.capture(
            get_registry(), get_tracer()
        )
    sections = [
        f"# {title}",
        "",
        "Reproduction of *Demystifying Bayesian Inference Workloads* "
        "(ISPASS 2019). Latencies are machine-model projections at the "
        "workloads' original iteration budgets; see DESIGN.md.",
        "",
        "## Workloads (Table I)",
        "",
        _workload_table(),
        "",
        "## Platforms (Table II)",
        "",
        _platform_table(),
        "",
        "## Characterization at 4 cores (Skylake) — static estimates",
        "",
        "All numbers below are model-based (`WorkloadProfile.source == "
        '"static"`); measured runtime counters are reported separately '
        "under *Runtime telemetry*.",
        "",
        _characterization_table(runner, SKYLAKE),
        "",
        "## Scheduling + elision (Figure 8)",
        "",
        speedups,
        "",
        f"**Average speedup over the Broadwell baseline: {average:.2f}x** "
        "(paper: 5.8x).",
        "",
        *_telemetry_section(telemetry_snapshot),
        *_suffstats_section(telemetry_snapshot),
        *_batch_section(telemetry_snapshot),
        *_amortize_section(telemetry_snapshot),
    ]
    return "\n".join(sections)


def write_report(path: str, runner: Optional[SuiteRunner] = None) -> str:
    """Generate and write the report; returns the path."""
    content = generate_report(runner)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path
