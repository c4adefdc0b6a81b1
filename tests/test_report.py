"""Tests for ``repro report``, the Markdown report of a served run's
metrics snapshot.

The measured sections — ``_telemetry_section``, ``_suffstats_section``,
``_batch_section`` and ``_amortize_section`` — are pinned byte for byte
against ``tests/data/report_golden.md``, rendered from the fixed snapshots
below. Regenerate (only for an intended change to what a section prints)
with::

    PYTHONPATH=src python tests/test_report.py --write
"""

import re
import sys
from pathlib import Path

import pytest

from repro.report import (
    _amortize_section,
    _batch_section,
    _suffstats_section,
    _table,
    _telemetry_section,
)
from repro.telemetry import MetricsRegistry, TelemetrySnapshot
from repro.telemetry import instrument as ins

GOLDEN = Path(__file__).parent / "data" / "report_golden.md"


def _full_snapshot() -> TelemetrySnapshot:
    """Counters, gauges and spans that reach every branch of all four
    sections: rows summed across label sets, rows with a zero denominator,
    missing labels, and entries each section filters out."""
    registry = MetricsRegistry()

    def count(name, value, **labels):
        registry.counter(name, labels).inc(value)

    def gauge(name, value, **labels):
        registry.gauge(name, labels).set(value)

    # Sampler counters: two engines on one workload sum into one row.
    count(ins.SAMPLER_ITERATIONS, 120, workload="votes", engine="mh")
    count(ins.SAMPLER_WORK, 8148, workload="votes", engine="mh")
    count(ins.SAMPLER_DIVERGENCES, 0, workload="votes", engine="mh")
    count(ins.SAMPLER_ITERATIONS, 60, workload="12cities", engine="nuts")
    count(ins.SAMPLER_ITERATIONS, 40, workload="12cities", engine="hmc")
    count(ins.SAMPLER_WORK, 3909.5, workload="12cities", engine="nuts")
    count(ins.SAMPLER_WORK, 1200, workload="12cities", engine="hmc")
    count(ins.SAMPLER_DIVERGENCES, 3, workload="12cities", engine="nuts")
    count(ins.TAPE_REPLAYS, 5109, workload="12cities", engine="nuts")
    # Unlabelled: no per-workload row.
    count(ins.SERVE_JOBS, 2, state="done")

    # Suffstats: folded ops summed over engines, an active-only workload,
    # an inactive folded one, and two that are filtered out.
    count(ins.TAPE_SUFFSTATS_FOLDED_OPS, 3, workload="tickets", engine="nuts")
    count(ins.TAPE_SUFFSTATS_FOLDED_OPS, 2, workload="tickets", engine="hmc")
    count(ins.TAPE_SUFFSTATS_FOLDED_ELEMENTS, 57600, workload="tickets",
          engine="nuts")
    count(ins.TAPE_SUFFSTATS_FOLDED_ELEMENTS, 1234567, workload="tickets",
          engine="hmc")
    count(ins.TAPE_SUFFSTATS_DEMOTIONS, 1, workload="tickets", engine="hmc")
    gauge(ins.TAPE_SUFFSTATS_ACTIVE, 1, workload="tickets", engine="nuts")
    gauge(ins.TAPE_SUFFSTATS_ACTIVE, 0, workload="tickets", engine="hmc")
    gauge(ins.TAPE_SUFFSTATS_ACTIVE, 1, workload="ad", engine="nuts")
    count(ins.TAPE_SUFFSTATS_FOLDED_OPS, 4, workload="radon", engine="nuts")
    count(ins.TAPE_SUFFSTATS_DEMOTIONS, 1, workload="survival", engine="nuts")
    gauge(ins.TAPE_SUFFSTATS_ACTIVE, 0, workload="disease", engine="nuts")

    # Batch: a full row, a solo-calls-only row without width, a row with
    # no engine label, a prefetching MH row, and a chains-only key that is
    # filtered out.
    count(ins.BATCH_ROUNDS, 4720, workload="12cities", engine="nuts")
    count(ins.BATCH_LANE_EVALS, 17000, workload="12cities", engine="nuts")
    count(ins.BATCH_SOLO_CALLS, 12, workload="12cities", engine="nuts")
    count(ins.BATCH_DEMOTIONS, 1, workload="12cities", engine="nuts")
    count(ins.BATCH_CHAINS, 4, workload="12cities", engine="nuts")
    gauge(ins.BATCH_WIDTH, 4, workload="12cities", engine="nuts")
    count(ins.BATCH_SOLO_CALLS, 7, workload="tickets", engine="hmc")
    count(ins.BATCH_ROUNDS, 30, workload="votes")
    count(ins.BATCH_LANE_EVALS, 45, workload="votes")
    count(ins.BATCH_CHAINS, 2, workload="votes")
    gauge(ins.BATCH_WIDTH, 2, workload="votes")
    count(ins.BATCH_CHAINS, 3, workload="radon", engine="hmc")
    count(ins.BATCH_ROUNDS, 2600, workload="votes", engine="mh")
    count(ins.BATCH_LANE_EVALS, 52000, workload="votes", engine="mh")
    count(ins.BATCH_CHAINS, 4, workload="votes", engine="mh")
    count(ins.BATCH_PREFETCH_ROWS, 41600, workload="votes", engine="mh")
    count(ins.BATCH_PREFETCH_USED, 24960, workload="votes", engine="mh")
    gauge(ins.BATCH_WIDTH, 20, workload="votes", engine="mh")

    # Amortize: tiers summed across workloads, an unlabelled tier,
    # escalations summed per workload, k-hats with and without escalations.
    count(ins.AMORTIZE_SERVED, 10, tier="fast", workload="ad")
    count(ins.AMORTIZE_SERVED, 2, tier="fast", workload="votes")
    count(ins.AMORTIZE_SERVED, 5, tier="checked", workload="ad")
    count(ins.AMORTIZE_SERVED, 1)
    count(ins.AMORTIZE_ESCALATIONS, 2, workload="ad", reason="khat")
    count(ins.AMORTIZE_ESCALATIONS, 1, workload="ad", reason="brownout")
    count(ins.AMORTIZE_ESCALATIONS, 1)
    count(ins.AMORTIZE_GUIDE_TRAINS, 3, workload="ad")
    count(ins.AMORTIZE_GUIDE_TRAIN_SECONDS, 1.25, workload="ad")
    gauge(ins.AMORTIZE_KHAT, 0.6125, workload="ad")
    gauge(ins.AMORTIZE_KHAT, 0.2, workload="votes")

    spans = [
        {"name": "serve.execute", "duration_s": 1.5},
        {"name": "serve.execute", "duration_s": 0.25},
        {"name": "suite.run", "duration_s": 12.0},
        {"name": "serve.place", "duration_s": 0.002},
    ]
    return TelemetrySnapshot(metrics=registry.snapshot(), spans=spans)


def _silent_snapshot() -> TelemetrySnapshot:
    """Not empty, yet no section has a row to render: an unlabelled
    counter, a chains-only batch key, a demotion-only suffstats workload,
    and a k-hat with no amortized traffic."""
    registry = MetricsRegistry()
    registry.counter(ins.SERVE_JOBS, {"state": "done"}).inc()
    registry.counter(ins.BATCH_CHAINS).inc(2)
    registry.gauge(ins.TAPE_SUFFSTATS_ACTIVE, {"workload": "ad"}).set(0)
    registry.gauge(ins.AMORTIZE_KHAT, {"workload": "ad"}).set(0.4)
    return TelemetrySnapshot(metrics=registry.snapshot(), spans=[])


SNAPSHOTS = {
    "full": _full_snapshot,
    "empty": lambda: TelemetrySnapshot(metrics={}, spans=[]),
    "silent": _silent_snapshot,
}


def _render(snapshot: TelemetrySnapshot) -> str:
    """The four measured sections, in ``generate_report``'s order."""
    return "\n".join([
        *_telemetry_section(snapshot),
        *_suffstats_section(snapshot),
        *_batch_section(snapshot),
        *_amortize_section(snapshot),
    ])


def _render_all() -> str:
    return "".join(
        f"<!-- snapshot: {name} -->\n{_render(build())}\n"
        for name, build in SNAPSHOTS.items()
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report.py --write")
    GOLDEN.write_text(_render_all(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
    sys.exit(0)


class TestTableRendering:
    def test_table_shape(self):
        text = _table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4


class TestMeasuredSections:
    def test_render_matches_golden(self):
        assert _render_all() == GOLDEN.read_text(encoding="utf-8")

    def test_golden_reaches_every_section(self):
        text = GOLDEN.read_text(encoding="utf-8")
        for heading in (
            "## Runtime telemetry (measured)",
            "## Sufficient-statistics rewrite (measured)",
            "## Batched execution (measured)",
            "## Amortized serving (provenance)",
            "No runtime telemetry was recorded",
        ):
            assert heading in text

    def test_batch_section_reads_a_served_nuts_job(self):
        """The group runs in a pool worker; its batch counters reach the
        server's registry in the chains' close payloads."""
        from repro.serve import InferenceServer
        from repro.telemetry import Tracer

        registry, tracer = MetricsRegistry(), Tracer()
        with InferenceServer(
            n_workers=1, registry=registry, tracer=tracer
        ) as server:
            server.submit(
                "12cities", engine="nuts", n_iterations=12, n_warmup=6,
                n_chains=3, scale=0.25, elide=False,
            )
            (job,) = server.run_until_drained()
        assert job.state.value == "done"
        section = "\n".join(
            _batch_section(TelemetrySnapshot.capture(registry, tracer))
        )
        assert "## Batched execution (measured)" in section
        assert "3 chain(s) ran through the batched replay loop" in section

    def test_batch_section_reads_a_served_mh_jobs_prefetch(self):
        """A batched MH group long enough to widen prefetches its reject
        path; the rows it used over those evaluated reach the report."""
        from repro.batch.driver import MIN_WIDE_ITERATIONS
        from repro.serve import InferenceServer
        from repro.telemetry import Tracer

        registry, tracer = MetricsRegistry(), Tracer()
        with InferenceServer(
            n_workers=1, registry=registry, tracer=tracer
        ) as server:
            server.submit(
                "votes", engine="mh", n_iterations=MIN_WIDE_ITERATIONS,
                n_chains=4, scale=0.25, elide=False,
            )
            (job,) = server.run_until_drained()
        assert job.state.value == "done"
        section = "\n".join(
            _batch_section(TelemetrySnapshot.capture(registry, tracer))
        )
        row, = [line for line in section.splitlines() if "| votes | mh |" in line]
        used, rows = (
            int(n.replace(",", ""))
            for n in re.search(r"\| ([\d,]+)/([\d,]+) \|$", row).groups()
        )
        assert 0 < used < rows


class TestCliParser:
    def test_report_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report"])
        assert args.queue_dir == ".repro-serve"
        assert args.snapshots is None
        args = build_parser().parse_args(
            ["report", "--snapshot", "a.json", "--snapshot", "b.json"]
        )
        assert args.snapshots == ["a.json", "b.json"]


class TestReportCommand:
    def test_report_renders_a_served_jobs_snapshot(self, tmp_path, capsys):
        """``repro report`` reads the snapshot ``repro serve`` writes: a
        served batched job's row reaches stdout."""
        from repro.cli import main
        from repro.serve import InferenceServer
        from repro.telemetry.exposition import write_snapshot

        registry = MetricsRegistry()
        with InferenceServer(n_workers=1, registry=registry) as server:
            server.submit(
                "12cities", engine="nuts", n_iterations=12, n_warmup=6,
                n_chains=3, scale=0.25, elide=False,
            )
            (job,) = server.run_until_drained()
        assert job.state.value == "done"
        path = write_snapshot(str(tmp_path / "metrics.json"), registry)

        assert main(["report", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Batched execution (measured)" in out
        (row,) = [
            line for line in out.splitlines()
            if line.startswith("| 12cities | nuts |")
        ]
        assert "| 3 |" in row  # width: the job's three chains as lanes

    def test_a_missing_snapshot_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--queue-dir", str(tmp_path)]) == 1
        assert "no metrics snapshot" in capsys.readouterr().err
