"""Sufficient-statistics rewrite speedup — replay cost vs modeled data size.

For three BayesSuite workloads whose likelihoods fold
(:mod:`repro.autodiff.suffstats`), this measures per-call gradient cost of
the compiled tape with the rewrite **off** vs **on**, along a data-size
axis: each workload's synthetic dataset is tiled ``reps``× past its
full-scale size, so the unrewritten replay grows O(N) while the rewritten
replay stays O(parameters). The headline number backs the PR's claim:
**the speedup grows with data size, reaching >=2x on the survival
workload at full scale and ~10x at 8x data** — the paper's observation
that likelihood evaluation dominates these workloads, turned into an
optimization.

Values and gradients are asserted equivalent (1e-8 relative) between the
two tapes at every measured position before any timing, and a rewrite
that was demoted or inactive fails the measurement — the speedup column
never trades correctness for throughput.

Three entry points:

* standalone — ``python benchmarks/bench_suffstats.py`` prints a table
  and writes ``BENCH_suffstats.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed
  baseline JSON and exits non-zero if any point (its upper quartile) fell
  below :data:`REGRESSION_FLOOR` (0.75) of its baseline
  speedup,
  the survival headline dropped below 2x, or any workload's speedup
  stopped growing with data size — the nightly CI gate;
* pytest — a reduced smoke test (survival at 1x and 4x data) asserting
  equivalence and >=2x at the larger size.

The two tapes are timed in adjacent blocks, order alternating
(``_harness.interleaved``): every repeat yields one ``off / on`` ratio
taken in one machine state, ``speedup`` is their median and
``speedup_iqr`` their quartiles, which is what ``--check`` gates on.

Knobs: ``REPRO_BENCH_CALLS`` (rounds per timing, default 60),
``REPRO_BENCH_REPEATS`` (interleaved repeats, default 5). The data-size axis
is the ``reps`` ladder below, not ``REPRO_BENCH_SCALE`` — the suite
factories cap ``scale`` at 1.0, so growth comes from tiling the
per-observation arrays.
"""

import json
import os
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, interleaved, main

import repro.suite.disease
import repro.suite.survival
import repro.suite.tickets
from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats
from repro.suite import load_workload

CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "60"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
#: Looser than the batch bench's 0.9: these ladders span 60s-era container
#: timing noise of ~20% at the large-reps points, and the absolute
#: headline/growth gates below catch a rewrite that stops engaging
#: (speedup collapses to ~1x) regardless of this floor.
REGRESSION_FLOOR = 0.75

BASELINE_PATH = Path(__file__).parent / "BENCH_suffstats.json"

#: Data-size ladders (reps multiplies the observation count). survival is
#: the headline: its CJS likelihood folds completely, so the speedup is
#: essentially N/params. tickets keeps an irreducible logsumexp mixture
#: branch (modest, still growing); disease's spline design only out-costs
#: the folded Gram form once the dataset is large, so its ladder reaches
#: further.
REPS = {
    "survival": (1, 2, 4, 8),
    "tickets": (1, 2, 4, 8),
    "disease": (1, 4, 16, 64),
}

#: The workload that must hold >=2x at its largest data size.
HEADLINE = "survival"
HEADLINE_FLOOR = 2.0

#: Monotone-growth tolerance: consecutive ladder points may dip at most
#: this fraction below the previous one; the ladder's last point must
#: still exceed 0.9x its first. The slack absorbs real non-monotonicity
#: on tickets, whose irreducible logsumexp branch shifts the folded
#: fraction with the tiled mixture ratios, on top of timing noise.
MONOTONE_TOL = 0.75

#: Positions evaluated per timed round (and checked for equivalence).
N_POSITIONS = 2

_TILERS = {
    "survival": (
        repro.suite.survival, "make_survival",
        lambda data, reps: data.update({
            "histories": np.tile(data["histories"], (reps, 1)),
            "first_capture": np.tile(data["first_capture"], reps),
        }),
    ),
    "tickets": (
        repro.suite.tickets, "make_tickets",
        lambda data, reps: data.update({
            "tickets": np.tile(data["tickets"], reps),
            "officer": np.tile(data["officer"], reps),
            "quota_phase": np.tile(data["quota_phase"], reps),
            "log_exposure": np.tile(data["log_exposure"], reps),
        }),
    ),
    "disease": (
        repro.suite.disease, "make_disease",
        # The I-spline basis expects ordered observation times.
        lambda data, reps: data.update({
            "t": np.sort(np.tile(data["t"], reps)),
            "y": np.tile(data["y"], reps),
        }),
    ),
}


def _tiled_model(name: str, reps: int):
    """A full-scale workload with its dataset tiled ``reps``x."""
    if reps == 1:
        return load_workload(name, scale=1.0)
    module, attr, tile = _TILERS[name]
    original = getattr(module, attr)

    def tiled_factory(scale=1.0, seed=None, _original=original):
        data = _original(scale=scale) if seed is None else _original(
            scale=scale, seed=seed
        )
        tile(data, reps)
        return data

    setattr(module, attr, tiled_factory)
    try:
        return load_workload(name, scale=1.0)
    finally:
        setattr(module, attr, original)


def _positions(model) -> list:
    rng = np.random.default_rng(0)
    return [
        model.initial_position(rng) + 0.1 * rng.standard_normal(model.dim)
        for _ in range(N_POSITIONS)
    ]


def _warmed(name: str, reps: int, rewritten: bool, xs: list):
    """A model with its tape recorded and validation replays drained."""
    with suffstats.override(rewritten):
        model = _tiled_model(name, reps)
        for x in xs:
            model.compiled_logp_and_grad(x)
        model.compiled_logp_and_grad(xs[0])
    return model


def measure_point(
    name: str, reps: int, calls: int = CALLS, repeats: int = REPEATS
) -> dict:
    probe = _tiled_model(name, reps)
    xs = _positions(probe)

    with tape_compile.override(True):
        off = _warmed(name, reps, rewritten=False, xs=xs)
        on = _warmed(name, reps, rewritten=True, xs=xs)

        equivalent = True
        for x in xs:
            v_off, g_off = off.compiled_logp_and_grad(x)
            v_on, g_on = on.compiled_logp_and_grad(x)
            equivalent = equivalent and bool(
                np.isclose(v_on, v_off, rtol=1e-8, atol=1e-8)
                and np.allclose(g_on, g_off, rtol=1e-8, atol=1e-8)
            )

        def block(fn):
            def run():
                for _ in range(calls):
                    for x in xs:
                        fn(x)
            return run

        off_s, on_s = interleaved(
            [block(off.compiled_logp_and_grad),
             block(on.compiled_logp_and_grad)],
            repeats,
        )

    low, speedup, high = np.percentile(
        [a / b for a, b in zip(off_s, on_s)], [25, 50, 75]
    ).tolist()
    stats = on.tape_stats()
    return {
        "workload": name,
        "reps": reps,
        "data_points": int(on.modeled_data_points),
        "off_us": 1e6 * float(np.median(off_s)) / (calls * len(xs)),
        "on_us": 1e6 * float(np.median(on_s)) / (calls * len(xs)),
        "speedup": speedup,
        "speedup_iqr": (low, high),
        "equivalent": equivalent,
        "active": int(stats["suffstats_active"]),
        "folded_ops": int(stats["suffstats_folded_ops"]),
        "folded_elements": int(stats["suffstats_folded_elements"]),
        "demotions": int(stats["suffstats_demotions"]),
    }


def measure_all() -> list:
    return [
        measure_point(name, reps)
        for name in REPS
        for reps in REPS[name]
    ]


def report(rows: list) -> None:
    print(
        f"{'workload':10s} {'reps':>4s} {'n_data':>8s} {'off us':>9s} "
        f"{'on us':>9s} {'speedup':>8s} {'quartiles':>14s} {'folded':>7s}"
        "  equivalent"
    )
    for row in rows:
        low, high = row["speedup_iqr"]
        print(
            f"{row['workload']:10s} {row['reps']:4d} {row['data_points']:8d} "
            f"{row['off_us']:9.1f} {row['on_us']:9.1f} "
            f"{row['speedup']:7.2f}x [{low:5.2f}, {high:5.2f}] "
            f"{row['folded_ops']:7d}  {row['equivalent']}"
        )
    headline = _headline_speedup(rows)
    print(
        f"{HEADLINE} speedup at largest data size: {headline:.2f}x "
        f"(floor {HEADLINE_FLOOR:.1f}x)"
    )


def _headline_speedup(rows: list) -> float:
    ladder = [r for r in rows if r["workload"] == HEADLINE]
    return max(ladder, key=lambda r: r["reps"])["speedup"] if ladder else 0.0


def _growth_failures(rows: list) -> list:
    """Ladders whose speedup stops growing with data size."""
    failures = []
    for name in REPS:
        ladder = sorted(
            (r for r in rows if r["workload"] == name),
            key=lambda r: r["reps"],
        )
        if len(ladder) < 2:
            continue
        speedups = [r["speedup"] for r in ladder]
        for prev, cur in zip(speedups, speedups[1:]):
            if cur < prev * MONOTONE_TOL:
                failures.append(f"{name}: dip {prev:.2f}x -> {cur:.2f}x")
        if speedups[-1] < 0.9 * speedups[0]:
            failures.append(
                f"{name}: no growth ({speedups[0]:.2f}x -> "
                f"{speedups[-1]:.2f}x)"
            )
    return failures


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "calls": CALLS,
        "workloads": {
            f"{row['workload']}@{row['reps']}": {
                "speedup": round(row["speedup"], 3),
                "off_us": round(row["off_us"], 1),
                "on_us": round(row["on_us"], 1),
                "data_points": row["data_points"],
                "folded_ops": row["folded_ops"],
            }
            for row in rows
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _floor(base):
    # Multiplicative floor, with an absolute allowance of 0.25x that only
    # matters near 1x — there the run-to-run noise is a larger fraction of
    # the (small) speedup than REGRESSION_FLOOR admits.
    return None if base is None else min(REGRESSION_FLOOR * base, base - 0.25)


def _headline_gate(rows: list):
    headline = _headline_speedup(rows)
    if headline < HEADLINE_FLOOR:
        yield "headline_floor", (
            f"{HEADLINE} headline {headline:.2f}x below "
            f"{HEADLINE_FLOOR:.1f}x floor"
        )


def _growth_gate(rows: list):
    for failure in _growth_failures(rows):
        yield failure, f"growth: {failure}"


#: ``--check``: every ladder point holds its floor, equivalent and
#: undemoted; the headline holds 2x; speedup grows with data.
CHECK = BaselineCheck(
    BASELINE_PATH, "suffstats speedups",
    floor=_floor,
    key=lambda row: f"{row['workload']}@{row['reps']}",
    require=[("equivalent", "NOT EQUIVALENT")],
    forbid=[("demotions", "DEMOTED")],
    gates=[_headline_gate, _growth_gate],
)


def test_suffstats_speedup():
    """Pytest entry: reduced ladder, equivalence plus >=2x at 4x data."""
    rows = [
        measure_point("survival", reps, calls=20, repeats=2)
        for reps in (1, 4)
    ]
    report(rows)
    assert all(row["equivalent"] for row in rows), rows
    assert all(row["active"] == 1 for row in rows), rows
    assert all(row["demotions"] == 0 for row in rows), rows
    small, large = rows
    assert large["speedup"] >= 2.0, (
        f"survival at 4x data only reached {large['speedup']:.2f}x"
    )
    assert large["speedup"] > small["speedup"] * MONOTONE_TOL, rows


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(
            row["equivalent"] and not row["demotions"] for row in rows
        ) and _headline_speedup(rows) >= HEADLINE_FLOOR,
    )
