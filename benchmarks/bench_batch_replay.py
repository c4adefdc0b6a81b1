"""Batched replay speedup — solo tape replays vs one cross-chain batch.

For every BayesSuite workload this measures per-iteration gradient
throughput two ways at the same ``B`` chain positions:

* **solo** — ``B`` sequential ``CompiledTape`` replays per round, the
  per-chain execution a worker performs without ``repro.batch``;
* **batched** — one :class:`repro.batch.engine.BatchedTape` evaluation per
  round, replaying all ``B`` lanes through vectorized instructions.

Results are asserted bit-identical lane by lane before any timing, so the
speedup column never trades correctness for throughput. The headline
number backs the PR's claim: **>=2x per-iteration throughput over the solo
compiled-tape path on gradient-bound workloads**.

The two sides are timed in adjacent blocks, order alternating
(``_harness.interleaved``): every repeat yields one ``solo / batched``
ratio taken in one machine state, ``speedup`` is their median and
``speedup_iqr`` their quartiles, which is what ``--check`` gates on.

Two more rows, whatever the knobs say: :data:`SERVED`, the shapes the
ledger's ``small-exact`` and ``data-exact`` workloads serve (12cities at
scale 0.5 and tickets at scale 1.0, four chains each, so four lanes) —
``round_us`` is one batched evaluation, its ``speedup`` is
``4 x solo / round``, and ``lane_ops`` names the instructions the round
still runs lane by lane.

Three entry points:

* standalone — ``python benchmarks/bench_batch_replay.py`` prints a table
  and writes ``BENCH_batch_replay.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed baseline
  JSON and exits non-zero if any workload's speedup (its upper quartile)
  fell below ``REPRO_BATCH_REGRESSION`` (default 0.9) of its baseline (the
  lower quartile committed there), or if fewer than two gradient-bound
  workloads hold >=2x — the nightly CI gate;
* pytest — a smoke test asserting bit-identity everywhere and >=2x on at
  least two gradient-bound workloads.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_CALLS`` (rounds per timing, default 100),
``REPRO_BENCH_REPEATS`` (interleaved repeats, default 5),
``REPRO_BENCH_WIDTH`` (chains per batch, default 8).
"""

import json
import os
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, interleaved, main

from repro.autodiff import compile as tape_compile
from repro.batch.engine import BatchedEvaluator
from repro.suite import load_workload
from repro.suite.registry import workload_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "100"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
WIDTH = int(os.environ.get("REPRO_BENCH_WIDTH", "8"))
REGRESSION_FLOOR = float(os.environ.get("REPRO_BATCH_REGRESSION", "0.9"))

BASELINE_PATH = Path(__file__).parent / "BENCH_batch_replay.json"

#: (row name, workload, scale, width) of the shapes the ledger serves.
SERVED = (
    ("12cities@0.5x4", "12cities", 0.5, 4),
    ("tickets@1.0x4", "tickets", 1.0, 4),
)

#: Same set as bench_compiled_tape.py: workloads whose evaluation cost is
#: dominated by many small kernels (per-instruction dispatch overhead)
#: rather than one heavyweight kernel. Batching amortizes the dispatch
#: across lanes, so these carry the >=2x acceptance bar; a workload built
#: around a big BLAS or solver call (``ode``, large-design regressions)
#: honestly shows less, because numpy already saturates on a single lane.
GRADIENT_BOUND = [
    "12cities", "ad", "memory", "votes", "tickets",
    "disease", "racial", "butterfly", "survival",
]


def _positions(model, width: int) -> list:
    rng = np.random.default_rng(0)
    return [
        model.initial_position(rng) + 0.1 * rng.standard_normal(model.dim)
        for _ in range(width)
    ]


def measure_workload(
    name: str, scale: float = SCALE, width: int = WIDTH, row: str = ""
) -> dict:
    model = load_workload(name, scale=scale)
    xs = _positions(model, width)

    with tape_compile.override(True):
        solo = model.compiled_logp_and_grad
        solo(xs[0])  # record
        for x in xs:
            solo(x)  # drain pending validation replays

        evaluator = BatchedEvaluator(model, width)
        batch_xs = {i: x for i, x in enumerate(xs)}
        # Drive acquisition + calibration + validation to the stable state.
        for _ in range(8):
            results = evaluator.evaluate(batch_xs)
            if evaluator.stable:
                break
        engine = evaluator.engine

        solo_results = [solo(x) for x in xs]
        identical = engine is not None and all(
            results[i][0] == solo_results[i][0]
            and np.array_equal(results[i][1], solo_results[i][1])
            for i in range(width)
        )

        # Per-round timings at matched positions: B solo replays vs one
        # batched evaluation.
        def solo_block():
            for _ in range(CALLS):
                for x in xs:
                    solo(x)

        def batched_block():
            for _ in range(CALLS):
                evaluator.evaluate(batch_xs)

        solo_s, batched_s = interleaved([solo_block, batched_block], REPEATS)

    low, speedup, high = np.percentile(
        [a / b for a, b in zip(solo_s, batched_s)], [25, 50, 75]
    ).tolist()
    batched_us = 1e6 * min(batched_s) / (CALLS * width)
    return {
        "workload": row or name,
        "dim": int(model.dim),
        "width": width,
        "solo_us": 1e6 * min(solo_s) / (CALLS * width),
        "batched_us": batched_us,
        "round_us": batched_us * width,
        "speedup": speedup,
        "speedup_iqr": (low, high),
        "identical": bool(identical),
        "vector_instructions": engine.n_vector if engine else 0,
        "lane_instructions": engine.n_lane if engine else 0,
        "lane_ops": sorted(
            ins.name for ins in engine._instr if not ins.vector
        ) if engine else [],
        "demotions": engine.demotions if engine else 0,
    }


def measure_all() -> list:
    return [measure_workload(name) for name in workload_names()] + [
        measure_workload(name, scale=scale, width=width, row=row)
        for row, name, scale, width in SERVED
    ]


def report(rows: list) -> None:
    print(f"{'workload':14s} {'dim':>5s} {'B':>2s} {'solo us':>9s} "
          f"{'batch us':>9s} {'round us':>9s} {'speedup':>8s} "
          f"{'quartiles':>14s} {'vec/lane':>9s}  identical")
    for row in rows:
        mix = f"{row['vector_instructions']}/{row['lane_instructions']}"
        low, high = row["speedup_iqr"]
        print(
            f"{row['workload']:14s} {row['dim']:5d} {row['width']:2d} "
            f"{row['solo_us']:9.1f} {row['batched_us']:9.1f} "
            f"{row['round_us']:9.1f} {row['speedup']:7.2f}x "
            f"[{low:5.2f}, {high:5.2f}] {mix:>9s}  {row['identical']}"
        )
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    print(f"gradient-bound workloads at >=2x: {at_2x}/{len(bound)}")
    for row in rows[-len(SERVED):]:
        print(f"{row['workload']} lane-mode ops: {' '.join(row['lane_ops'])}")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "calls": CALLS,
        "repeats": REPEATS,
        "width": WIDTH,
        "workloads": {
            row["workload"]: {
                "speedup": round(row["speedup"], 3),
                "speedup_iqr": [round(q, 3) for q in row["speedup_iqr"]],
                "solo_us": round(row["solo_us"], 1),
                "batched_us": round(row["batched_us"], 1),
                "round_us": round(row["round_us"], 1),
                "lane_ops": row["lane_ops"],
            }
            for row in rows
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _two_at_2x(rows: list):
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    if at_2x < 2:
        yield "at_2x_floor", (
            f"only {at_2x} gradient-bound workloads at >=2x (need 2)"
        )


#: ``--check``: every workload holds >= REGRESSION_FLOOR of its baseline —
#: the fresh upper quartile against the committed lower one, so the two
#: spreads must part before a row fails — bit-identically, and two
#: gradient-bound workloads stay at >=2x.
CHECK = BaselineCheck(
    BASELINE_PATH, "batched-replay speedups",
    values=lambda doc: {
        key: entry["speedup_iqr"][0]
        for key, entry in doc["workloads"].items()
    },
    floor=lambda base: None if base is None else REGRESSION_FLOOR * base,
    require=[("identical", "NOT BIT-IDENTICAL")],
    gates=[_two_at_2x],
)


def test_batch_replay_speedup():
    """Pytest entry: bit-identity everywhere, >=2x on two gradient-bound."""
    rows = measure_all()
    report(rows)
    assert all(row["identical"] for row in rows)
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    assert at_2x >= 2, (
        f"only {at_2x} gradient-bound workloads reached 2x batched speedup"
    )
    small, data = rows[-len(SERVED):]
    assert [small["workload"], data["workload"]] == [row for row, *_ in SERVED]
    assert small["width"] == data["width"] == 4
    # One lane-mode instruction ('take'): parameter unpacking is vector.
    assert small["lane_instructions"] == 1 and small["demotions"] == 0
    assert small["speedup"] >= 2.0, small
    # tickets' mixture ('logsumexp' over a 'stack') is vector too: only
    # its two gathers loop over lanes.
    assert set(data["lane_ops"]) == {"take"} and data["demotions"] == 0


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(row["identical"] for row in rows),
    )
