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

Three entry points:

* standalone — ``python benchmarks/bench_batch_replay.py`` prints a table
  and writes ``BENCH_batch_replay.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed baseline
  JSON and exits non-zero if any workload's speedup fell below
  ``REPRO_BATCH_REGRESSION`` (default 0.9) of its baseline, or if fewer
  than two gradient-bound workloads hold >=2x — the nightly CI gate;
* pytest — a smoke test asserting bit-identity everywhere and >=2x on at
  least two gradient-bound workloads.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_CALLS`` (rounds per timing, default 100),
``REPRO_BENCH_REPEATS`` (best-of repeats, default 3),
``REPRO_BENCH_WIDTH`` (chains per batch, default 8).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, main

from repro.autodiff import compile as tape_compile
from repro.batch.engine import BatchedEvaluator
from repro.suite import load_workload
from repro.suite.registry import workload_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "100"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
WIDTH = int(os.environ.get("REPRO_BENCH_WIDTH", "8"))
REGRESSION_FLOOR = float(os.environ.get("REPRO_BATCH_REGRESSION", "0.9"))

BASELINE_PATH = Path(__file__).parent / "BENCH_batch_replay.json"

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


def measure_workload(name: str) -> dict:
    model = load_workload(name, scale=SCALE)
    xs = _positions(model, WIDTH)

    with tape_compile.override(True):
        solo = model.compiled_logp_and_grad
        solo(xs[0])  # record
        for x in xs:
            solo(x)  # drain pending validation replays

        evaluator = BatchedEvaluator(model, WIDTH)
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
            for i in range(WIDTH)
        )

        # Per-round timings at matched positions: B solo replays vs one
        # batched evaluation.
        best_solo = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(CALLS):
                for x in xs:
                    solo(x)
            best_solo = min(best_solo, time.perf_counter() - start)

        best_batch = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(CALLS):
                evaluator.evaluate(batch_xs)
            best_batch = min(best_batch, time.perf_counter() - start)

    return {
        "workload": name,
        "dim": int(model.dim),
        "width": WIDTH,
        "solo_us": 1e6 * best_solo / (CALLS * WIDTH),
        "batched_us": 1e6 * best_batch / (CALLS * WIDTH),
        "speedup": best_solo / best_batch,
        "identical": bool(identical),
        "vector_instructions": engine.n_vector if engine else 0,
        "lane_instructions": engine.n_lane if engine else 0,
        "demotions": engine.demotions if engine else 0,
    }


def measure_all() -> list:
    return [measure_workload(name) for name in workload_names()]


def report(rows: list) -> None:
    print(f"{'workload':12s} {'dim':>5s} {'solo us':>9s} {'batch us':>9s} "
          f"{'speedup':>8s} {'vec/lane':>9s}  identical")
    for row in rows:
        mix = f"{row['vector_instructions']}/{row['lane_instructions']}"
        print(
            f"{row['workload']:12s} {row['dim']:5d} "
            f"{row['solo_us']:9.1f} {row['batched_us']:9.1f} "
            f"{row['speedup']:7.2f}x {mix:>9s}  {row['identical']}"
        )
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    print(f"gradient-bound workloads at >=2x: {at_2x}/{len(bound)}")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "calls": CALLS,
        "width": WIDTH,
        "workloads": {
            row["workload"]: {
                "speedup": round(row["speedup"], 3),
                "solo_us": round(row["solo_us"], 1),
                "batched_us": round(row["batched_us"], 1),
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


#: ``--check``: every workload holds >= REGRESSION_FLOOR of its baseline,
#: bit-identically, and two gradient-bound workloads stay at >=2x.
CHECK = BaselineCheck(
    BASELINE_PATH, "batched-replay speedups",
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


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(row["identical"] for row in rows),
    )
