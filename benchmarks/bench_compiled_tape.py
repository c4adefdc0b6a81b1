"""Compiled-tape speedup — interpreted vs replayed gradient evaluation.

For every BayesSuite workload this measures ``logp_and_grad`` throughput on
the interpreted tape (graph rebuilt per call) and on the compiled tape
(recorded once, replayed as generated straight-line code over preallocated
buffers), asserting bit-identical results along the way. The headline
number reproduces the PR's claim: **>=2x on gradient-bound workloads with
identical draws** — the ODE workload is solver-bound, so its ratio is
honest rather than flattering. Beside the full replay it times the tape's
forward-only value program (``model.logp``, what the gradient-free engines
call): ``value_us`` and ``value_ratio`` = value / full replay.

Three entry points:

* standalone — ``python benchmarks/bench_compiled_tape.py`` prints a table
  and writes ``BENCH_compiled_tape.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed baseline
  JSON and exits non-zero if any workload's speedup fell below
  ``REPRO_TAPE_REGRESSION`` (default 0.9) of its baseline, or a
  gradient-bound workload's value replay costs more than
  :data:`VALUE_CEILING` of its full replay — the nightly CI
  perf-regression gate;
* pytest — a smoke test asserting the gradient-bound workloads stay >=2x.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_CALLS`` (evaluations per timing, default 150),
``REPRO_BENCH_REPEATS`` (best-of repeats, default 3).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, main

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats, verify
from repro.suite import load_workload
from repro.suite.registry import workload_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "150"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
REGRESSION_FLOOR = float(os.environ.get("REPRO_TAPE_REGRESSION", "0.9"))

BASELINE_PATH = Path(__file__).parent / "BENCH_compiled_tape.json"

#: Workloads whose per-evaluation cost is dominated by autodiff-graph
#: Python overhead rather than a heavyweight kernel; these carry the >=2x
#: acceptance bar. (``ode`` spends its time integrating a six-state
#: sensitivity system, so replay can only shave the graph overhead around
#: one big kernel.)
GRADIENT_BOUND = [
    "12cities", "ad", "memory", "votes", "tickets",
    "disease", "racial", "butterfly", "survival",
]

#: A value replay skips the backward sweep, so on the workloads above it
#: must cost at most this share of a full replay (measured 0.30-0.52;
#: ``ode``'s sensitivities are integrated by its forward kernel, 0.77).
VALUE_CEILING = 0.7

#: The pytest entry's bar: it runs on every PR at reduced size, so it is
#: looser, but it holds on every gradient-bound workload — a value program
#: that lost its saving on one of them reads ~1.0.
SMOKE_VALUE_CEILING = 0.85


def _best_of(x, *fns) -> list:
    """Best-of-REPEATS seconds per CALLS calls of each of ``fns``, their
    repeats interleaved so a noisy stretch of the box hits all of them and
    ratios between them stay meaningful."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(CALLS):
                fn(x)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def measure_workload(name: str) -> dict:
    model = load_workload(name, scale=SCALE)
    rng = np.random.default_rng(0)
    x = model.initial_position(rng)

    # Always the interpreted tape, whatever the switch says.
    interpreted = model.logp_and_grad
    value_i, grad_i = interpreted(x)

    # The plain tape is what this bench's baseline and bitwise bar are
    # about; the rewritten one reassociates sums and has its own bench
    # (bench_suffstats.py).
    with tape_compile.override(True), suffstats.override(False):
        compiled = model.compiled_logp_and_grad
        compiled(x)  # record; the next call is its probation
        value_c, grad_c = compiled(x)
        model.logp(x)  # the value program's probation
        value_v = model.logp(x)
        interpreted_s, compiled_s, value_s = _best_of(
            x, interpreted, compiled, model.logp
        )

    stats = model.tape_stats() or {}
    identical = (
        verify.agreement((value_c, grad_c), (value_i, grad_i)) == verify.EXACT
        and verify.agreement(value_v, value_i) == verify.EXACT
    )
    return {
        "workload": name,
        "dim": int(model.dim),
        "interpreted_us": 1e6 * interpreted_s / CALLS,
        "compiled_us": 1e6 * compiled_s / CALLS,
        "speedup": interpreted_s / compiled_s,
        "value_us": 1e6 * value_s / CALLS,
        "value_ratio": value_s / compiled_s,
        "identical": identical,
        "fallbacks": int(stats.get("fallbacks", 0)),
        "value_replays": int(stats.get("value_replays", 0)),
    }


def measure_all() -> list:
    return [measure_workload(name) for name in workload_names()]


def report(rows: list) -> None:
    print(f"{'workload':12s} {'dim':>5s} {'interp us':>10s} "
          f"{'compiled us':>12s} {'speedup':>8s} {'value us':>9s} "
          f"{'value/replay':>12s}  identical")
    for row in rows:
        print(
            f"{row['workload']:12s} {row['dim']:5d} "
            f"{row['interpreted_us']:10.1f} {row['compiled_us']:12.1f} "
            f"{row['speedup']:7.2f}x {row['value_us']:9.1f} "
            f"{row['value_ratio']:11.2f}x  {row['identical']}"
        )
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    print(f"gradient-bound workloads at >=2x: {at_2x}/{len(bound)}")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "calls": CALLS,
        "workloads": {
            row["workload"]: {
                "speedup": round(row["speedup"], 3),
                "interpreted_us": round(row["interpreted_us"], 1),
                "compiled_us": round(row["compiled_us"], 1),
                "value_us": round(row["value_us"], 1),
                "value_ratio": round(row["value_ratio"], 3),
            }
            for row in rows
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _value_ceiling(rows, ceiling=VALUE_CEILING):
    for row in rows:
        if row["workload"] in GRADIENT_BOUND and row["value_ratio"] > ceiling:
            yield f"{row['workload']}:value", (
                f"{row['workload']:14s} value replay is "
                f"{row['value_ratio']:.2f}x of the full replay "
                f"(ceiling {ceiling:.2f}x)"
            )


#: ``--check``: every workload holds >= REGRESSION_FLOOR of its baseline,
#: bit-identically, and the gradient-bound ones keep their value replay
#: under VALUE_CEILING of the full one.
CHECK = BaselineCheck(
    BASELINE_PATH, "compiled-tape speedups",
    floor=lambda base: None if base is None else REGRESSION_FLOOR * base,
    require=[("identical", "NOT BIT-IDENTICAL")],
    gates=[_value_ceiling],
)


def test_compiled_tape_speedup():
    """Pytest entry: bit-identity everywhere, >=2x on half the suite, every
    gradient-bound value replay under the per-PR ceiling."""
    rows = measure_all()
    report(rows)
    assert all(row["identical"] for row in rows)
    assert all(row["fallbacks"] == 0 for row in rows)
    assert all(row["value_replays"] > CALLS for row in rows)
    over_ceiling = [
        message for _, message in _value_ceiling(rows, SMOKE_VALUE_CEILING)
    ]
    assert not over_ceiling, over_ceiling
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    assert at_2x >= len(workload_names()) // 2, (
        f"only {at_2x} gradient-bound workloads reached 2x"
    )


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(row["identical"] for row in rows),
    )
