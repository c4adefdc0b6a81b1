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

The three are timed in adjacent blocks, order alternating
(``_harness.interleaved``): every repeat yields one ``interpreted /
compiled`` and one ``value / compiled`` ratio taken in one machine state,
``speedup`` and ``value_ratio`` are their medians and ``speedup_iqr`` the
speedups' quartiles, which is what ``--check`` gates on.

Three entry points:

* standalone — ``python benchmarks/bench_compiled_tape.py`` prints a table
  and writes ``BENCH_compiled_tape.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed baseline
  JSON and exits non-zero if any workload's speedup (its upper quartile)
  fell below ``REPRO_TAPE_REGRESSION`` (default 0.9) of its baseline (the
  lower quartile committed there), or a
  gradient-bound workload's value replay costs more than
  :data:`VALUE_CEILING` of its full replay — the nightly CI
  perf-regression gate;
* pytest — a smoke test asserting the gradient-bound workloads stay >=2x.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_CALLS`` (evaluations per timing, default 150),
``REPRO_BENCH_REPEATS`` (interleaved repeats, default 5).
"""

import json
import os
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, interleaved, main

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats, verify
from repro.suite import load_workload
from repro.suite.registry import workload_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "150"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
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


def _block(fn, x):
    """CALLS calls of ``fn`` at ``x``: one timed block."""
    def block():
        for _ in range(CALLS):
            fn(x)
    return block


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
        interpreted_s, compiled_s, value_s = interleaved(
            [_block(fn, x) for fn in (interpreted, compiled, model.logp)],
            REPEATS,
        )

    stats = model.tape_stats() or {}
    identical = (
        verify.agreement((value_c, grad_c), (value_i, grad_i)) == verify.EXACT
        and verify.agreement(value_v, value_i) == verify.EXACT
    )
    low, speedup, high = np.percentile(
        [a / b for a, b in zip(interpreted_s, compiled_s)], [25, 50, 75]
    ).tolist()
    return {
        "workload": name,
        "dim": int(model.dim),
        "interpreted_us": 1e6 * min(interpreted_s) / CALLS,
        "compiled_us": 1e6 * min(compiled_s) / CALLS,
        "speedup": speedup,
        "speedup_iqr": (low, high),
        "value_us": 1e6 * min(value_s) / CALLS,
        "value_ratio": float(np.median(
            [v / c for v, c in zip(value_s, compiled_s)]
        )),
        "identical": identical,
        "fallbacks": int(stats.get("fallbacks", 0)),
        "value_replays": int(stats.get("value_replays", 0)),
    }


def measure_all() -> list:
    return [measure_workload(name) for name in workload_names()]


def report(rows: list) -> None:
    print(f"{'workload':12s} {'dim':>5s} {'interp us':>10s} "
          f"{'compiled us':>12s} {'speedup':>8s} {'quartiles':>14s} "
          f"{'value us':>9s} {'value/replay':>12s}  identical")
    for row in rows:
        low, high = row["speedup_iqr"]
        print(
            f"{row['workload']:12s} {row['dim']:5d} "
            f"{row['interpreted_us']:10.1f} {row['compiled_us']:12.1f} "
            f"{row['speedup']:7.2f}x [{low:5.2f}, {high:5.2f}] "
            f"{row['value_us']:9.1f} "
            f"{row['value_ratio']:11.2f}x  {row['identical']}"
        )
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    print(f"gradient-bound workloads at >=2x: {at_2x}/{len(bound)}")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "calls": CALLS,
        "repeats": REPEATS,
        "workloads": {
            row["workload"]: {
                "speedup": round(row["speedup"], 3),
                "speedup_iqr": [round(q, 3) for q in row["speedup_iqr"]],
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


#: ``--check``: every workload holds >= REGRESSION_FLOOR of its baseline —
#: the fresh upper quartile against the committed lower one, so the two
#: spreads must part before a row fails — bit-identically, and the
#: gradient-bound ones keep their value replay under VALUE_CEILING of the
#: full one.
CHECK = BaselineCheck(
    BASELINE_PATH, "compiled-tape speedups",
    values=lambda doc: {
        key: entry["speedup_iqr"][0]
        for key, entry in doc["workloads"].items()
    },
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
