"""Amortized-serving speedup — surrogate tiers vs exact NUTS.

The amortization bet of ``repro.amortize``: pay one ADVI training run per
model family, then answer requests from the fitted guide in microseconds
instead of re-running MCMC in seconds. This bench quantifies the bet on a
few gradient-bound BayesSuite workloads, timing one *request* per tier:

* **exact** — ``run_chains`` with NUTS at the spec budget (what an
  ``exact``-mode job costs);
* **fast**  — ``surrogate_result`` from the trained guide (draws +
  packaging, the serve hot path);
* **checked** — fast plus the PSIS k-hat gate over the surrogate draws.

The headline claim (the PR's acceptance bar): **median fast-tier latency
is >=10x below exact** on at least three workloads. Training cost is
reported alongside its break-even point — how many requests amortize it.

Training itself is timed both ways, in adjacent blocks with alternating
order (``_harness.interleaved``): with the batch switch off (each Monte
Carlo draw of an ADVI step a solo replay, ``train_solo_s``) and on (a
step's draws one lane-batched round, ``train_s``); ``train_speedup`` is
the median of the per-repeat ratios. The first fit of each side, on a
freshly loaded model, must give the same guide bit for bit
(``guides_identical``).

Three entry points:

* standalone — ``python benchmarks/bench_amortized.py`` prints a table and
  writes ``BENCH_amortized.json`` next to this file;
* ``--check`` — re-measures and exits non-zero if any workload's fast-tier
  speedup fell below 10x or below ``REPRO_AMORTIZE_REGRESSION`` (default
  0.5) of the committed baseline, or its batched and solo guides differ —
  the nightly perf-regression gate;
* pytest — a smoke test asserting the >=10x-on->=3-workloads bar and
  bit-identical guides.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_ITERS`` (exact-path iterations, default 200),
``REPRO_BENCH_REPEATS`` (requests per tier and interleaved training
repeats, default 3),
``REPRO_BENCH_TRAIN_ITERS`` (guide training iterations, default 600).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, interleaved, main

from repro import batch
from repro.amortize import GuideStore, surrogate_log_ratios, surrogate_result
from repro.amortize.policy import surrogate_rng
from repro.amortize.psis import psis
from repro.inference import ADVI, NUTS, run_chains
from repro.suite import load_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "200"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
TRAIN_ITERS = int(os.environ.get("REPRO_BENCH_TRAIN_ITERS", "600"))
REGRESSION_FLOOR = float(os.environ.get("REPRO_AMORTIZE_REGRESSION", "0.5"))

#: The acceptance bar: fast-tier requests at least this much cheaper than
#: exact ones, on every benchmarked workload.
SPEEDUP_FLOOR = 10.0

BASELINE_PATH = Path(__file__).parent / "BENCH_amortized.json"

#: Cheap gradient-bound workloads where a request's exact cost is pure
#: sampling (no heavyweight solver), so the tier comparison is clean.
WORKLOADS = [
    w for w in os.environ.get(
        "REPRO_BENCH_WORKLOADS", "12cities,votes,ad"
    ).split(",") if w
]


def _median_latency(fn, n: int = REPEATS) -> float:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _train(model, batched: bool):
    with batch.override(batched):
        return GuideStore(advi=ADVI(n_iterations=TRAIN_ITERS)).train(model)


def _same_guide(a, b) -> bool:
    return (
        np.array_equal(a.advi.mu, b.advi.mu)
        and np.array_equal(a.advi.log_sigma, b.advi.log_sigma)
        and a.advi.elbo_trace == b.advi.elbo_trace
        and a.advi.n_gradient_evaluations == b.advi.n_gradient_evaluations
    )


def measure_workload(name: str) -> dict:
    model = load_workload(name, scale=SCALE)
    solo_model = load_workload(name, scale=SCALE)
    n_kept = ITERS // 2  # budget_kept at the default half-warmup split

    # First fits on fresh models record and prove the tape, as a served fit
    # does; the timed ones after them are the steady state of each side.
    solo = _train(solo_model, batched=False)
    record = _train(model, batched=True)
    solo_s, batched_s = interleaved(
        [lambda: _train(solo_model, False), lambda: _train(model, True)],
        REPEATS,
    )
    train_s = float(np.median(batched_s))

    seeds = iter(range(10_000))

    def fast_request():
        surrogate_result(model, record.advi, 2, n_kept,
                         surrogate_rng(next(seeds)))

    def checked_request():
        result = surrogate_result(model, record.advi, 2, n_kept,
                                  surrogate_rng(next(seeds)))
        draws = np.vstack([c.samples for c in result.chains])
        psis(surrogate_log_ratios(model, record.advi, draws, max_draws=512))

    def exact_request():
        run_chains(model, NUTS(), n_iterations=ITERS, n_chains=2,
                   seed=next(seeds))

    fast_s = _median_latency(fast_request)
    checked_s = _median_latency(checked_request)
    exact_s = _median_latency(exact_request)
    saved_per_request = exact_s - fast_s
    return {
        "workload": name,
        "dim": int(model.dim),
        "train_solo_s": float(np.median(solo_s)),
        "train_s": train_s,
        "train_speedup": float(np.median(
            [a / b for a, b in zip(solo_s, batched_s)]
        )),
        "guides_identical": _same_guide(solo, record),
        "fast_ms": 1e3 * fast_s,
        "checked_ms": 1e3 * checked_s,
        "exact_ms": 1e3 * exact_s,
        "fast_speedup": exact_s / fast_s,
        "checked_speedup": exact_s / checked_s,
        # Requests after which training has paid for itself.
        "break_even_requests": (
            train_s / saved_per_request if saved_per_request > 0
            else float("inf")
        ),
    }


def measure_all() -> list:
    return [measure_workload(name) for name in WORKLOADS]


def report(rows: list) -> None:
    print(f"{'workload':12s} {'dim':>5s} {'solo s':>7s} {'train s':>8s} "
          f"{'train x':>8s} {'fast ms':>9s} {'checked ms':>11s} "
          f"{'exact ms':>9s} {'fast x':>8s} {'checked x':>10s} "
          f"{'breakeven':>10s}  identical")
    for row in rows:
        print(
            f"{row['workload']:12s} {row['dim']:5d} "
            f"{row['train_solo_s']:7.2f} {row['train_s']:8.2f} "
            f"{row['train_speedup']:7.2f}x "
            f"{row['fast_ms']:9.2f} {row['checked_ms']:11.2f} "
            f"{row['exact_ms']:9.1f} {row['fast_speedup']:7.0f}x "
            f"{row['checked_speedup']:9.0f}x "
            f"{row['break_even_requests']:10.1f}  {row['guides_identical']}"
        )
    at_bar = sum(r["fast_speedup"] >= SPEEDUP_FLOOR for r in rows)
    print(f"workloads with fast tier >= {SPEEDUP_FLOOR:.0f}x: "
          f"{at_bar}/{len(rows)}")


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "n_iterations": ITERS,
        "workloads": {
            row["workload"]: {
                "fast_speedup": round(row["fast_speedup"], 1),
                "checked_speedup": round(row["checked_speedup"], 1),
                "fast_ms": round(row["fast_ms"], 3),
                "checked_ms": round(row["checked_ms"], 3),
                "exact_ms": round(row["exact_ms"], 1),
                "train_s": round(row["train_s"], 2),
                "train_solo_s": round(row["train_solo_s"], 2),
                "train_speedup": round(row["train_speedup"], 2),
            }
            for row in rows
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


#: ``--check``: every workload holds the 10x bar and its baseline floor,
#: and trains the same guide batched as solo.
CHECK = BaselineCheck(
    BASELINE_PATH, "amortized-serving speedups",
    metric="fast_speedup",
    floor=lambda base: max(
        SPEEDUP_FLOOR, REGRESSION_FLOOR * (base or 0.0)
    ),
    require=[("guides_identical", "GUIDES NOT BIT-IDENTICAL")],
)


def test_amortized_speedup():
    """Pytest entry: fast tier >=10x exact on >=3 workloads, and batched
    training gives the solo guide."""
    rows = measure_all()
    report(rows)
    assert all(r["guides_identical"] for r in rows)
    at_bar = [r["workload"] for r in rows
              if r["fast_speedup"] >= SPEEDUP_FLOOR]
    assert len(at_bar) >= 3, (
        f"only {at_bar} reached {SPEEDUP_FLOOR:.0f}x over exact"
    )
    # The checked tier adds the PSIS gate but must stay clearly amortized.
    assert all(r["checked_speedup"] >= 2.0 for r in rows)


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(r["guides_identical"] for r in rows),
    )
