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

Four more rows, whatever the knobs say: :data:`SERVED`, the shapes the
ledger's ``small-exact``, ``data-exact`` and ``pool-mh`` workloads serve
(12cities at scale 0.5 and tickets at scale 1.0 under NUTS, votes at scale
0.5 under MH, four chains each, so four lanes), and survival at scale 0.5,
the other shape the sufficient-statistics rewrite folds — ``round_us`` is
one batched evaluation, its ``speedup`` is ``4 x solo / round``,
``fold_off_us`` is the same round over the tape recorded under
``suffstats.override(False)`` (timed in the same interleaved repeats), and
``lane_ops`` names the instructions the round still runs lane by lane. The
``(value)`` row is a gradient-free engine's round: the tape's value
program over the lanes against four solo ``CompiledTape.value`` calls.

The ``12cities@0.5x4`` row also splits a round, :data:`SPLIT`: the
``small-exact`` job's chain group (four depth-6 NUTS chains, 200
iterations, one seed of the ledger's pool) is run once through
:class:`repro.batch.BatchedChainDriver` with every round's answers
recorded, then driven again from the recording alone, so the samplers and
the round loop run and no model does. ``sampler_us`` is that replay per
round (the fastest of the repeats), the Python a round pays beside
``round_us``'s evaluation; ``split_rounds`` is the group's round count, and
the replayed draws must equal the recorded ones.

The ``tickets@1.0x4`` row also splits its round, :data:`MIXTURE`: the
``data-exact`` round's two-way mixture, its one ``logsumexp`` over the
lanes, is timed alone on the settled round's buffers, forward
(``logsumexp_fwd_us``) and backward (``logsumexp_bwd_us``, under the
adjoint ``sum`` gives it), the share of ``round_us`` no fold can take.

One more, :data:`WIDENED`: the ``pool-mh`` shape again, its four MH chains
given ``K`` lanes each for reject-path prefetch
(:func:`repro.batch.driver.prefetch_depth`). Its value round is timed, in
the same interleaved repeats, at every width of the committed round-cost
curve (``repro.batch.driver.ROUND_COST_US``), lanes checked bit for bit
against solo value calls; ``round_us_by_width`` is that curve measured
afresh (median rounds), ``depth`` the ``K`` the committed curve picks and
``fresh_depth`` the one the fresh curve would, and ``speedup`` is the
evaluation throughput ``K`` buys: ``(1 - r^K) / (1 - r)`` iterations per
``4K``-lane round against one per 4-lane round, ``r`` MH's reject rate.

Three entry points:

* standalone — ``python benchmarks/bench_batch_replay.py`` prints a table
  and writes ``BENCH_batch_replay.json`` next to this file;
* ``--check`` — compares fresh measurements against the committed baseline
  JSON and exits non-zero if any workload's speedup (its upper quartile)
  fell below :data:`REGRESSION_FLOOR` (0.9) of its baseline (the
  lower quartile committed there), or if fewer than two gradient-bound
  workloads hold >=2x — the nightly CI gate;
* pytest — a smoke test asserting bit-identity everywhere and >=2x on at
  least two gradient-bound workloads.

Knobs: ``REPRO_BENCH_SCALE`` (workload scale, default 0.5),
``REPRO_BENCH_CALLS`` (rounds per timing, default 100),
``REPRO_BENCH_REPEATS`` (interleaved repeats, default 5).
"""

import json
import os
from pathlib import Path

import numpy as np
from _harness import BaselineCheck, interleaved, main

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats, verify
from repro.batch.driver import ROUND_COST_US, BatchedChainDriver, prefetch_depth
from repro.batch.engine import BatchedEvaluator
from repro.inference.chain import chain_start
from repro.inference.engines import build_engine
from repro.inference.metropolis import MetropolisHastings
from repro.suite import load_workload
from repro.suite.registry import workload_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CALLS = int(os.environ.get("REPRO_BENCH_CALLS", "100"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
#: Chains per batch.
WIDTH = 8
#: ``--check`` fails below this fraction of the committed speedup.
REGRESSION_FLOOR = 0.9

BASELINE_PATH = Path(__file__).parent / "BENCH_batch_replay.json"

#: (row name, workload, scale, width, gradient) of the shapes the ledger
#: serves, and survival's folded one.
SERVED = (
    ("12cities@0.5x4", "12cities", 0.5, 4, True),
    ("tickets@1.0x4", "tickets", 1.0, 4, True),
    ("votes@0.5x4 (value)", "votes", 0.5, 4, False),
    ("survival@0.5x4", "survival", 0.5, 4, True),
)

#: (row name, workload, scale, chains, iterations, seed) of the sampler
#: split: the ``small-exact`` job's chain group under the served NUTS.
SPLIT = ("12cities@0.5x4", "12cities", 0.5, 4, 200, 1001)

#: The served row whose round's ``logsumexp`` is timed on its own.
MIXTURE = "tickets@1.0x4"

#: (row name, workload, scale, chains) of the widened value row.
WIDENED = ("votes@0.5x4xK (value)", "votes", 0.5, 4)

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


def _settle(model, xs: list, gradient: bool):
    """Record ``model``'s tape, then drive a batched evaluator over ``xs``
    to its stable program: ``(solo call, evaluator, last results)``."""
    solo = model.compiled_logp_and_grad
    solo(xs[0])  # record
    for x in xs:
        solo(x)  # drain pending validation replays
    if not gradient:
        solo = model.proven_tape().value
    evaluator = BatchedEvaluator(model, len(xs), gradient)
    batch_xs = dict(enumerate(xs))
    # Drive acquisition + calibration + validation to the stable state.
    for _ in range(8):
        results = evaluator.evaluate(batch_xs)
        if evaluator.stable:
            break
    return solo, evaluator, results


def measure_workload(
    name: str, scale: float = SCALE, width: int = WIDTH, row: str = "",
    gradient: bool = True, fold_off: bool = False, mixture: bool = False,
) -> dict:
    model = load_workload(name, scale=scale)
    xs = _positions(model, width)

    with tape_compile.override(True):
        solo, evaluator, results = _settle(model, xs, gradient)
        engine = evaluator.engine
        batch_xs = dict(enumerate(xs))

        solo_results = [solo(x) for x in xs]
        identical = engine is not None and all(
            verify.agreement(results[i], solo_results[i]) == verify.EXACT
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

        blocks = [solo_block, batched_block]
        if fold_off:
            # The same round over the tape recorded with the rewrite off.
            with suffstats.override(False):
                _, unfolded, _ = _settle(
                    load_workload(name, scale=scale), xs, gradient
                )

            def fold_off_block():
                for _ in range(CALLS):
                    unfolded.evaluate(batch_xs)

            blocks.append(fold_off_block)

        solo_s, batched_s, *fold_off_s = interleaved(blocks, REPEATS)

    low, speedup, high = np.percentile(
        [a / b for a, b in zip(solo_s, batched_s)], [25, 50, 75]
    ).tolist()
    batched_us = 1e6 * min(batched_s) / (CALLS * width)
    measured = {
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
    if fold_off:
        measured["fold_off_us"] = 1e6 * min(fold_off_s[0]) / CALLS
    if mixture:
        measured.update(measure_mixture(engine))
    return measured


def measure_mixture(engine) -> dict:
    """The settled round's ``logsumexp`` forward and backward, µs each, on
    the operand, value and adjoint buffers the round itself uses."""
    ins, = [ins for ins in engine._instr if ins.name == "logsumexp"]
    value, aux = ins.fwd(ins.vop, ins.vstatic)
    g = np.ones_like(value)  # the adjoint of the 'sum' over the mixture

    def forward():
        for _ in range(CALLS):
            ins.fwd(ins.vop, ins.vstatic)

    def backward():
        for _ in range(CALLS):
            ins.bwd(g, ins.vop, value, aux, ins.vstatic)

    forward_s, backward_s = interleaved([forward, backward], REPEATS)
    return {
        "logsumexp_fwd_us": 1e6 * min(forward_s) / CALLS,
        "logsumexp_bwd_us": 1e6 * min(backward_s) / CALLS,
    }


class _Recorded:
    """An evaluator that keeps every round's answers."""

    def __init__(self, evaluator) -> None:
        self.evaluator, self.width, self.rounds = evaluator, evaluator.width, []

    def evaluate(self, xs):
        answers = self.evaluator.evaluate(xs)
        self.rounds.append(answers)
        return answers


class _Replayed:
    """An evaluator answering each round with the next recorded one."""

    def __init__(self, rounds: list, width: int) -> None:
        self.width, self._rounds = width, iter(rounds)

    def evaluate(self, xs):
        return next(self._rounds)


def measure_sampler(
    name: str, scale: float, n_chains: int, n_iterations: int, seed: int
) -> dict:
    """The split's numbers: sampler and round-loop µs per round of one
    NUTS chain group, replayed from its recorded answers."""
    model = load_workload(name, scale=scale)
    sampler = build_engine("nuts")

    def group(evaluator):
        driver = BatchedChainDriver(evaluator)
        for chain in range(n_chains):
            rng, x0 = chain_start(model, seed, chain)
            driver.submit(chain, sampler.sample_steps(x0, n_iterations, rng))
        return driver.run()

    with tape_compile.override(True):
        recorded = _Recorded(BatchedEvaluator(model, n_chains))
        draws = group(recorded)
    rounds = recorded.rounds
    replayed = group(_Replayed(rounds, n_chains))
    identical = all(
        replayed[c].samples.tobytes() == draws[c].samples.tobytes()
        for c in range(n_chains)
    )
    seconds, = interleaved(
        [lambda: group(_Replayed(rounds, n_chains))], REPEATS
    )
    return {
        "sampler_us": 1e6 * min(seconds) / len(rounds),
        "split_rounds": len(rounds),
        "split_identical": identical,
    }


def measure_widened(row: str, name: str, scale: float, n_chains: int) -> dict:
    """The value round of ``n_chains`` chains at every width of the
    committed round-cost curve, and the prefetch depth it prices."""
    model = load_workload(name, scale=scale)
    widths = [width for width, _ in ROUND_COST_US]
    xs = _positions(model, max(widths))
    with tape_compile.override(True):
        settled = {
            width: _settle(model, xs[:width], gradient=False)
            for width in widths
        }
        identical = all(
            evaluator.engine is not None and all(
                verify.agreement(results[i], solo(xs[i])) == verify.EXACT
                for i in range(width)
            )
            for width, (solo, evaluator, results) in settled.items()
        )

        def rounds(evaluator, batch_xs):
            def block():
                for _ in range(CALLS):
                    evaluator.evaluate(batch_xs)
            return block

        timings = interleaved([
            rounds(evaluator, dict(enumerate(xs[:width])))
            for width, (_, evaluator, _) in settled.items()
        ], REPEATS)

    round_us = {
        width: 1e6 * float(np.median(seconds)) / CALLS
        for width, seconds in zip(widths, timings)
    }
    reject = MetropolisHastings().reject_rate
    depth = prefetch_depth(reject, n_chains)
    advance = sum(reject ** j for j in range(depth))
    narrow = timings[widths.index(n_chains)]
    wide = timings[widths.index(n_chains * depth)]
    low, speedup, high = np.percentile(
        [advance * a / b for a, b in zip(narrow, wide)], [25, 50, 75]
    ).tolist()
    return {
        "workload": row,
        "width": n_chains * depth,
        "round_us": round_us[n_chains * depth],
        "round_us_by_width": round_us,
        "depth": depth,
        "fresh_depth": prefetch_depth(
            reject, n_chains, tuple(round_us.items())
        ),
        "speedup": speedup,
        "speedup_iqr": (low, high),
        "identical": bool(identical),
        "demotions": sum(
            evaluator.engine.demotions for _, evaluator, _ in settled.values()
        ),
    }


def measure_all() -> list:
    served = [
        measure_workload(name, scale=scale, width=width, row=row,
                         gradient=gradient, fold_off=True,
                         mixture=row == MIXTURE)
        for row, name, scale, width, gradient in SERVED
    ]
    split_row, *split = SPLIT
    for row in served:
        if row["workload"] == split_row:
            row.update(measure_sampler(*split))
            row["identical"] = row["identical"] and row["split_identical"]
    return [measure_workload(name) for name in workload_names()] + served + [
        measure_widened(*WIDENED)
    ]


def report(rows: list) -> None:
    print(f"{'workload':20s} {'dim':>5s} {'B':>2s} {'solo us':>9s} "
          f"{'batch us':>9s} {'round us':>9s} {'speedup':>8s} "
          f"{'quartiles':>14s} {'vec/lane':>9s}  identical")
    for row in rows[:-1]:
        mix = f"{row['vector_instructions']}/{row['lane_instructions']}"
        low, high = row["speedup_iqr"]
        print(
            f"{row['workload']:20s} {row['dim']:5d} {row['width']:2d} "
            f"{row['solo_us']:9.1f} {row['batched_us']:9.1f} "
            f"{row['round_us']:9.1f} {row['speedup']:7.2f}x "
            f"[{low:5.2f}, {high:5.2f}] {mix:>9s}  {row['identical']}"
        )
    bound = [r for r in rows if r["workload"] in GRADIENT_BOUND]
    at_2x = sum(r["speedup"] >= 2.0 for r in bound)
    print(f"gradient-bound workloads at >=2x: {at_2x}/{len(bound)}")
    for row in rows[-len(SERVED) - 1:-1]:
        print(f"{row['workload']} round {row['round_us']:.1f} us, fold off "
              f"{row['fold_off_us']:.1f} us; lane-mode ops: "
              f"{' '.join(row['lane_ops']) or 'none'}")
        if "logsumexp_fwd_us" in row:
            print(f"{row['workload']} mixture logsumexp: forward "
                  f"{row['logsumexp_fwd_us']:.1f} us, backward "
                  f"{row['logsumexp_bwd_us']:.1f} us of the round")
        if "sampler_us" in row:
            print(f"{row['workload']} NUTS group: sampler and round loop "
                  f"{row['sampler_us']:.1f} us per round over "
                  f"{row['split_rounds']} replayed rounds")
    widened = rows[-1]
    curve = " ".join(
        f"{width}:{us:.0f}" for width, us in widened["round_us_by_width"].items()
    )
    print(f"{widened['workload']} round us by width {curve}; K = "
          f"{widened['depth']} (fresh curve: {widened['fresh_depth']}), "
          f"{widened['speedup']:.2f}x iterations per evaluation second; "
          f"identical: {widened['identical']}")


def _entry(row: dict) -> dict:
    """A measured row as its baseline entry."""
    entry = {
        "speedup": round(row["speedup"], 3),
        "speedup_iqr": [round(q, 3) for q in row["speedup_iqr"]],
        "round_us": round(row["round_us"], 1),
    }
    if "depth" in row:
        entry["round_us_by_width"] = {
            str(width): round(us, 1)
            for width, us in row["round_us_by_width"].items()
        }
        entry["depth"] = row["depth"]
        entry["fresh_depth"] = row["fresh_depth"]
        return entry
    entry["solo_us"] = round(row["solo_us"], 1)
    entry["batched_us"] = round(row["batched_us"], 1)
    entry["lane_ops"] = row["lane_ops"]
    if "fold_off_us" in row:
        entry["fold_off_us"] = round(row["fold_off_us"], 1)
    if "logsumexp_fwd_us" in row:
        entry["logsumexp_fwd_us"] = round(row["logsumexp_fwd_us"], 1)
        entry["logsumexp_bwd_us"] = round(row["logsumexp_bwd_us"], 1)
    if "sampler_us" in row:
        entry["sampler_us"] = round(row["sampler_us"], 1)
        entry["split_rounds"] = row["split_rounds"]
    return entry


def write_baseline(rows: list, path: Path = BASELINE_PATH) -> None:
    payload = {
        "scale": SCALE,
        "calls": CALLS,
        "repeats": REPEATS,
        "width": WIDTH,
        "workloads": {row["workload"]: _entry(row) for row in rows},
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
    small, data, value, survival = served = rows[-len(SERVED) - 1:-1]
    assert [row["workload"] for row in served] == [row for row, *_ in SERVED]
    assert all(row["width"] == 4 and row["fold_off_us"] > 0 for row in served)
    # No lane-mode instruction: parameter unpacking is vector, and so is
    # the one gather ('take', cities into city-years).
    assert small["lane_instructions"] == 0 and small["demotions"] == 0
    assert small["speedup"] >= 2.0, small
    # The split replayed the group's draws bit for bit, and its sampler
    # Python is a share of a round, not the whole of it.
    assert small["split_identical"] and small["split_rounds"] > 0, small
    assert 0 < small["sampler_us"], small
    # tickets' mixture ('logsumexp' over a 'stack') and its one gather,
    # quota months into officers, are vector too: nothing loops over lanes.
    assert data["lane_ops"] == [] and data["demotions"] == 0
    # The mixture's own split is a part of its round.
    mixture = data["logsumexp_fwd_us"] + data["logsumexp_bwd_us"]
    assert 0 < mixture < data["round_us"], data
    # survival's folded tape has no lane-mode instruction at all.
    assert survival["lane_ops"] == [] and survival["demotions"] == 0
    # votes' value round: its 'dot's are stacked matmuls, and only its SPD
    # group's members (one stacked factor) are lane-mode instructions.
    assert set(value["lane_ops"]) == {"logdet_spd", "solve_spd"}
    assert value["demotions"] == 0 and value["speedup"] > 1.0, value
    # The widened row: the committed curve prefetches, and what it buys
    # shows in a fresh round at its width.
    widened = rows[-1]
    assert widened["depth"] > 1 and widened["demotions"] == 0, widened
    assert widened["speedup"] > 1.0, widened


if __name__ == "__main__":
    main(
        measure_all, report, CHECK, write_baseline,
        healthy=lambda rows: all(row["identical"] for row in rows),
    )
