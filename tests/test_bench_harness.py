"""The shared bench ``--check`` (``benchmarks/_harness.py``) on real data.

Each bench that commits a ``BENCH_*.json`` is fed that baseline back as if
it were a fresh measurement — the gate must pass (exit 0) — and then a copy
with one row's headline number cut to 40 % — the gate must fail (exit 1). This
pins the floors, flags and extra gates of all five scripts without timing
anything.
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _workloads(doc, **flags):
    return [
        dict(entry, workload=key, **flags)
        for key, entry in doc["workloads"].items()
    ]


def _suffstats_rows(doc):
    rows = _workloads(doc, equivalent=True, demotions=0)
    for row in rows:
        row["workload"], reps = row["workload"].split("@")
        row["reps"] = int(reps)
    return rows


def _gateway_rows(doc):
    return [
        dict(entry, replicas=int(replicas))
        for replicas, entry in doc["configs"].items()
    ]


#: script -> (baseline document -> measured rows, field the gate reads)
BENCHES = {
    "bench_compiled_tape": (lambda d: _workloads(d, identical=True), "speedup"),
    "bench_batch_replay": (lambda d: _workloads(d, identical=True), "speedup"),
    "bench_suffstats": (_suffstats_rows, "speedup"),
    "bench_amortized": (
        lambda d: _workloads(d, guides_identical=True), "fast_speedup"
    ),
    "bench_gateway_load": (_gateway_rows, "throughput_jobs_per_s"),
}


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield {name: importlib.import_module(name) for name in BENCHES}
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_committed_baseline_passes_its_own_check(bench_modules, name, capsys):
    module = bench_modules[name]
    rows_of, _ = BENCHES[name]
    doc = json.loads(module.BASELINE_PATH.read_text())
    assert module.CHECK(rows_of(doc)) == 0
    assert "hold against the baseline" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_degraded_row_fails_the_check(bench_modules, name, capsys):
    module = bench_modules[name]
    rows_of, field = BENCHES[name]
    rows = rows_of(json.loads(module.BASELINE_PATH.read_text()))
    # The last row: the headline point of the suffstats ladder and the
    # 4-replica config of the load test. 0.4 is below every script's
    # regression floor (the loosest are 0.5).
    worst = copy.deepcopy(rows)
    worst[-1][field] *= 0.4
    if f"{field}_iqr" in worst[-1]:  # the whole spread fell, not the median
        worst[-1][f"{field}_iqr"] = [
            0.4 * quartile for quartile in worst[-1][f"{field}_iqr"]
        ]
    assert module.CHECK(worst) == 1
    assert "perf regression" in capsys.readouterr().out


def test_a_median_under_the_floor_with_the_quartile_over_it_is_unresolved(
    bench_modules, capsys
):
    """A row that measured its own spread is failed only when the spread
    resolves the regression (the near-1.0x cells flaked otherwise)."""
    module = bench_modules["bench_batch_replay"]
    rows = _workloads(
        json.loads(module.BASELINE_PATH.read_text()), identical=True
    )
    floor = module.REGRESSION_FLOOR * rows[0]["speedup_iqr"][0]
    rows[0]["speedup"] = 0.99 * floor
    rows[0]["speedup_iqr"] = [0.95 * floor, 1.01 * floor]
    assert module.CHECK(rows) == 0
    assert "unresolved" in capsys.readouterr().out
    rows[0]["speedup_iqr"] = [0.95 * floor, 0.995 * floor]
    assert module.CHECK(rows) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_interleaved_alternates_the_order_of_its_blocks(bench_modules):
    from _harness import interleaved

    calls = []
    samples = interleaved(
        [lambda: calls.append("a"), lambda: calls.append("b")], repeats=3
    )
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert [len(block) for block in samples] == [3, 3]


@pytest.mark.parametrize("name, flag", [
    ("bench_compiled_tape", {"identical": False}),
    ("bench_batch_replay", {"identical": False}),
    ("bench_suffstats", {"equivalent": False}),
    ("bench_suffstats", {"demotions": 1}),
    ("bench_compiled_tape", {"value_ratio": 0.9}),
    ("bench_amortized", {"guides_identical": False}),
])
def test_row_flags_fail_the_check(bench_modules, name, flag):
    module = bench_modules[name]
    rows = BENCHES[name][0](json.loads(module.BASELINE_PATH.read_text()))
    rows[0].update(flag)
    assert module.CHECK(rows) == 1


@pytest.fixture
def scorecard():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from _harness import Scorecard

        yield Scorecard()
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_a_holding_claim_renders_holds(scorecard):
    scorecard.claim("Fig. 7", "average saving", "70 %", 0.53, ">", 0.45,
                    fmt="{:.1%}")
    assert scorecard.render().splitlines()[-1] == (
        "| Fig. 7 | average saving | 70 % | 53.0% | > 45.0% | holds |  |"
    )


def test_a_failing_claim_raises_with_its_row_and_renders_fail(scorecard):
    with pytest.raises(AssertionError) as failure:
        scorecard.claim("Fig. 8", "average speedup", "5.8x", 2.4, ">", 2.5,
                        fmt="{:.2f}x", note="two never converge")
    row = "| Fig. 8 | average speedup | 5.8x | 2.40x | > 2.50x | FAIL | two never converge |"
    assert str(failure.value) == row
    assert scorecard.render().splitlines()[-1] == row


def test_the_claim_is_the_comparison_it_names(scorecard):
    """On the bound itself only the non-strict operators hold."""
    for op, holds in (("<", False), ("<=", True), (">", False), (">=", True),
                      ("==", True)):
        if holds:
            scorecard.claim("x", "y", "z", 7, op, 7)
        else:
            with pytest.raises(AssertionError):
                scorecard.claim("x", "y", "z", 7, op, 7)
    with pytest.raises(AssertionError):
        scorecard.claim("x", "y", "z", 1.4, "between", (1.05, 1.4))
    scorecard.claim("x", "y", "z", "Skylake  i7-6700K", "contains", "i7-6700K")
    assert [row[5] for row in scorecard.rows] == [
        "FAIL", "holds", "FAIL", "holds", "holds", "FAIL", "holds"]


def test_a_row_not_reproduced_renders_its_reason(scorecard):
    scorecard.claim("Fig. 8", "oracle speedup", "6.2x",
                    note="nothing computes it")
    assert scorecard.render().splitlines()[-1] == (
        "| Fig. 8 | oracle speedup | 6.2x | — | — | not reproduced "
        "| nothing computes it |"
    )
    with pytest.raises(ValueError):
        scorecard.claim("Fig. 8", "oracle speedup", "6.2x")


def test_rows_render_in_recording_order_with_their_bounds(scorecard):
    scorecard.claim("Table I", "workloads", "10", 10, "==", 10)
    scorecard.claim("Fig. 4", "scheduled speedup", "1.16x", 1.17, "between",
                    (1.05, 1.4), fmt="{:.2f}x")
    scorecard.claim("Fig. 3", "above the threshold", "ad, survival, tickets",
                    ("ad", "survival", "tickets"), "==",
                    ("ad", "survival", "tickets"))
    scorecard.claim("Sec. VI-A", "R-hat cost", "0.06 s", 0.00062, "<", 0.25,
                    fmt="{:.2g} s")
    assert scorecard.render().splitlines() == [
        "| where | claim | paper | measured | bound | verdict | note |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        "| Table I | workloads | 10 | 10 | == 10 | holds |  |",
        "| Fig. 4 | scheduled speedup | 1.16x | 1.17x | > 1.05x and < 1.40x "
        "| holds |  |",
        "| Fig. 3 | above the threshold | ad, survival, tickets "
        "| ad, survival, tickets | == ad, survival, tickets | holds |  |",
        "| Sec. VI-A | R-hat cost | 0.06 s | 0.00062 s | < 0.25 s | holds |  |",
    ]
