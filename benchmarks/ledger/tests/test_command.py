"""The whole command, small: every workload boots, answers and checks out."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics

LEDGER_DIR = Path(__file__).resolve().parents[1]
RUN = str(LEDGER_DIR / "run.py")


def test_smoke_runs_every_workload_and_checks_outputs():
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "5"],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    results = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    contract = metrics.contract()
    assert len(results) == len(contract["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] in (2, 40)
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in contract["end_to_end"]
        )
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts():
    def run(trace):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", "small-exact", "--seed", "5",
             "--jobs", "2", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-3000:]
        report = LEDGER_DIR / "out" / f"small-exact-seed5-trace{trace}.json"
        return json.loads(done.stdout.splitlines()[-1]), json.loads(report.read_text())

    last, traced = run(1)
    _, untraced = run(0)
    contract = metrics.contract()
    assert sorted(last["metrics"]) == sorted(m["name"] for m in contract["per_layer"])
    assert traced["grad_evals"] == untraced["grad_evals"] > 0
    assert traced["per_layer"]["inference.grad_evals"] == traced["grad_evals"]
    assert traced["per_layer"]["trace.residual_ratio"] <= 0.05
    assert traced["per_layer"]["autodiff.fallbacks"] == 0
    assert abs(sum(traced["layer_shares"].values()) - 1.0) < 1e-6


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(metrics.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "small-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
