"""The tail rule, and the contract's names against what the code computes."""

import re
from pathlib import Path

import metrics
import trace as ledger_trace
from workloads import WORKLOADS

LEDGER_DIR = Path(__file__).resolve().parents[1]


def test_tail_is_max_below_200_samples():
    latencies = [float(i) for i in range(1, 200)]
    assert metrics.tail(latencies) == (199.0, "max")


def test_tail_is_p95_from_200_samples():
    latencies = [float(i) for i in range(1, 201)]
    value, rule = metrics.tail(latencies)
    assert rule == "p95"
    assert value == 190.0
    assert sum(x > value for x in latencies) == 10  # ten samples beyond it


def _outcomes(n):
    return [
        {"submitted_at": 10.0 + i, "latency_s": 1.0 + i, "ess_mean": 10.0,
         "ess_min": 5.0}
        for i in range(n)
    ]


def test_end_to_end_counts_failures_and_records_the_sample():
    outcomes = _outcomes(4)
    failed = {id(outcomes[3])}
    e2e = metrics.end_to_end(
        outcomes, failed, timed=(10.0, 18.0),
        setups=[(0.0, 2.0), (2.0, 7.0), (7.0, 10.0)], cpu=(7.0, 19.0, 12.0),
        n_answered_with_warmup=4, peak_rss_mb=100.0,
    )
    assert e2e["latency_n"] == 4 and e2e["latency_tail_rule"] == "max"
    assert e2e["latency_p50_s"] == 2.5 and e2e["latency_tail_s"] == 4.0
    assert e2e["jobs_per_s"] == 3 / 8.0  # the failed job is not an answer
    assert e2e["ess_per_s"] == 30.0 / 8.0
    assert e2e["failed_ratio"] == 0.25
    assert e2e["cpu_s_per_job"] == 3.0
    assert e2e["setup_s"] == 3.0  # the median of the three set-ups


def test_times_are_scaled_by_the_reference_over_their_own_interval():
    def scale(start, end):  # the machine ran at half speed from t = 12 on
        return 1.0 if end <= 12.0 else 0.5

    outcomes = _outcomes(4)  # job i runs [10 + i, 11 + 2i]
    e2e = metrics.end_to_end(
        outcomes, set(), timed=(10.0, 18.0), setups=[(0.0, 4.0)],
        cpu=(0.0, 19.0, 12.0), n_answered_with_warmup=4, peak_rss_mb=100.0,
        scale=scale,
    )
    assert e2e["latencies_s"] == [1.0, 1.0, 1.5, 2.0]
    assert e2e["raw"]["latencies_s"] == [1.0, 2.0, 3.0, 4.0]
    assert e2e["jobs_per_s"] == 4 / 4.0 and e2e["raw"]["jobs_per_s"] == 4 / 8.0
    assert e2e["setup_s"] == 4.0 and e2e["cpu_s_per_job"] == 1.5
    assert e2e["peak_rss_mb"] == 100.0  # not a time


def test_per_layer_times_and_rates_go_to_reference_time_counts_do_not():
    values = {m["name"]: 2.0 for m in metrics.contract()["per_layer"]}
    scaled = metrics.in_reference_time(values, 0.5)
    assert scaled["client.submit_ms"] == 1.0 and scaled["autodiff.replay_us"] == 1.0
    assert scaled["ablation.all"] == 4.0
    assert scaled["inference.grad_evals"] == 2.0
    assert scaled["trace.residual_ratio"] == 2.0


def test_a_job_that_never_joined_a_tree_is_all_residual():
    outcomes = [{"job_id": "lost", "latency_s": 2.0, "error": None}]
    assert metrics.layer_shares({}, outcomes)["(residual)"] == 1.0


def test_contract_names_are_exactly_what_is_computed():
    contract = metrics.contract()
    computed = metrics.per_layer(ledger_trace.Recorder(), [], {}, {})
    assert sorted(computed) == sorted(m["name"] for m in contract["per_layer"])
    e2e = metrics.end_to_end(
        _outcomes(1), set(), (0.0, 1.0), [(0.0, 1.0)], (0.0, 1.0, 1.0), 1, 1.0,
    )
    for metric in contract["end_to_end"]:
        assert metric["name"] in e2e
        assert 0 < metric["bound"] <= 0.25
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["paths"] == ["benchmarks/ledger"]


def test_readme_documents_every_name():
    readme = (LEDGER_DIR / "README.md").read_text()
    contract = metrics.contract()
    for section in ("end_to_end", "per_layer", "workloads"):
        for entry in contract[section]:
            assert re.search(rf"`{re.escape(entry['name'])}`", readme), entry["name"]
