"""Metric definitions and the arithmetic that turns a run into numbers.

``BENCHMARK.json`` at the repo root is the registry of names, units,
directions and bounds; this module computes a value for every name in it
(:func:`end_to_end` from the untraced run, :func:`per_layer` from the
traced one) and a self-test keeps the two lists equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import trace as ledger_trace

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: p95 needs ten samples beyond it to mean anything: below 200 timed jobs
#: the tail is the slowest job.
TAIL_P95_MIN_N = 200

GOOD_STATES = ("done", "converged")


def contract() -> Dict:
    return json.loads(BENCHMARK_JSON.read_text())


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(latencies: List[float]) -> Tuple[float, str]:
    """(value, rule): p95 at n >= 200, otherwise the maximum."""
    if len(latencies) >= TAIL_P95_MIN_N:
        ordered = sorted(latencies)
        # Nearest-rank: the smallest value with at least 95 % at or below.
        rank = -(-95 * len(ordered) // 100)
        return ordered[rank - 1], "p95"
    return max(latencies), "max"


def _unscaled(start: float, end: float) -> float:
    return 1.0


def end_to_end(
    outcomes: List[Dict],
    failed_ids: set,
    timed: Tuple[float, float],
    setups: List[Tuple[float, float]],
    cpu: Tuple[float, float, float],
    n_answered_with_warmup: int,
    peak_rss_mb: float,
    scale: Callable[[float, float], float] = _unscaled,
) -> Dict[str, float]:
    """The user-visible numbers of one untraced run.

    Intervals are ``(start, end)`` perf-counter stamps — ``timed`` the timed
    phase, ``setups`` each boot + warm-up, ``cpu`` the serving stack's life
    with its CPU seconds third — and ``scale(start, end)`` is what the
    reference loop says wall time inside one is to be multiplied by
    (``sentinel.Reference.scale``). Every time is reported in reference
    seconds; the wall-clock readings are kept under ``raw``.

    ``failed_ids`` holds ``id(outcome)`` of every timed job that ended
    badly, raised in the client or failed an output check; only the others
    count as answered.
    """
    wall = [outcome["latency_s"] for outcome in outcomes]
    latencies = [
        outcome["latency_s"] * scale(
            outcome["submitted_at"], outcome["submitted_at"] + outcome["latency_s"]
        )
        for outcome in outcomes
    ]
    good = [outcome for outcome in outcomes if id(outcome) not in failed_ids]
    tail_value, tail_rule = tail(latencies)
    timed_wall = timed[1] - timed[0]
    timed_s = timed_wall * scale(*timed)
    cpu_start, cpu_end, cpu_s = cpu
    jobs = max(1, n_answered_with_warmup)
    return {
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "latency_tail_rule": tail_rule,
        "latency_n": len(latencies),
        "latencies_s": latencies,
        "jobs_per_s": len(good) / timed_s,
        "ess_per_s": sum(outcome["ess_mean"] for outcome in good) / timed_s,
        "ess_min_per_s": sum(outcome["ess_min"] for outcome in good) / timed_s,
        "cpu_s_per_job": cpu_s * scale(cpu_start, cpu_end) / jobs,
        "failed_ratio": len(failed_ids) / len(outcomes),
        "setup_s": median((end - start) * scale(start, end) for start, end in setups),
        "peak_rss_mb": peak_rss_mb,
        "raw": {
            "latency_p50_s": median(wall),
            "latency_tail_s": tail(wall)[0],
            "latencies_s": wall,
            "jobs_per_s": len(good) / timed_wall,
            "cpu_s_per_job": cpu_s / jobs,
            "setups_s": [end - start for start, end in setups],
            "timed_wall_s": timed_wall,
        },
    }


# -- per-layer -----------------------------------------------------------------


class SpanIndex:
    """Recorded spans of the timed jobs, looked up by name."""

    def __init__(self, recorder: ledger_trace.Recorder, timed_ids: set) -> None:
        spans = recorder.resolved_spans()
        self.all = spans
        self.self_s = ledger_trace.self_times(spans)
        self.by_id = {span.id: span for span in spans}
        self.timed_ids = timed_ids
        self.by_name: Dict[str, List[ledger_trace.Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def named(self, *names: str):
        """Spans of the timed jobs."""
        for name in names:
            for span in self.by_name.get(name, ()):
                if span.job in self.timed_ids:
                    yield span

    def before(self, name: str, instant: float):
        """Spans that began before ``instant`` — the set-up phase's."""
        return [s for s in self.by_name.get(name, ()) if s.start < instant]

    def per_job(self, *names: str, value=None, where=None) -> List[float]:
        """Per timed job in which any such span occurs, the summed value."""
        value = value or (lambda span: span.duration)
        sums: Dict[str, float] = {}
        for span in self.named(*names):
            if where is None or where(span):
                sums[span.job] = sums.get(span.job, 0.0) + value(span)
        return list(sums.values())

    def own(self, span) -> float:
        return self.self_s[span.id]

    def hot(self, name: str) -> List[List[float]]:
        """Per timed job, the summed hot row ``[count, seconds, ...]``."""
        rows: Dict[str, List[float]] = {}
        for span in self.all:
            row = span.hot.get(name)
            if row is None or span.job not in self.timed_ids:
                continue
            have = rows.setdefault(span.job, [0.0] * len(row))
            for index, number in enumerate(row):
                have[index] += number
        return list(rows.values())


def grad_evals(outcomes: List[Dict]) -> float:
    """Work the samplers report for the jobs that ran (repeats did not)."""
    return sum(
        o["total_work"] for o in outcomes
        if o.get("error") is None and not o["deduped"]
    )


def per_layer(
    recorder: ledger_trace.Recorder,
    outcomes: List[Dict],
    shares: Dict[str, float],
    extra: Dict[str, float],
    shim_seconds: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    Times are medians over the timed jobs in which the boundary was
    crossed, except the cold ones (sums over the set-up phase). A layer the workload never enters reads 0.
    ``shares`` is :func:`layer_shares` of the same run; ``extra`` holds the values measured elsewhere — read off the live
    stack, or by the out-of-job probes — already under their metric names.
    """
    ms, us = 1e3, 1e6
    good = [o for o in outcomes if o.get("error") is None]
    timed_ids = {o["job_id"] for o in good}
    index = SpanIndex(recorder, timed_ids)
    d = index.per_job

    instants = ledger_trace.first_instants(index.all, recorder.events)
    timed_start = min((o["submitted_at"] for o in good), default=0.0)
    timed_end = max((o["submitted_at"] + o["latency_s"] for o in good), default=0.0)
    # A 421 names no job, so routing is windowed by time instead.
    routes = [
        span for span in index.by_name.get("fleet.route", ())
        if timed_start <= span.start <= timed_end
    ]
    gets = list(index.named("serve.store.get"))
    result_json = d(
        "gateway.json_safe",
        where=lambda span: str(
            getattr(index.by_id.get(span.parent), "attrs", {}).get("route", "")
        ).endswith("/result"),
    )
    evaluate = index.hot("batch.evaluate")
    observe = index.hot("serve.monitor.observe")
    latency = sum(o["latency_s"] for o in good)
    fresh = [o for o in good if not o["deduped"]]
    iterations = sum(
        o["shape"][0] * (o["n_warmup"] + o["n_kept"]) for o in fresh
    )
    work = grad_evals(outcomes)
    budget = sum(o["budget_kept"] for o in fresh)

    values = {spec["name"]: 0.0 for spec in contract()["per_layer"]}
    values.update(extra)
    values.update({
        "client.submit_ms": ms * median(d("client.submit")),
        "client.result_ms": ms * median(d("client.result")),
        "client.result_bytes": median(o["result_bytes"] for o in good),
        "gateway.submit_self_ms": ms * median(d("gateway.submit", value=index.own)),
        "gateway.http_self_ms": ms * median(d("gateway.request", value=index.own)),
        "gateway.result_view_ms": ms * (
            median(d("gateway.result_view")) + median(result_json)
        ),
        "gateway.sse_lag_ms": ms * median(ledger_trace.gaps(
            instants, "terminal_published", "terminal_seen", timed_ids
        )),
        "gateway.sse_events": median(
            span.attrs["events"] for span in index.named("client.stream")
        ),
        "fleet.route_us": us * median(span.duration for span in routes),
        "fleet.redirect_ratio": (
            sum(span.error for span in routes) / len(good) if routes else 0.0
        ),
        "serve.server.submit_ms": ms * median(d("serve.server.submit")),
        "serve.server.queue_wait_s": median(ledger_trace.gaps(
            instants, "admitted", "job_started", timed_ids
        )),
        "serve.server.service_s": median(d(ledger_trace.RUN_SPAN)),
        "serve.server.self_ms": ms * median(d(ledger_trace.RUN_SPAN, value=index.own)),
        "serve.filequeue.append_ms": ms * median(d(
            "serve.filequeue.submit", "serve.filequeue.mark_running",
            "serve.filequeue.mark_finished",
        )),
        "serve.filequeue.appends": median(d(
            "serve.filequeue.submit", "serve.filequeue.mark_running",
            "serve.filequeue.mark_finished", value=lambda span: 1,
        )),
        "serve.store.put_ms": ms * median(d("serve.store.put")),
        "serve.store.get_ms": ms * median(d("serve.store.get")),
        "serve.store.hit_ratio": (
            sum(bool(span.attrs["hit"]) for span in gets) / len(gets)
            if gets else 0.0
        ),
        "serve.store.record_bytes": median(
            span.attrs.get("bytes", 0) for span in index.named("serve.store.put")
        ),
        "serve.workers.run_job_s": median(d("serve.workers.run_job")),
        "serve.workers.self_s": median(d("serve.workers.run_job", value=index.own)),
        "serve.workers.draw_blocks": median(row[0] for row in observe),
        "serve.monitor.observe_ms": ms * median(row[1] for row in observe),
        "serve.monitor.checks": median(o["rhat_checks"] for o in fresh),
        "serve.monitor.elided_ratio": (
            1.0 - sum(o["n_kept"] for o in fresh) / budget if budget else 0.0
        ),
        "serve.checkpoint.save_ms": ms * median(d("serve.checkpoint.save_chain")),
        "serve.checkpoint.bytes": median(
            span.attrs["bytes"]
            for span in index.named("serve.checkpoint.discard_job")
        ),
        "amortize.guide_train_s": sum(
            span.duration
            for span in index.before("amortize.get_or_train", timed_start)
            if span.attrs.get("trained")
        ),
        "amortize.guide_get_ms": ms * median(
            span.duration for span in index.named("amortize.get_or_train")
            if not span.attrs.get("trained")
        ),
        "amortize.surrogate_ms": ms * median(d("amortize.surrogate_result")),
        "arch.profile_s": sum(
            span.duration
            for span in index.before("arch.profile_workload", timed_start)
        ),
        "suite.load_ms": ms * min(
            index.before("suite.load_workload", timed_start),
            key=lambda span: span.start, default=ledger_trace.Span(0, "", 0.0),
        ).duration,
        "inference.grad_evals": work,
        "inference.iterations": iterations,
        "inference.grad_evals_per_iter": work / iterations if iterations else 0.0,
        "batch.evaluate_s": median(row[1] for row in evaluate),
        "batch.rounds": median(row[0] for row in evaluate),
        "batch.lane_occupancy": (
            sum(row[2] for row in evaluate) / sum(row[3] for row in evaluate)
            if evaluate else 0.0
        ),
        "trace.residual_ratio": shares.get("(residual)", 0.0),
        "trace.overhead_ratio": shim_seconds / latency if latency else 0.0,
        "trace.spans": len(recorder.spans),
    })
    return values


def in_reference_time(values: Dict[str, float], scale: float) -> Dict[str, float]:
    """Per-layer values with every time (and rate) in reference seconds:
    the unit in ``BENCHMARK.json`` says which they are."""
    power = {"s": 1, "ms": 1, "us": 1, "1/s": -1}
    return {
        spec["name"]: values[spec["name"]] * scale ** power.get(spec["unit"], 0)
        for spec in contract()["per_layer"]
    }


def layer_shares(trees, outcomes: List[Dict]) -> Dict[str, float]:
    """Share of the timed jobs' summed latency per layer, plus the
    ``(queue wait)`` and ``(residual)`` rows; the shares sum to 1.

    A job whose spans never joined into a tree is all residual: nothing
    recorded explains where its latency went.
    """
    totals: Dict[str, float] = {"(queue wait)": 0.0, "(residual)": 0.0}
    latency = 0.0
    for outcome in outcomes:
        if outcome.get("error") is not None:
            continue
        if outcome["job_id"] not in trees:
            latency += outcome["latency_s"]
            totals["(residual)"] += outcome["latency_s"]
            continue
        part = ledger_trace.decompose(trees[outcome["job_id"]])
        latency += part["latency"]
        for layer, seconds in part["layers"].items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        totals["(queue wait)"] += part["queue_wait"]
        totals["(residual)"] += part["residual"]
    if not latency:
        return {}
    return {layer: seconds / latency for layer, seconds in totals.items()}
