"""Out-of-job measurements of the traced run.

What a span around a public boundary cannot see — one warm tape replay,
the five reachable cells of compiled x batched x suffstats, the checked
tier's gate, the pool's parallel efficiency — is measured here, outside
any job, at fixed positions and fixed seeds, through public entry points
only. Every probe is short: the traced run has to fit the same time cap
as the untraced one.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats
from repro.batch import run_chains_batched
from repro.batch.engine import BatchedEvaluator
from repro.inference import run_chains
from repro.serve import JobSpec
from repro.serve.workers import chain_tasks, execute_chain
from repro.suite import load_workload

import trace as ledger_trace

PROBE_SCALES = (0.25, 0.5, 1.0)
N_POSITIONS = 4
REPLAY_ROUNDS = 10
INTERP_ROUNDS = 2
ABLATION_CHAINS = 4
#: Untimed first run on each cell's model: records, validates and
#: calibrates, so the timed run measures steady replay, not set-up.
ABLATION_BURN_ITERATIONS = 4
ABLATION_ITERATIONS = 16
#: Same run, same work, twice: a busy neighbour can only slow a run down,
#: so the faster one is the better reading of the cell.
ABLATION_REPEATS = 2
CHECKED_PROBE_JOBS = 6
CHECKED_PROBE_ITERATIONS = 60


def _positions(model) -> List[np.ndarray]:
    rng = np.random.default_rng(0)
    return [
        model.initial_position(rng) + 0.1 * rng.standard_normal(model.dim)
        for _ in range(N_POSITIONS)
    ]


def _steady_call_us(fn, xs, calls: int) -> float:
    """Microseconds per call: each position's fastest of ``calls`` rounds
    (a busy neighbour only ever adds time), then the median position."""
    fastest = [float("inf")] * len(xs)
    for _ in range(calls):
        for index, x in enumerate(xs):
            start = time.perf_counter()
            fn(x)
            fastest[index] = min(fastest[index], time.perf_counter() - start)
    return 1e6 * statistics.median(fastest)


def _tape_point(family: str, scale: float) -> Dict[str, float]:
    """One model, cold to warm: record cost, then steady replay cost."""
    model = load_workload(family, scale=scale)
    xs = _positions(model)
    start = time.perf_counter()
    model.compiled_logp_and_grad(xs[0])
    record_ms = 1e3 * (time.perf_counter() - start)
    for x in xs:  # drain the validation replays
        model.compiled_logp_and_grad(x)
    point = {
        "kpt": model.modeled_data_points / 1e3,
        "record_ms": record_ms,
        "replay_us": _steady_call_us(
            model.compiled_logp_and_grad, xs, REPLAY_ROUNDS
        ),
        "interp_us": _steady_call_us(model.logp_and_grad, xs, INTERP_ROUNDS),
    }
    # The installed tape is reachable through the batched evaluator's
    # public ``engine`` once it has promoted the solo tape.
    evaluator = BatchedEvaluator(model, 2)
    lanes = {0: xs[0], 1: xs[1]}
    for _ in range(4):
        evaluator.evaluate(lanes)
        if evaluator.engine is not None:
            break
    tape = evaluator.engine.tape if evaluator.engine is not None else None
    stats = model.tape_stats() or {}
    point.update(
        instructions=tape.n_instructions if tape is not None else 0,
        buffer_elements=tape.buffer_elements if tape is not None else 0,
        suffstats_folded_ops=stats.get("suffstats_folded_ops", 0),
        fallbacks=stats.get("fallbacks", 0),
    )
    return point


def autodiff_probe(family: str, scale: float) -> Dict[str, float]:
    """Warm replay at the workload's scale, and a three-scale line fit.

    With the same instruction count at every scale, replay time against
    data size is a line: the intercept is what a replay costs before it
    touches data (dispatch), the slope what each 1 000 points add
    (kernels). A tape whose instruction count changes with scale has no
    such reading, and both numbers are reported as 0.
    """
    points = {s: _tape_point(family, s) for s in PROBE_SCALES}
    here = points[scale]
    fixed_us = per_kpt_us = 0.0
    if len({point["instructions"] for point in points.values()}) == 1:
        per_kpt_us, fixed_us = np.polyfit(
            [point["kpt"] for point in points.values()],
            [point["replay_us"] for point in points.values()], 1,
        )
    return {
        "autodiff.replay_us": here["replay_us"],
        "autodiff.interp_us": here["interp_us"],
        "autodiff.record_ms": here["record_ms"],
        "autodiff.instructions": here["instructions"],
        "autodiff.buffer_elements": here["buffer_elements"],
        "autodiff.suffstats_folded_ops": here["suffstats_folded_ops"],
        "autodiff.fallbacks": here["fallbacks"],
        "autodiff.replay_fixed_us": float(fixed_us),
        "autodiff.replay_us_per_kpt": float(per_kpt_us),
    }


#: name -> (compiled, suffstats, batched): the five reachable cells; the
#: other three would need suffstats or batching without a compiled tape.
ABLATION_CELLS = {
    "ablation.interp": (False, False, False),
    "ablation.compiled": (True, False, False),
    "ablation.compiled_suff": (True, True, False),
    "ablation.compiled_batch": (True, False, True),
    "ablation.all": (True, True, True),
}


def ablation_probe(spec: Dict) -> Dict[str, float]:
    """Gradient evaluations per second in each cell, same short run
    (the faster of ``ABLATION_REPEATS``).

    The seed is fixed, so every cell that reaches the sampler does the same
    evaluations and only their speed differs. A gradient-free engine has
    no step generator to batch: its two batched cells read 0.
    """
    job = JobSpec(**spec)
    out = {}
    for name, (compiled, folded, batched) in ABLATION_CELLS.items():
        sampler = job.build_sampler()
        if batched and not hasattr(sampler, "sample_steps"):
            out[name] = 0.0
            continue
        run = run_chains_batched if batched else run_chains
        with tape_compile.override(compiled), suffstats.override(folded):
            model = load_workload(job.workload, scale=job.scale)
            run(model, sampler, n_iterations=ABLATION_BURN_ITERATIONS,
                n_chains=ABLATION_CHAINS, seed=0)
            rates = []
            for _ in range(ABLATION_REPEATS):
                start = time.perf_counter()
                result = run(
                    model, sampler, n_iterations=ABLATION_ITERATIONS,
                    n_chains=ABLATION_CHAINS, seed=0,
                )
                rates.append(result.total_work / (time.perf_counter() - start))
            out[name] = max(rates)
    return out


def pool_efficiency_probe(spec: Dict, n_workers: int, run_job_s: float) -> float:
    """Ideal over actual job time on the process-pool path (else 0).

    Chain 0, timed in-process through the public ``execute_chain``, stands
    for each of the job's equal-budget chains; ``n_chains`` of them over
    ``n_workers`` cores is the ideal. Engines with a step generator never
    reach the pool — their jobs run batched in the parent.
    """
    job = JobSpec(**spec)
    if hasattr(job.build_sampler(), "sample_steps") or not run_job_s:
        return 0.0
    task = chain_tasks(job, "ledger-probe")[0]
    start = time.perf_counter()
    execute_chain(task)
    chain_s = time.perf_counter() - start
    return chain_s * job.n_chains / n_workers / run_job_s


def checked_probe(client, recorder: ledger_trace.Recorder) -> Dict[str, float]:
    """A few ``mode=checked`` jobs: what the PSIS gate costs and how often
    it sends the job on to exact sampling anyway."""
    escalated = 0
    job_ids = set()
    for seed in range(1, CHECKED_PROBE_JOBS + 1):
        view = client.submit(
            "12cities", mode="checked", scale=0.5, n_chains=4, seed=seed,
            n_iterations=CHECKED_PROBE_ITERATIONS,
        )
        job_ids.add(view["job_id"])
        for _ in client.stream(view["job_id"]):
            pass
        result = client.result(view["job_id"])
        escalated += bool(result["provenance"]["escalated"])
    gate: Dict[str, float] = {}
    for span in recorder.resolved_spans():
        if span.job in job_ids and span.name in (
            "amortize.surrogate_log_ratios", "amortize.psis"
        ):
            gate[span.job] = gate.get(span.job, 0.0) + span.duration
    return {
        "amortize.gate_ms": 1e3 * statistics.median(gate.values()) if gate else 0.0,
        "amortize.escalation_ratio": escalated / CHECKED_PROBE_JOBS,
    }
