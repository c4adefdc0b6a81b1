"""Output checks, run after every timed phase.

A job that fails any check counts into ``failed`` exactly like a job that
ended FAILED or raised in the client: a fast wrong answer is not an answer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.inference import run_chains
from repro.serve import JobSpec
from repro.suite import load_workload

from metrics import GOOD_STATES
from workloads import Workload

#: Chains of the reference spec re-run in-process. One chain exercises the
#: whole identity (seeding, adaptation, elision prefix); all four would
#: cost a further job's service time on every run.
REFERENCE_CHAINS = 1


def check_job(outcome: Dict) -> List[str]:
    """Problems with one served job (empty: it is good)."""
    if outcome.get("error") is not None:
        return [f"client raised {outcome['error']}"]
    problems = []
    if outcome["state"] not in GOOD_STATES:
        problems.append(f"ended {outcome['state']}")
    if outcome["stream_state"] != outcome["state"]:
        problems.append(
            f"stream ended on {outcome['stream_state']}, result says "
            f"{outcome['state']}"
        )
    shape = outcome["shape"]
    if shape != outcome["expected_shape"] or len(shape) != 3 or shape[1] < 1:
        problems.append(f"draws shape {shape}, expected {outcome['expected_shape']}")
    if shape[0] != outcome["spec"]["n_chains"]:
        problems.append(f"{shape[0]} chains served, {outcome['spec']['n_chains']} asked")
    if not outcome["finite"]:
        problems.append("non-finite draws")
    return problems


def reference_draws(spec: Dict, n_kept: int) -> np.ndarray:
    """Chain 0.. of ``spec`` from the plain sequential driver, cut where
    the served job stopped (an elided job equals the prefix)."""
    job = JobSpec(**spec)
    model = load_workload(job.workload, scale=job.scale, seed=job.dataset_seed)
    result = run_chains(
        model, job.build_sampler(),
        n_iterations=job.resolved_warmup + n_kept,
        n_chains=REFERENCE_CHAINS, seed=job.seed,
        n_warmup=job.resolved_warmup, initial_jitter=job.initial_jitter,
    )
    return result.stacked()


def check_identity(outcome: Dict) -> List[str]:
    """The downloaded draws against an in-process run of the same commit."""
    served = outcome["draws"]
    reference = reference_draws(outcome["spec"], outcome["n_kept"])
    if not np.array_equal(served[:REFERENCE_CHAINS], reference):
        return ["draws differ from in-process run_chains"]
    return []


def check_fast_tier(outcomes: List[Dict], gateways) -> Dict[int, List[str]]:
    """Fast-tier provenance, repeat semantics and single execution."""
    problems: Dict[int, List[str]] = {}

    def flag(outcome, message):
        problems.setdefault(id(outcome), []).append(message)

    by_client: Dict[int, List[Dict]] = {}
    for outcome in outcomes:
        by_client.setdefault(outcome["client"], []).append(outcome)
    for outcome in outcomes:
        if outcome.get("error") is not None:
            continue
        if outcome["tier"] != "fast":
            flag(outcome, f"provenance tier {outcome['tier']!r}, not 'fast'")
        if outcome["repeat_of"] is None:
            continue
        first = by_client[outcome["client"]][outcome["repeat_of"]]
        if not outcome["deduped"]:
            flag(outcome, "repeat was not answered from the store")
        if first.get("digest") != outcome["digest"]:
            flag(outcome, "repeat's draws differ from the first answer")

    attempts: Dict[str, int] = {}
    for gateway in gateways:
        for job in gateway.jobs():
            attempts[job.key] = attempts.get(job.key, 0) + job.attempts
    ran_twice = {key for key, count in attempts.items() if count > 1}
    for outcome in outcomes:
        if outcome.get("error") is None and \
                JobSpec(**outcome["spec"]).key() in ran_twice:
            flag(outcome, "job ran more than once across replicas")
    return problems


def check_run(
    workload: Workload, outcomes: List[Dict], gateways
) -> Tuple[set, List[str]]:
    """(``id`` of every failed outcome, human-readable problem lines)."""
    problems: Dict[int, List[str]] = {}
    for outcome in outcomes:
        found = check_job(outcome)
        if found:
            problems[id(outcome)] = found
    if workload.exact:
        reference = next((o for o in outcomes if "draws" in o), None)
        if reference is not None:
            found = check_identity(reference)
            if found:
                problems.setdefault(id(reference), []).extend(found)
    else:
        for key, found in check_fast_tier(outcomes, gateways).items():
            problems.setdefault(key, []).extend(found)
    lines = [
        f"client {o['client']} job {o['position']} ({o['job_id']}): {message}"
        for o in outcomes for message in problems.get(id(o), ())
    ]
    return set(problems), lines
