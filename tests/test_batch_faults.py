"""Slow end-to-end: ``kill`` a batched group mid-batch, resume exactly.

A batched job runs all its chains as one group in one worker process (one
batched tape evaluation per round), so a ``kill`` fault — which SIGKILLs
whichever process hosts the chain — takes down that worker in the middle
of a batched round, and nothing else: the pool respawns the slot, re-sends
the group resumed from its surviving checkpoints, and the job's draws are
**bit-identical** to a run that never failed. A second job in flight on the
pool's other worker finishes untouched.
"""

import os
import threading

import numpy as np
import pytest

from repro import batch
from repro.resilience.chaos import ChaosFault, installed, write_plan
from repro.serve import JobSpec
from repro.serve.checkpoint import CheckpointStore
from repro.serve.workers import ChainWorkerPool, chain_tasks, execute_chain

JOB_ID = "sigkill-batched"
N_ITERATIONS = 60
N_CHAINS = 3
CHECKPOINT_INTERVAL = 5
#: Chain 1 is killed at the end of this iteration: mid-run, and two
#: iterations past a checkpoint, so the resume replays work that was lost.
KILL_AT = 27


def _spec(**overrides):
    fields = dict(
        workload="12cities", engine="hmc",
        engine_options={"n_leapfrog": 8},
        n_iterations=N_ITERATIONS, n_chains=N_CHAINS, seed=7, scale=0.25,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def _reference(spec):
    return [execute_chain(task) for task in chain_tasks(spec, "reference")]


def _assert_identical(reference, chains):
    assert len(reference) == len(chains)
    for solo, chain in zip(reference, chains):
        assert np.array_equal(solo.samples, chain.samples)
        assert np.array_equal(solo.logps, chain.logps, equal_nan=True)
        assert np.array_equal(
            solo.work_per_iteration, chain.work_per_iteration
        )


@pytest.mark.slow
def test_kill_fault_mid_batch_then_resume_bit_identical(tmp_path):
    plan = write_plan(
        str(tmp_path / "plan.json"),
        [ChaosFault(kind="kill", iteration=KILL_AT, chain_index=1,
                    job_id=JOB_ID)],
    )
    killed, other = _spec(), _spec(seed=11, checkpoint_interval=0)
    store = CheckpointStore(str(tmp_path))
    restarts = []
    results = {}

    def run(job_id, spec, **kwargs):
        tasks = chain_tasks(spec, job_id, checkpoint_dir=str(tmp_path))
        assert ChainWorkerPool._batchable(tasks)
        results[job_id] = pool.run_job(tasks, **kwargs)

    with installed(plan), batch.override(True):
        pool = ChainWorkerPool(n_workers=2, poll_interval=0.1)
        with pool:
            threads = [
                threading.Thread(target=run, args=(JOB_ID, killed), kwargs={
                    "on_chain_restart": lambda chain: restarts.append(
                        (chain, store.resume_path(JOB_ID, chain) is not None)
                    ),
                }),
                threading.Thread(target=run, args=("bystander", other)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
    assert os.path.exists(plan + ".fired-0-0")
    # One worker lost, the whole group re-sent, every lane resumable.
    assert pool.restarted_workers == 1
    assert sorted(restarts) == [(chain, True) for chain in range(N_CHAINS)]
    _assert_identical(_reference(killed), results[JOB_ID])
    _assert_identical(_reference(other), results["bystander"])

