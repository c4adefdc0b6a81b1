"""Slow end-to-end: ``kill`` a batched serve job mid-batch, resume exactly.

The batched job path runs all chains of a job in the serving process
itself (one batched tape evaluation per round), so a ``kill`` fault —
which SIGKILLs whichever process hosts the chain — takes down *that*
process, in the middle of a batched round. Nothing inside the process can
recover; the contract is the one a restarted service gives: resume from
the surviving checkpoints, finish batched, and produce draws
**bit-identical** to a run that never failed. The doomed run therefore
lives in a subprocess, with the plan armed through ``REPRO_CHAOS`` exactly
as an operator would arm it.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import batch
from repro.resilience.chaos import ENV_VAR, ChaosFault, installed, write_plan
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

_SCRIPT = """
import sys
from repro.serve import JobSpec
from repro.serve.workers import ChainWorkerPool, chain_tasks

spec = JobSpec(**{spec_kwargs!r})
tasks = chain_tasks(spec, {job_id!r}, checkpoint_dir=sys.argv[1])
assert ChainWorkerPool._batchable(tasks), "job did not qualify for batching"
print("BATCHED-JOB-STARTED", flush=True)
pool = ChainWorkerPool(n_workers=1)
try:
    pool.run_job(tasks)
finally:
    pool.shutdown()
print("BATCHED-JOB-FINISHED", flush=True)
"""


def _spec_kwargs():
    return dict(
        workload="12cities", engine="hmc",
        engine_options={"n_leapfrog": 8},
        n_iterations=N_ITERATIONS, n_chains=N_CHAINS, seed=7, scale=0.25,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )


@pytest.mark.slow
def test_kill_fault_mid_batch_then_resume_bit_identical(tmp_path):
    ckpt = tmp_path / "ckpt"
    plan = write_plan(
        str(tmp_path / "plan.json"),
        [ChaosFault(kind="kill", iteration=KILL_AT, chain_index=1)],
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env["REPRO_BATCH"] = "1"
    env[ENV_VAR] = plan
    proc = subprocess.run(
        [
            sys.executable, "-c",
            _SCRIPT.format(spec_kwargs=_spec_kwargs(), job_id=JOB_ID),
            str(ckpt),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "BATCHED-JOB-STARTED" in proc.stdout
    assert "BATCHED-JOB-FINISHED" not in proc.stdout
    assert os.path.exists(plan + ".fired-0-0")

    # The kill landed where it was aimed: the lanes advance in lockstep, so
    # every chain's newest checkpoint is the one before the kill iteration.
    spec = JobSpec(**_spec_kwargs())
    store = CheckpointStore(str(ckpt))
    last_saved = KILL_AT - (KILL_AT + 1) % CHECKPOINT_INTERVAL
    for chain in range(N_CHAINS):
        assert store.latest_iteration(JOB_ID, chain) == last_saved

    # Resume batched — the spent fault must not re-fire when chain 1 passes
    # the kill iteration again — and compare to a run that never failed:
    # the restored prefix plus the batched continuation must equal the
    # uninterrupted per-chain reference draw for draw.
    pool = ChainWorkerPool(n_workers=1)
    try:
        with batch.override(True):
            resume_tasks = chain_tasks(
                spec, JOB_ID, checkpoint_dir=str(ckpt), resume=True
            )
            assert all(t.resume_from for t in resume_tasks)
            assert ChainWorkerPool._batchable(resume_tasks)
            with installed(plan):
                resumed = pool.run_job(resume_tasks)
    finally:
        pool.shutdown()

    reference = [
        execute_chain(task) for task in chain_tasks(spec, "reference")
    ]
    for solo, chain in zip(reference, resumed):
        assert np.array_equal(solo.samples, chain.samples)
        assert np.array_equal(solo.logps, chain.logps, equal_nan=True)
        assert np.array_equal(
            solo.work_per_iteration, chain.work_per_iteration
        )
