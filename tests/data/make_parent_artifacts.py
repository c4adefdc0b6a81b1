"""Run with PYTHONPATH=<parent checkout>/src: write one of each persisted
artefact with the parent commit's code into tests/data/parent_artifacts."""
import sys
from pathlib import Path

import numpy as np

from repro.amortize.guides import GuideRecord, GuideStore
from repro.fleet.lease import ShardLease
from repro.inference.advi import AdviResult
from repro.inference.results import ChainResult, SamplingResult
from repro.serve import FileJobQueue, JobSpec
from repro.serve.store import ResultStore, StoredResult
from repro.serve.workers import ChainTask, execute_chain

out = Path(sys.argv[1])
spec = JobSpec(workload="votes", engine="mh", n_iterations=30, n_chains=2,
               seed=0, scale=0.25, elide=False)
chain = ChainResult(
    samples=np.arange(8.0).reshape(4, 2), logps=np.arange(4.0),
    work_per_iteration=np.ones(4), n_warmup=2, accept_rate=0.5,
)
ResultStore(str(out / "results")).put(
    "parent-result",
    StoredResult(
        spec=spec, result=SamplingResult(model_name="m", chains=[chain])
    ),
)
GuideStore(directory=str(out / "guides")).put(GuideRecord(
    guide_id="parent-guide", family="toy", data_shape=(("y", (40,)),),
    model_version="v0",
    advi=AdviResult(mu=np.array([1.0, 2.0]), log_sigma=np.array([-1.0, 0.5])),
))
execute_chain(ChainTask(
    job_id="parent-job", chain_index=0, workload="votes", scale=0.25,
    dataset_seed=None, engine="mh", engine_options={}, n_iterations=40,
    n_warmup=20, seed=5, initial_jitter=1.0, report_interval=10,
    checkpoint_interval=10, checkpoint_dir=str(out / "checkpoints"),
), stop_iteration=lambda: 25)
assert ShardLease(
    out, 3, "replica-a", ttl=10.0, clock=lambda: 1000.0
).acquire()
queue = FileJobQueue(out / "queue.jsonl")
a = queue.submit(spec)
queue.submit(JobSpec.from_dict({**spec.to_dict(), "seed": 1}))
c = queue.submit(JobSpec.from_dict({**spec.to_dict(), "seed": 2}))
queue.mark_running(a)
queue.mark_running(c)
queue.mark_finished(c)
