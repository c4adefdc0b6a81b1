"""End-to-end service tests: submit → execute → elide → store.

The elision case is calibrated: 12cities at scale 0.25 with a depth-6 NUTS,
3 chains, seed 4, warmup 60 has online max split R-hat 1.107 at 40 kept
draws, then below 1.1 from 60 on, while its min ESS reads 60, 56 and 84 at
60, 80 and 100 and 104 at 120 — so the system's rule (R-hat below 1.1 and
ESS at least 100) stops the job at 120 of its 180-draw budget. The prefix
assertion then pins the determinism story: per-iteration RNG sequencing
means the elided result must be bit-identical to a sequential run that was
*asked* for only 180 iterations.
"""

import pickle

import numpy as np
import pytest

from repro.core.elision import ESS_AT_LEAST, RHAT_BELOW
from repro.inference import NUTS, run_chains
from repro.serve import InferenceServer, JobSpec, JobState, ResultStore
from repro.suite import load_workload
from tests.test_durable import assert_concurrent_puts_are_whole

ELIDING_SPEC = JobSpec(
    workload="12cities",
    engine="nuts",
    n_iterations=240,
    n_warmup=60,
    n_chains=3,
    seed=4,
    scale=0.25,
    priority=2,
)

FULL_BUDGET_SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=120,
    n_warmup=60,
    n_chains=2,
    seed=0,
    elide=False,
    priority=1,
)

BROKEN_SPEC = JobSpec(
    workload="votes",
    engine="mh",
    n_iterations=40,
    n_chains=2,
    seed=9,
    elide=False,
    engine_options={"not_a_sampler_option": 1},
)


@pytest.fixture(scope="module")
def drained_server():
    """One server draining the three canonical jobs; shared by the tests."""
    server = InferenceServer(n_workers=3)
    try:
        jobs = {
            "elide": server.submit(ELIDING_SPEC),
            "full": server.submit(FULL_BUDGET_SPEC),
            "broken": server.submit(BROKEN_SPEC),
        }
        finished = server.run_until_drained()
        yield server, jobs, finished
    finally:
        server.close()


def test_drain_executes_all_jobs_in_priority_order(drained_server):
    server, jobs, finished = drained_server
    assert len(finished) == 3
    assert [job.spec.priority for job in finished] == [2, 1, 0]
    assert finished[0] is jobs["elide"]
    assert server.queue.pop() is None


def test_elided_job_stops_before_budget(drained_server):
    _, jobs, _ = drained_server
    job = jobs["elide"]
    assert job.state is JobState.CONVERGED
    summary = job.elision
    assert summary.elided
    assert summary.converged_kept == 120
    assert summary.converged_kept < summary.budget_kept == 180
    assert summary.iterations_saved_fraction == pytest.approx(1 / 3)
    # The monitor checked at 40 (R-hat too high), at 60-100 (R-hat below
    # the threshold, ESS under the floor), then stopped at 120.
    assert summary.checkpoints == [40, 60, 80, 100, 120]
    assert summary.rhat_trace[0] >= RHAT_BELOW
    assert all(rhat < RHAT_BELOW for rhat in summary.rhat_trace[1:])
    # The answer's summary reads what the rule judged at the stop.
    rows = job.result.summary()
    assert max(row.rhat for row in rows) == summary.rhat_trace[-1]
    assert min(row.ess for row in rows) >= ESS_AT_LEAST
    # The stored draws cover exactly warmup + converged iterations.
    assert job.result.chains[0].n_iterations == 60 + 120


def test_elided_draws_match_sequential_prefix(drained_server):
    _, jobs, _ = drained_server
    job = jobs["elide"]
    spec = job.spec
    total = spec.resolved_warmup + job.elision.converged_kept
    sequential = run_chains(
        load_workload(spec.workload, scale=spec.scale),
        NUTS(max_tree_depth=6),
        n_iterations=total,
        n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains,
        seed=spec.seed,
        initial_jitter=spec.initial_jitter,
    )
    for elided, seq in zip(job.result.chains, sequential.chains):
        np.testing.assert_array_equal(elided.samples, seq.samples)
        np.testing.assert_array_equal(elided.logps, seq.logps)


def test_full_budget_job_runs_to_done(drained_server):
    _, jobs, _ = drained_server
    job = jobs["full"]
    assert job.state is JobState.DONE
    assert job.elision is None
    assert job.result.chains[0].n_iterations == 120


def test_broken_job_fails_cleanly_and_pool_survives(drained_server):
    server, jobs, _ = drained_server
    job = jobs["broken"]
    assert job.state is JobState.FAILED
    assert "not_a_sampler_option" in job.error
    assert job.spec.key() not in server.store
    # The failure did not wedge the pool: new work still executes.
    fresh = server.submit("votes", engine="mh", n_iterations=30, n_chains=2,
                          seed=11, elide=False)
    drained = server.run_until_drained()
    assert drained == [fresh]
    assert fresh.state is JobState.DONE


def test_repeat_submission_answers_from_store(drained_server):
    server, jobs, _ = drained_server
    repeat = server.submit(ELIDING_SPEC)
    assert repeat.deduped
    assert repeat.state is JobState.DONE
    assert repeat.job_id != jobs["elide"].job_id
    np.testing.assert_array_equal(
        repeat.result.chains[0].samples,
        jobs["elide"].result.chains[0].samples,
    )
    # Elision metadata rides along with the stored result.
    assert repeat.elision.converged_kept == 120


def test_queue_level_dedupe_folds_pending_duplicates():
    with InferenceServer(n_workers=1) as server:
        first = server.submit(FULL_BUDGET_SPEC)
        again = server.submit(FULL_BUDGET_SPEC)
        assert again is first
        assert len(server.queue) == 1


def test_submit_rejects_unknown_workload():
    with InferenceServer(n_workers=1) as server:
        with pytest.raises(KeyError, match="unknown workload"):
            server.submit("not-a-workload")


def _forbid_summarize(monkeypatch):
    from repro.inference import results

    def forbidden(*args, **kwargs):
        raise AssertionError("summary recomputed instead of read from the memo")

    monkeypatch.setattr(results, "summarize", forbidden)


def test_stored_record_carries_its_summary_across_restarts(tmp_path, monkeypatch):
    from repro.gateway import result_view

    spec = JobSpec(workload="votes", engine="mh", n_iterations=40, n_chains=2,
                   seed=5, elide=False)
    with InferenceServer(n_workers=1, store=ResultStore(str(tmp_path))) as server:
        job = server.submit(spec)
        server.run_until_drained()
        assert job.state is JobState.DONE
        served = result_view(job)["summary"]
    path = tmp_path / f"{spec.key()}.pkl"

    # A restart (or another replica) reads the memo from the pickle.
    with monkeypatch.context() as patch:
        _forbid_summarize(patch)
        with InferenceServer(
            n_workers=1, store=ResultStore(str(tmp_path))
        ) as restarted:
            repeat = restarted.submit(spec)
            assert repeat.deduped
            assert result_view(repeat)["summary"] == served

    # A pickle written before the memo existed has no such attribute: it
    # still loads, and computes its summary on the first read.
    record = pickle.loads(path.read_bytes())
    del record.result.__dict__["_summary"]
    path.write_bytes(pickle.dumps(record))
    old = ResultStore(str(tmp_path)).get(spec.key())
    assert "_summary" not in vars(old.result)
    assert [vars(row) for row in old.result.summary()] == served


def test_two_stores_on_one_directory_put_one_key_concurrently(tmp_path):
    """Fleet replicas share the results directory; both may settle the
    same key (an exact run and an escalated twin) at the same moment.
    The ``store`` case of the durable-write battery, under its PR 20 id."""
    assert_concurrent_puts_are_whole("store", tmp_path)
