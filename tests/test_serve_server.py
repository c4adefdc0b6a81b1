"""End-to-end service tests: submit → place → execute → elide → store.

The elision case is calibrated: 12cities at scale 0.25 with a depth-6 NUTS,
3 chains, seed 3, warmup 60 has online R-hat 1.52 at 40 kept draws and 1.09
at 60 — so with the default 1.1 threshold the monitor stops the job at 60 of
its 120-draw budget. The prefix assertion then pins the determinism story:
per-iteration RNG sequencing means the elided result must be bit-identical
to a sequential run that was *asked* for only 120 iterations.
"""

import pickle

import numpy as np
import pytest

from repro.arch.profile import profile_workload
from repro.inference import NUTS, run_chains
from repro.serve import InferenceServer, JobSpec, JobState, ResultStore
from repro.suite import load_workload
from tests.test_durable import assert_concurrent_puts_are_whole

ELIDING_SPEC = JobSpec(
    workload="12cities",
    engine="nuts",
    n_iterations=180,
    n_warmup=60,
    n_chains=3,
    seed=3,
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
    assert summary.converged_kept == 60
    assert summary.converged_kept < summary.budget_kept == 120
    assert summary.iterations_saved_fraction == 0.5
    # The monitor checked at 40 (not converged) then 60 (converged).
    assert summary.checkpoints == [40, 60]
    assert summary.rhat_trace[0] >= summary.rhat_threshold
    assert summary.rhat_trace[-1] < summary.rhat_threshold
    # The stored draws cover exactly warmup + converged iterations.
    assert job.result.chains[0].n_iterations == 60 + 60


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


def test_placement_decisions_recorded(drained_server):
    _, jobs, _ = drained_server
    for name in ("elide", "full"):
        placement = jobs[name].placement
        assert placement is not None
        assert placement.platform in ("Skylake", "Broadwell")
        assert placement.predicted_mpki >= 0.0
    # The first-placed job sees a one-point predictor (fallback rule); once
    # a second workload is profiled the fitted predictor takes over.
    assert not jobs["elide"].placement.predictor_fitted
    assert jobs["full"].placement.predictor_fitted
    assert jobs["full"].simulated_seconds > 0
    assert jobs["full"].baseline_seconds > 0


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
    assert repeat.elision.converged_kept == 60


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


# -- placement from the static profile ------------------------------------------

def test_static_profile_places_like_the_calibrated_one():
    """Placement and simulated latency read nothing a calibration run adds:
    the server's static profile and a calibrated one agree on every
    `Placement`, `simulated_seconds` and `baseline_seconds`."""
    chain_works = [410.0, 388.0, 402.0, 395.0]
    with InferenceServer(n_workers=1) as static_server, \
            InferenceServer(n_workers=1) as calibrated_server:
        for workload, scale in (("12cities", 1.0), ("votes", 1.0),
                                ("tickets", 0.05)):
            spec = JobSpec(workload=workload, scale=scale)
            key = static_server._cache_key(spec)
            static = static_server._profile(spec)
            assert static.work_per_iteration is None
            calibrated = profile_workload(
                load_workload(workload, scale=scale), calibration_iterations=8
            )
            assert calibrated.work_per_iteration > 0
            assert static_server._place(key, static) == (
                calibrated_server._place(key, calibrated)
            )
            if static_server._scheduler is not None:
                assert static_server._scheduler.schedule(
                    static, chain_works
                ) == calibrated_server._scheduler.schedule(
                    calibrated, chain_works
                )
        assert static_server._scheduler is not None


def test_no_sampler_runs_on_the_placement_path(monkeypatch):
    """An `mh` job is placed and finished with `run_chains` unusable: the
    only sampler that runs for a job is the job's own."""
    import repro.inference
    import repro.inference.chain

    def no_calibration(*args, **kwargs):
        raise AssertionError("a calibration sampler ran on the serving path")

    monkeypatch.setattr(repro.inference.chain, "run_chains", no_calibration)
    monkeypatch.setattr(repro.inference, "run_chains", no_calibration)
    with InferenceServer(n_workers=2) as server:
        job = server.submit(FULL_BUDGET_SPEC)
        server.run_until_drained()
    assert job.state is JobState.DONE, job.error
    assert job.placement.platform == "Skylake"
    assert not job.placement.predictor_fitted


def test_a_small_scale_does_not_poison_the_full_scale_placement():
    """tickets@0.05 is benign, tickets@1.0 is LLC-bound; they are two
    characterization points (as the -h/-q variants are in Fig. 3), not one
    point reused under the shared workload name."""
    with InferenceServer(n_workers=1) as server:
        placements = {}
        for scale in (0.05, 1.0):
            spec = JobSpec(workload="tickets", scale=scale)
            placements[scale] = server._place(
                server._cache_key(spec), server._profile(spec)
            )
    small, full = placements[0.05], placements[1.0]
    assert (small.platform, small.predicted_llc_bound) == ("Skylake", False)
    assert not small.predictor_fitted
    assert (full.platform, full.predicted_llc_bound) == ("Broadwell", True)
    assert full.predictor_fitted
    assert full.predicted_mpki >= 1.0


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
