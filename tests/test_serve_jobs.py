"""Unit tests for the serve subsystem's job/queue/store/monitor plumbing.

Everything here is cheap (no sampling, no subprocesses); the execution paths
are covered by test_serve_determinism.py and test_serve_server.py.
"""

import numpy as np
import pytest

from repro.serve import (
    AdmissionError,
    CheckpointStore,
    ConvergenceMonitor,
    Job,
    JobQueue,
    JobSpec,
    JobState,
    ResultStore,
    StoredResult,
)


class TestJobSpec:
    def test_key_is_stable_and_ignores_scheduling_fields(self):
        a = JobSpec(workload="votes", seed=1, priority=0)
        b = JobSpec(workload="votes", seed=1, priority=9,
                    checkpoint_interval=50)
        assert a.key() == b.key()

    def test_key_distinguishes_result_determining_fields(self):
        base = JobSpec(workload="votes", seed=1)
        assert base.key() != JobSpec(workload="votes", seed=2).key()
        assert base.key() != JobSpec(workload="votes", seed=1, scale=0.5).key()
        assert base.key() != JobSpec(workload="votes", seed=1,
                                     engine="mh").key()
        assert base.key() != JobSpec(workload="votes", seed=1,
                                     elide=False).key()

    def test_mode_is_part_of_the_key(self):
        # Regression: a fast (surrogate) result stored under the same key
        # as an exact submission would silently answer full-MCMC requests
        # with approximate draws. The serving mode must split the keys.
        base = JobSpec(workload="votes", seed=1)
        assert base.mode == "exact"
        keys = {base.with_mode(mode).key()
                for mode in ("fast", "checked", "exact")}
        assert len(keys) == 3

    def test_with_mode_preserves_sampling_identity(self):
        spec = JobSpec(workload="votes", mode="fast", seed=3, priority=2)
        assert spec.with_mode("fast") is spec
        twin = spec.with_mode("exact")
        assert twin.key() == JobSpec(workload="votes", seed=3).key()
        assert twin.priority == spec.priority

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown serving mode"):
            JobSpec(workload="votes", mode="turbo")

    def test_explicit_warmup_equals_default_half(self):
        implicit = JobSpec(workload="votes", n_iterations=100)
        explicit = JobSpec(workload="votes", n_iterations=100, n_warmup=50)
        assert implicit.key() == explicit.key()

    def test_roundtrips_through_dict(self):
        spec = JobSpec(workload="ad", engine="hmc", n_iterations=64,
                       engine_options={"n_leapfrog": 8}, priority=2)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key() == spec.key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"workload": "votes", "n_iter": 10})

    def test_validates(self):
        with pytest.raises(ValueError):
            JobSpec(workload="votes", n_iterations=1)
        with pytest.raises(ValueError):
            JobSpec(workload="votes", engine="gibbs")
        with pytest.raises(ValueError):
            JobSpec(workload="votes", n_iterations=10, n_warmup=10)

    def test_build_sampler_applies_options(self):
        spec = JobSpec(workload="votes", engine="nuts",
                       engine_options={"max_tree_depth": 3})
        assert spec.build_sampler().max_tree_depth == 3


class TestJobLifecycle:
    def test_legal_path(self):
        job = Job(JobSpec(workload="votes"))
        assert job.state is JobState.QUEUED
        job.transition(JobState.RUNNING)
        job.transition(JobState.CONVERGED)
        assert job.state.terminal

    def test_illegal_transitions_raise(self):
        job = Job(JobSpec(workload="votes"))
        with pytest.raises(ValueError, match="illegal job transition"):
            job.transition(JobState.CONVERGED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        with pytest.raises(ValueError):
            job.transition(JobState.RUNNING)

    def test_fail_records_error(self):
        job = Job(JobSpec(workload="votes"))
        job.transition(JobState.RUNNING)
        job.fail("boom")
        assert job.state is JobState.FAILED
        assert job.error == "boom"


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        low = queue.push(Job(JobSpec(workload="votes", seed=1, priority=0)))
        high = queue.push(Job(JobSpec(workload="votes", seed=2, priority=5)))
        mid_a = queue.push(Job(JobSpec(workload="votes", seed=3, priority=2)))
        mid_b = queue.push(Job(JobSpec(workload="votes", seed=4, priority=2)))
        assert [queue.pop() for _ in range(4)] == [high, mid_a, mid_b, low]
        assert queue.pop() is None

    def test_admission_control(self):
        queue = JobQueue(max_pending=2)
        queue.push(Job(JobSpec(workload="votes", seed=1)))
        queue.push(Job(JobSpec(workload="votes", seed=2)))
        with pytest.raises(AdmissionError):
            queue.push(Job(JobSpec(workload="votes", seed=3)))

    def test_duplicate_submissions_fold(self):
        queue = JobQueue(max_pending=1)
        first = queue.push(Job(JobSpec(workload="votes", seed=1)))
        again = queue.push(Job(JobSpec(workload="votes", seed=1)))
        assert again is first
        assert len(queue) == 1


class TestResultStore:
    def _record(self, spec):
        from repro.inference.results import ChainResult, SamplingResult

        chain = ChainResult(
            samples=np.zeros((4, 2)), logps=np.zeros(4),
            work_per_iteration=np.ones(4), n_warmup=2, accept_rate=1.0,
        )
        return StoredResult(
            spec=spec,
            result=SamplingResult(model_name="m", chains=[chain]),
        )

    def test_memory_roundtrip(self):
        store = ResultStore()
        spec = JobSpec(workload="votes")
        assert spec.key() not in store
        store.put(spec.key(), self._record(spec))
        assert store.get(spec.key()).spec == spec

    def test_disk_roundtrip(self, tmp_path):
        spec = JobSpec(workload="votes")
        writer = ResultStore(directory=str(tmp_path))
        writer.put(spec.key(), self._record(spec))
        # A fresh store over the same directory sees the record.
        reader = ResultStore(directory=str(tmp_path))
        assert spec.key() in reader
        loaded = reader.get(spec.key())
        assert loaded.spec == spec
        assert loaded.result.n_chains == 1

    def test_truncated_pickle_skipped_with_warning(self, tmp_path):
        spec = JobSpec(workload="votes")
        writer = ResultStore(directory=str(tmp_path))
        writer.put(spec.key(), self._record(spec))
        # Tear the file the way an interrupted copy would.
        path = tmp_path / f"{spec.key()}.pkl"
        path.write_bytes(path.read_bytes()[:20])
        reader = ResultStore(directory=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="job will be recomputed"):
            assert reader.get(spec.key()) is None
        with pytest.warns(RuntimeWarning):
            assert spec.key() not in reader  # recomputation path: a miss

    def test_garbage_bytes_skipped_with_warning(self, tmp_path):
        spec = JobSpec(workload="votes")
        path = tmp_path / f"{spec.key()}.pkl"
        path.write_bytes(b"\x00not a pickle at all")
        reader = ResultStore(directory=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="job will be recomputed"):
            assert reader.get(spec.key()) is None

    def test_wrong_payload_type_skipped_with_warning(self, tmp_path):
        import pickle

        spec = JobSpec(workload="votes")
        path = tmp_path / f"{spec.key()}.pkl"
        path.write_bytes(pickle.dumps({"not": "a StoredResult"}))
        reader = ResultStore(directory=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="unexpected payload"):
            assert reader.get(spec.key()) is None

    def test_corrupt_record_recomputes_and_heals(self, tmp_path):
        # A corrupt cache entry must not wedge the key: put() overwrites
        # it and subsequent gets are clean again.
        spec = JobSpec(workload="votes")
        path = tmp_path / f"{spec.key()}.pkl"
        path.write_bytes(b"torn")
        store = ResultStore(directory=str(tmp_path))
        with pytest.warns(RuntimeWarning):
            assert store.get(spec.key()) is None
        store.put(spec.key(), self._record(spec))
        assert store.get(spec.key()).spec == spec


class TestCheckpointStore:
    def test_roundtrip_and_latest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.latest_iteration("job", 0) == -1
        draws = np.arange(12.0).reshape(6, 2)
        store.save_chain("job", 0, samples=draws, iteration=5,
                         n_warmup=2, n_iterations=10)
        store.save_chain("job", 1, samples=draws[:3], iteration=2,
                         n_warmup=2, n_iterations=10)
        assert store.latest_iteration("job", 0) == 5
        loaded = store.load_job("job")
        assert sorted(loaded) == [0, 1]
        np.testing.assert_array_equal(loaded[0]["samples"], draws)
        assert int(loaded[1]["iteration"]) == 2
        store.discard_job("job")
        assert store.load_job("job") == {}


class TestConvergenceMonitor:
    def test_detects_on_mixed_chains(self):
        rng = np.random.default_rng(0)
        monitor = ConvergenceMonitor(n_chains=2, dim=1, check_interval=10,
                                     min_kept=20)
        decided = None
        for block in range(6):
            for chain in range(2):
                draws = rng.normal(size=(10, 1))
                out = monitor.observe(chain, draws)
                if out is not None:
                    decided = out
        assert decided == 20
        assert monitor.converged_kept == 20
        # A checkpoint fires once, at its own horizon.
        assert monitor.checkpoints == [20]

    def test_does_not_fire_on_disjoint_chains(self):
        rng = np.random.default_rng(0)
        monitor = ConvergenceMonitor(n_chains=2, dim=1, check_interval=10,
                                     min_kept=10)
        for _ in range(5):
            monitor.observe(0, rng.normal(0.0, 1.0, size=(10, 1)))
            assert monitor.observe(1, rng.normal(50.0, 1.0, size=(10, 1))) is None
        assert not monitor.converged
        assert all(r >= monitor.rhat_threshold for r in monitor.rhat_trace)

    def test_waits_for_all_chains(self):
        monitor = ConvergenceMonitor(n_chains=2, dim=1, check_interval=10,
                                     min_kept=10)
        rng = np.random.default_rng(1)
        # Chain 0 races far ahead; no check can fire until chain 1 catches up.
        assert monitor.observe(0, rng.normal(size=(40, 1))) is None
        assert monitor.checkpoints == []
        out = monitor.observe(1, rng.normal(size=(40, 1)))
        assert out == 10
        assert monitor.rhat_trace[0] < monitor.rhat_threshold

    def test_requires_two_chains(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor(n_chains=1, dim=2)
