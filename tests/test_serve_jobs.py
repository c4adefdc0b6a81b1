"""Unit tests for the serve subsystem's job/queue/store/monitor plumbing.

Everything here is cheap (no sampling, no subprocesses); the execution paths
are covered by test_serve_determinism.py and test_serve_server.py.
"""

import numpy as np
import pytest

from repro.core.elision import StopRule
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

#: Stop-rule fields a JSON body can get wrong; ``JobSpec`` rejects each.
MALFORMED_STOP_RULE_FIELDS = [
    {"check_interval": "20"},
    {"min_kept": "40"},
    {"check_interval": 2.5},
    {"min_kept": float("nan")},
    {"elide": "false"},
]


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

    @pytest.mark.parametrize("field", MALFORMED_STOP_RULE_FIELDS)
    def test_rejects_malformed_stop_rule_fields(self, field):
        with pytest.raises(ValueError):
            JobSpec.from_dict(dict(workload="votes", **field))

    @pytest.mark.parametrize("field", [
        {"check_interval": 20.0}, {"min_kept": True},
        {"check_interval": 0}, {"check_interval": True},
        {"min_kept": -1}, {"min_kept": 4.0}, {"elide": 1},
    ])
    def test_rejects_stop_rule_fields_without_coercing(self, field):
        with pytest.raises(ValueError):
            JobSpec(workload="votes", **field)

    def test_stop_rule_is_the_specs(self):
        spec = JobSpec(workload="votes", check_interval=10, min_kept=0)
        assert spec.stop_rule == StopRule(check_interval=10, min_kept=0)

    @pytest.mark.parametrize("constant", ["RHAT_BELOW", "ESS_AT_LEAST"])
    def test_the_systems_thresholds_are_part_of_an_elided_key(
        self, monkeypatch, constant,
    ):
        # A stored answer elided under another rule must be a miss; a job
        # that never elides does not depend on the rule.
        from repro.core import elision

        elided, full = (JobSpec(workload="votes", elide=e) for e in (True, False))
        rule, keys = elided.stop_rule, (elided.key(), full.key())
        monkeypatch.setattr(elision, constant, getattr(elision, constant) * 2)
        assert JobSpec(workload="votes").stop_rule != rule
        assert JobSpec(workload="votes").key() != keys[0]
        assert JobSpec(workload="votes", elide=False).key() == keys[1]

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
        assert store.load_chain("job", 0) is None
        draws = np.arange(12.0).reshape(6, 2)
        store.save_chain("job", 0, samples=draws, iteration=5,
                         n_warmup=2, n_iterations=10)
        store.save_chain("job", 1, samples=draws[:3], iteration=2,
                         n_warmup=2, n_iterations=10)
        loaded = [store.load_chain("job", chain) for chain in (0, 1)]
        assert int(loaded[0]["iteration"]) == 5
        np.testing.assert_array_equal(loaded[0]["samples"], draws)
        assert int(loaded[1]["iteration"]) == 2
        store.discard_job("job")
        assert store.load_chain("job", 0) is store.load_chain("job", 1) is None


def _monitor(check_interval, min_kept, n_chains=2, budget=60):
    # The paper's rule (no ESS floor): these cases are about the monitor's
    # plumbing; the floor is tested in test_core_elision.py.
    rule = StopRule(
        ess_at_least=0, check_interval=check_interval, min_kept=min_kept,
    )
    return ConvergenceMonitor(rule.live(n_chains, budget, 1))


class TestConvergenceMonitor:
    def test_detects_on_mixed_chains(self):
        rng = np.random.default_rng(0)
        monitor = _monitor(check_interval=10, min_kept=20)
        evaluated = []
        for block in range(6):
            for chain in range(2):
                draws = rng.normal(size=(10, 1))
                evaluated += monitor.observe(chain, draws)
        assert monitor.report.converged_iteration == 20
        # A checkpoint fires once, at its own horizon.
        assert monitor.report.checkpoints == [20]
        assert [kept for kept, _ in evaluated] == [20]

    def test_does_not_fire_on_disjoint_chains(self):
        rng = np.random.default_rng(0)
        monitor = _monitor(check_interval=10, min_kept=10, budget=50)
        for _ in range(5):
            monitor.observe(0, rng.normal(0.0, 1.0, size=(10, 1)))
            monitor.observe(1, rng.normal(50.0, 1.0, size=(10, 1)))
        assert not monitor.report.converged
        assert monitor.report.checkpoints == [10, 20, 30, 40, 50]
        assert all(r >= 1.1 for r in monitor.report.trace)

    def test_waits_for_all_chains(self):
        monitor = _monitor(check_interval=10, min_kept=10, budget=40)
        rng = np.random.default_rng(1)
        # Chain 0 races far ahead; no check can fire until chain 1 catches up.
        assert monitor.observe(0, rng.normal(size=(40, 1))) == []
        assert monitor.report.checkpoints == []
        evaluated = monitor.observe(1, rng.normal(size=(40, 1)))
        # Every checkpoint it brought due fires now, in order, to the stop.
        stop = monitor.report.converged_iteration
        assert [kept for kept, _ in evaluated] == list(range(10, stop + 1, 10))
        assert [rhat for _, rhat in evaluated] == monitor.report.trace
        assert monitor.report.trace[-1] < 1.1

    def test_requires_two_chains(self):
        with pytest.raises(ValueError):
            _monitor(check_interval=20, min_kept=40, n_chains=1)
