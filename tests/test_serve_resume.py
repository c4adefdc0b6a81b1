"""Deterministic chain resume: snapshot → restore is bit-identical.

The serving layer's fault tolerance rests on an extension of the prefix
determinism guarantee: a chain interrupted at iteration ``t`` and resumed
from its sampler-state snapshot (RNG bit-generator state, position, cached
density/gradient, adaptation state) must produce *exactly* the draws of an
uninterrupted run — not statistically equivalent ones. These tests pin that
property for every engine, through every adaptation window, and through the
v2 checkpoint file format the workers persist snapshots in.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.inference.chain import chain_start
from repro.inference.engines import build_engine
from repro.inference.results import StateCapture
from repro.serve.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.serve.workers import ChainTask, execute_chain
from repro.suite import load_workload

N_ITERATIONS = 40
N_WARMUP = 20

ENGINES = ["mh", "slice", "hmc", "nuts"]
#: Interruption points spanning the adaptation schedule: mid-warmup before
#: the first mass-matrix refresh (t+1 = 8), between refreshes (14), and
#: after warmup with adaptation frozen (29).
STOP_POINTS = [8, 14, 29]


@pytest.fixture(scope="module")
def model():
    return load_workload("votes", scale=0.25)


def _run_full(engine: str, model, seed: int = 5):
    sampler = build_engine(engine)
    rng, x0 = chain_start(model, seed, 0)
    return sampler.sample_chain(model, x0, N_ITERATIONS, rng, n_warmup=N_WARMUP)


def _snapshot_at(engine: str, model, stop: int, seed: int = 5) -> dict:
    """Run until iteration ``stop`` completes, then capture sampler state."""
    sampler = build_engine(engine)
    capture = StateCapture()
    taken = {}

    def hook(t, draw):
        if t + 1 == stop:
            taken["state"] = capture()
            return False
        return True

    rng, x0 = chain_start(model, seed, 0)
    sampler.sample_chain(
        model, x0, N_ITERATIONS, rng,
        n_warmup=N_WARMUP, iteration_hook=hook, state_capture=capture,
    )
    return taken["state"]


def _assert_chains_identical(resumed, full, engine: str):
    np.testing.assert_array_equal(resumed.samples, full.samples)
    np.testing.assert_array_equal(resumed.logps, full.logps)
    np.testing.assert_array_equal(
        resumed.work_per_iteration, full.work_per_iteration
    )
    assert resumed.accept_rate == full.accept_rate
    assert resumed.divergences == full.divergences
    assert resumed.step_size == full.step_size
    if engine == "nuts":
        np.testing.assert_array_equal(resumed.tree_depths, full.tree_depths)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("stop", STOP_POINTS)
def test_resume_is_bit_identical(engine, stop, model):
    state = _snapshot_at(engine, model, stop)
    assert state["t"] == stop - 1
    sampler = build_engine(engine)
    rng, x0 = chain_start(model, 5, 0)
    resumed = sampler.sample_chain(
        model, x0, N_ITERATIONS, rng, n_warmup=N_WARMUP, resume_state=state,
    )
    _assert_chains_identical(resumed, _run_full(engine, model), engine)


def test_snapshot_rejects_wrong_engine(model):
    state = _snapshot_at("mh", model, 10)
    sampler = build_engine("hmc")
    rng, x0 = chain_start(model, 5, 0)
    with pytest.raises(ValueError, match="engine"):
        sampler.sample_chain(
            model, x0, N_ITERATIONS, rng, n_warmup=N_WARMUP,
            resume_state=state,
        )


def test_snapshot_rejects_oversized_prefix(model):
    state = _snapshot_at("mh", model, 30)
    sampler = build_engine("mh")
    rng, x0 = chain_start(model, 5, 0)
    with pytest.raises(ValueError, match="does not cover"):
        # A 30-iteration prefix cannot resume a 20-iteration budget.
        sampler.sample_chain(model, x0, 20, rng, n_warmup=10,
                             resume_state=state)


def test_unbound_state_capture_raises():
    capture = StateCapture()
    assert not capture.bound
    with pytest.raises(RuntimeError, match="no sampler has bound"):
        capture()


class TestCheckpointV2:
    def _save(self, store, model, stop=14, job_id="job-a", engine="mh"):
        state = _snapshot_at(engine, model, stop)
        return store.save_chain(
            job_id, 0,
            samples=state["samples"], iteration=int(state["t"]),
            n_warmup=N_WARMUP, n_iterations=N_ITERATIONS,
            logps=state["logps"], work=state["work"], sampler_state=state,
        ), state

    def test_roundtrip_preserves_sampler_state(self, tmp_path, model):
        store = CheckpointStore(str(tmp_path))
        _, state = self._save(store, model)
        record = store.load_chain("job-a", 0)
        assert int(record["version"]) == CHECKPOINT_VERSION
        assert int(record["iteration"]) == 13
        np.testing.assert_array_equal(record["samples"], state["samples"])
        np.testing.assert_array_equal(record["logps"], state["logps"])
        restored = record["sampler_state"]
        assert restored["engine"] == "mh"
        assert restored["rng"] == state["rng"]
        assert restored["scale"] == state["scale"]
        assert store.resume_path("job-a", 0) is not None

    def test_temp_file_does_not_match_recovery_glob(self, tmp_path, model):
        """The v1 bug: with_suffix(".tmp.npz") yields chain-000.tmp.npz,
        which chain-*.npz picks up as a bogus extra chain."""
        store = CheckpointStore(str(tmp_path))
        self._save(store, model)
        job_dir = tmp_path / "job-a"
        assert sorted(p.name for p in job_dir.iterdir()) == ["chain-000.npz"]
        # Even with a stray temp left by a crash mid-write, recovery sees
        # exactly one chain.
        (job_dir / "chain-000.npz.tmp").write_bytes(b"torn write")
        assert list(job_dir.glob("chain-*.npz")) == [job_dir / "chain-000.npz"]

    def test_corrupt_checkpoint_is_skipped_with_warning(self, tmp_path, model):
        store = CheckpointStore(str(tmp_path))
        path, _ = self._save(store, model)
        path.write_bytes(path.read_bytes()[:64])  # torn write
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            assert store.load_chain("job-a", 0) is None
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            assert store.resume_path("job-a", 0) is None

    def test_v1_checkpoint_still_loads_without_resume(self, tmp_path, model):
        store = CheckpointStore(str(tmp_path))
        store.save_chain("job-b", 1, samples=np.zeros((5, 2)), iteration=4,
                         n_warmup=2, n_iterations=10)
        record = store.load_chain("job-b", 1)
        assert int(record["iteration"]) == 4
        assert "sampler_state" not in record
        assert store.resume_path("job-b", 1) is None

    def test_discard_removes_strays_and_tolerates_missing(self, tmp_path, model):
        store = CheckpointStore(str(tmp_path))
        self._save(store, model)
        job_dir = tmp_path / "job-a"
        (job_dir / "chain-001.npz.tmp").write_bytes(b"")
        (job_dir / "chain-002.tmp.npz").write_bytes(b"")  # v1-era stray
        store.discard_job("job-a")
        assert not job_dir.exists()
        store.discard_job("job-a")  # second discard: no error
        store.discard_job("never-existed")


class TestExecuteChainResume:
    def _task(self, tmp_path, **overrides):
        base = dict(
            job_id="resume-e2e", chain_index=0, workload="votes", scale=0.25,
            dataset_seed=None, engine="mh", engine_options={},
            n_iterations=N_ITERATIONS, n_warmup=N_WARMUP, seed=5,
            initial_jitter=1.0, report_interval=10,
            checkpoint_interval=10, checkpoint_dir=str(tmp_path),
        )
        base.update(overrides)
        return ChainTask(**base)

    def test_resume_from_checkpoint_matches_uninterrupted_run(
        self, tmp_path, model
    ):
        task = self._task(tmp_path)
        # Interrupt at iteration 25: the last checkpoint covers t = 19.
        execute_chain(task, stop_iteration=lambda: 25)
        store = CheckpointStore(str(tmp_path))
        resume_from = store.resume_path("resume-e2e", 0)
        assert resume_from is not None
        assert CheckpointStore._read(Path(resume_from))["iteration"] == 24

        emitted = []
        resumed = execute_chain(
            dataclasses.replace(task, resume_from=resume_from),
            emit=lambda chain, block: emitted.append(np.atleast_2d(block)),
        )
        full = execute_chain(self._task(tmp_path, job_id="fresh"))
        _assert_chains_identical(resumed, full, "mh")
        # The restored kept prefix was re-emitted before new draws, so a
        # reset monitor sees the exact stream of an uninterrupted run.
        streamed = np.concatenate(emitted)
        np.testing.assert_array_equal(streamed, full.samples[N_WARMUP:])

    def test_corrupt_resume_checkpoint_falls_back_to_fresh_run(
        self, tmp_path, model
    ):
        task = self._task(tmp_path)
        execute_chain(task, stop_iteration=lambda: 25)
        store = CheckpointStore(str(tmp_path))
        resume_from = store.resume_path("resume-e2e", 0)
        path = store._path("resume-e2e", 0)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            recovered = execute_chain(
                dataclasses.replace(task, resume_from=resume_from)
            )
        full = execute_chain(self._task(tmp_path, job_id="fresh"))
        _assert_chains_identical(recovered, full, "mh")

    def test_engine_mismatch_falls_back_to_fresh_run(self, tmp_path, model):
        task = self._task(tmp_path)
        execute_chain(task, stop_iteration=lambda: 25)
        resume_from = CheckpointStore(str(tmp_path)).resume_path("resume-e2e", 0)
        slice_task = self._task(
            tmp_path, engine="slice", resume_from=resume_from,
            checkpoint_interval=0,
        )
        with pytest.warns(RuntimeWarning, match="restarting chain fresh"):
            recovered = execute_chain(slice_task)
        full = execute_chain(
            self._task(tmp_path, job_id="fresh-slice", engine="slice",
                       checkpoint_interval=0)
        )
        _assert_chains_identical(recovered, full, "slice")
