"""Batched-replay bit-identity battery: repro.batch must not change a draw.

Every BayesSuite workload is sampled with HMC and NUTS twice from identical
seeds — once chain-at-a-time on the solo compiled-tape path, once through
the batched round loop (:class:`repro.batch.driver.BatchedChainDriver`).
The acceptance bar is ``np.array_equal`` on draws *and* logps: batching may
only change when evaluations happen, never what they return. MH and slice
go through the same round loop with their lanes answered solo, and must
match too. The battery also pins the property through the hard cases:
resume from a sampler-state snapshot, a chain stopping mid-run while the
others go on, and the serve worker pool's batched job path (halt,
deadline, poison semantics included).
"""

import dataclasses
import time

import numpy as np
import pytest

from repro import batch
from repro.batch.driver import (
    BatchedChainDriver,
    lane_evaluator,
    run_chains_batched,
)
from repro.batch.engine import BatchedEvaluator
from repro.inference.chain import SoloEvaluator, chain_start, run_chains
from repro.inference.engines import build_engine
from repro.inference.hmc import HMC
from repro.inference.nuts import NUTS
from repro.inference.results import StateCapture
from repro.resilience import chaos
from repro.serve import JobSpec, parallel_run_chains
from repro.serve.checkpoint import CheckpointStore
from repro.serve.workers import (
    ChainExecutionError,
    ChainTask,
    ChainWorkerPool,
    JobDeadlineExceeded,
    JobHalted,
    chain_tasks,
    execute_chain,
    truncate_chain,
)
from repro.suite.registry import load_workload, workload_names

SCALE = 0.25
SEED = 11
N_ITERATIONS = 16

ENGINES = {
    "hmc": lambda: HMC(n_leapfrog=8),
    "nuts": lambda: NUTS(max_tree_depth=6),
}

#: The ODE workload integrates a six-state sensitivity system per gradient
#: evaluation — minutes per cell. Nightly, like its compiled-tape cells.
_SLOW_CELLS = {("ode", "hmc"), ("ode", "nuts")}


def _matrix():
    cases = []
    for workload in workload_names():
        for engine in ENGINES:
            marks = (
                (pytest.mark.slow,)
                if (workload, engine) in _SLOW_CELLS else ()
            )
            cases.append(
                pytest.param(workload, engine, marks=marks,
                             id=f"{workload}-{engine}")
            )
    return cases


def _run_batched(
    model, sampler, n_iterations, n_chains, seed,
    hooks=None, resume_states=None,
):
    """Drive chains through the round loop over the evaluator
    :func:`lane_evaluator` picks for ``sampler``; (chains, stats)."""
    evaluator = lane_evaluator(model, n_chains, sampler.gradient)
    driver = BatchedChainDriver(evaluator)
    for chain_index in range(n_chains):
        rng, x0 = chain_start(model, seed, chain_index, 1.0)
        gen = sampler.sample_steps(
            x0, n_iterations, rng,
            iteration_hook=hooks.get(chain_index) if hooks else None,
            resume_state=(
                resume_states.get(chain_index) if resume_states else None
            ),
        )
        driver.submit(chain_index, gen)
    results = driver.run()
    stats = dict(getattr(evaluator, "stats", {}))
    if getattr(evaluator, "engine", None) is not None:
        stats["vector_instructions"] = evaluator.engine.n_vector
    return [results[c] for c in range(n_chains)], stats


def _snapshots(model, sampler, n_iterations, seed, stops):
    """Each chain's sampler snapshot at its own interruption point
    (chain index → the iteration count it stopped at)."""
    states = {}
    for chain_index, stop in stops.items():
        capture = StateCapture()
        taken = {}

        def hook(t, draw, stats=None, stop=stop, taken=taken, capture=capture):
            if t + 1 == stop:
                taken["state"] = capture()
                return False
            return True

        rng, x0 = chain_start(model, seed, chain_index, 1.0)
        sampler.sample_chain(
            model, x0, n_iterations, rng,
            iteration_hook=hook, state_capture=capture,
        )
        states[chain_index] = taken["state"]
    return states


def _assert_identical(solo_chains, batched_chains, context):
    for solo, batched in zip(solo_chains, batched_chains):
        assert np.array_equal(solo.samples, batched.samples), (
            f"{context}: batched draws differ from solo"
        )
        assert np.array_equal(solo.logps, batched.logps, equal_nan=True), (
            f"{context}: batched logps differ from solo"
        )
        assert np.array_equal(
            solo.work_per_iteration, batched.work_per_iteration
        ), f"{context}: batched work counts differ from solo"


@pytest.mark.parametrize("workload,engine", _matrix())
def test_batched_draws_bit_identical(workload, engine):
    model = load_workload(workload, scale=SCALE)
    sampler = ENGINES[engine]()
    solo = run_chains(
        model, sampler, n_iterations=N_ITERATIONS, n_chains=2, seed=SEED
    )
    batched, stats = _run_batched(
        model, sampler, N_ITERATIONS, n_chains=2, seed=SEED
    )
    _assert_identical(solo.chains, batched, f"{workload}/{engine}")
    # Non-vacuity: the batched engine must actually have run rounds over
    # the batch axis (a silent permanent solo fallback would pass the
    # equality trivially).
    assert stats["batched_rounds"] > 0, (
        f"{workload}/{engine}: driver never evaluated a batch "
        f"(stats={stats})"
    )
    assert stats.get("vector_instructions", 0) > 0, (
        f"{workload}/{engine}: no instruction vectorized (stats={stats})"
    )


def test_run_chains_batched_matches_run_chains():
    """The public entry point, including SamplingResult assembly."""
    model = load_workload("12cities", scale=SCALE)
    for sampler in (HMC(n_leapfrog=8), NUTS(max_tree_depth=6)):
        solo = run_chains(model, sampler, 20, n_chains=3, seed=3)
        batched = run_chains_batched(model, sampler, 20, n_chains=3, seed=3)
        _assert_identical(
            solo.chains, batched.chains, type(sampler).__name__
        )
        assert batched.param_names == solo.param_names


def test_early_stopped_lane_frees_mid_run():
    """A chain whose hook stops it early drops out of the rounds mid-run;
    the surviving chains are unaffected."""
    model = load_workload("12cities", scale=SCALE)
    sampler = HMC(n_leapfrog=8)

    def make_hooks():
        return {0: lambda t, draw, stats=None: t + 1 < 6}

    solo_chains = []
    for chain_index in range(4):
        rng, x0 = chain_start(model, 4, chain_index, 1.0)
        solo_chains.append(
            sampler.sample_chain(
                model, x0, 18, rng,
                iteration_hook=make_hooks().get(chain_index),
            )
        )
    batched, stats = _run_batched(
        model, sampler, 18, n_chains=4, seed=4, hooks=make_hooks()
    )
    assert batched[0].n_iterations == 6
    _assert_identical(solo_chains, batched, "early-stop")
    # The stopped chain's lane sat masked out of the later rounds.
    assert stats["lane_evals"] < 4 * stats["batched_rounds"]


def test_driver_takes_one_chain_per_lane():
    model = load_workload("12cities", scale=SCALE)
    driver = BatchedChainDriver(BatchedEvaluator(model, 1))
    driver.submit(0, iter(()))
    with pytest.raises(ValueError, match="lanes"):
        driver.submit(1, iter(()))


def test_an_evaluation_that_raises_is_thrown_into_the_chains_that_asked():
    """As a solo evaluation raises inside its chain, a round's does inside
    every chain that asked — where a served lane turns it into that
    chain's ``error`` event instead of losing the worker."""

    class Raising:
        width = 2

        def evaluate(self, xs):
            raise FloatingPointError("evaluation failed")

    def chain():
        try:
            yield np.zeros(1)
        except FloatingPointError as exc:
            return str(exc)

    driver = BatchedChainDriver(Raising())
    driver.submit(0, chain())
    driver.submit(1, chain())
    assert driver.run() == dict.fromkeys((0, 1), "evaluation failed")


def test_resume_from_snapshot_bit_identical():
    """Chains resumed from mid-run sampler snapshots, driven batched,
    reproduce the uninterrupted solo run exactly."""
    model = load_workload("votes", scale=SCALE)
    for engine, sampler in (
        ("hmc", HMC(n_leapfrog=8)), ("nuts", NUTS(max_tree_depth=6))
    ):
        solo = run_chains(model, sampler, 24, n_chains=2, seed=5)
        # Snapshot each chain at a different interruption point.
        states = _snapshots(model, sampler, 24, 5, {0: 9, 1: 15})
        resumed, stats = _run_batched(
            model, sampler, 24, n_chains=2, seed=5, resume_states=states
        )
        _assert_identical(solo.chains, resumed, f"resume/{engine}")
        assert stats["batched_rounds"] > 0


@pytest.mark.parametrize("engine", ["mh", "slice"])
def test_value_engines_in_the_round_loop_bit_identical(engine):
    """A gradient-free engine through the round loop — its lanes answered
    by the solo value evaluator, no batched replay — draws what
    ``run_chains`` draws, fresh and resumed from mid-run snapshots."""
    model = load_workload("votes", scale=SCALE)
    sampler = build_engine(engine)
    assert isinstance(lane_evaluator(model, 2, sampler.gradient), SoloEvaluator)
    solo = run_chains(model, sampler, 24, n_chains=2, seed=5)
    batched = run_chains_batched(model, sampler, 24, n_chains=2, seed=5)
    _assert_identical(solo.chains, batched.chains, engine)
    states = _snapshots(model, sampler, 24, 5, {0: 9, 1: 15})
    resumed, _ = _run_batched(
        model, sampler, 24, n_chains=2, seed=5, resume_states=states
    )
    _assert_identical(solo.chains, resumed, f"resume/{engine}")


def test_kill_switch_routes_solo():
    """REPRO_BATCH=0 (here: the override) must keep the serve pool on the
    per-chain process path."""
    spec = JobSpec(workload="votes", engine="hmc",
                   engine_options={"n_leapfrog": 4},
                   n_iterations=10, n_chains=2, seed=2, scale=SCALE)
    tasks = chain_tasks(spec, "kill-switch")
    with batch.override(False):
        assert not ChainWorkerPool._batchable(tasks)
    with batch.override(True):
        assert ChainWorkerPool._batchable(tasks)
        # Non-gradient engines and single chains never batch.
        mh = [dataclasses.replace(t, engine="mh") for t in tasks]
        assert not ChainWorkerPool._batchable(mh)
        assert not ChainWorkerPool._batchable(tasks[:1])
        # Heterogeneous jobs (different seeds) fall back too.
        mixed = [tasks[0], dataclasses.replace(tasks[1], seed=99)]
        assert not ChainWorkerPool._batchable(mixed)


def test_armed_fault_plan_is_still_batchable(tmp_path):
    """Placement follows the job's shape, never the injector: the fault
    suites must reach the path production takes."""
    spec = JobSpec(workload="votes", engine="hmc",
                   engine_options={"n_leapfrog": 4},
                   n_iterations=10, n_chains=2, seed=2, scale=SCALE)
    plan = chaos.write_plan(
        str(tmp_path / "plan.json"),
        [chaos.ChaosFault(kind="raise", iteration=3)],
    )
    with chaos.installed(plan), batch.override(True):
        assert chaos.active() is not None
        assert ChainWorkerPool._batchable(chain_tasks(spec, "armed"))


class TestServeBatched:
    """A job as one batched group vs as groups of one, both in workers."""

    def _spec(self, **overrides):
        base = dict(
            workload="12cities", engine="hmc",
            engine_options={"n_leapfrog": 8},
            n_iterations=20, n_chains=3, seed=7, scale=SCALE,
        )
        base.update(overrides)
        return JobSpec(**base)

    def test_batched_job_matches_process_pool(self):
        spec = self._spec()
        with batch.override(False):
            pooled = parallel_run_chains(spec, job_id="pooled")
        with batch.override(True):
            batched = parallel_run_chains(spec, job_id="batched")
        _assert_identical(pooled.chains, batched.chains, "serve/hmc")

    def test_batched_nuts_job_matches_process_pool(self):
        spec = self._spec(engine="nuts", engine_options={}, n_iterations=14)
        with batch.override(False):
            pooled = parallel_run_chains(spec, job_id="pooled-n")
        with batch.override(True):
            batched = parallel_run_chains(spec, job_id="batched-n")
        _assert_identical(pooled.chains, batched.chains, "serve/nuts")

    #: scenario -> the ending both groupings must reach (None: the chains).
    ENDINGS = {
        "complete": None,
        "elision": None,
        "halt": JobHalted,
        "deadline": JobDeadlineExceeded,
        "error": ChainExecutionError,
    }
    ELISION_STOP = 30

    def _through(self, spec, batched, scenario):
        """One job, grouped one way: ``(streamed blocks, outcome)``."""
        blocks = {}

        def on_draws(chain_index, block):
            blocks.setdefault(chain_index, []).append(block)
            return self.ELISION_STOP if scenario == "elision" else None

        pool = ChainWorkerPool(n_workers=2, poll_interval=0.1)
        if scenario == "halt":
            pool.request_halt()
        deadline_at = time.monotonic() - 1.0 if scenario == "deadline" else None
        with batch.override(batched):
            tasks = chain_tasks(spec, f"parity-{scenario}-{int(batched)}")
            assert ChainWorkerPool._batchable(tasks) is batched
            try:
                outcome = pool.run_job(
                    tasks, on_draws=on_draws, deadline_at=deadline_at
                )
            except Exception as exc:  # the ending under comparison
                outcome = exc
            finally:
                pool.shutdown()
        return blocks, outcome

    @pytest.mark.parametrize("scenario", sorted(ENDINGS))
    def test_transports_emit_the_same_events(self, scenario):
        """The same spec as groups of one and as one batched group, each
        in worker processes: the same per-chain stream of ``on_draws``
        blocks, the same chains and the same ending. A cooperative stop
        (halt, deadline) catches each chain wherever it is, so there the
        common ground is that every stream and chain is a prefix of the
        full run."""
        spec = self._spec(
            n_iterations=40, n_warmup=10, check_interval=5,
            initial_jitter=float("nan") if scenario == "error" else 1.0,
        )
        (pool_blocks, pooled), (lane_blocks, lanes) = (
            self._through(spec, batched, scenario) for batched in (False, True)
        )
        ending = self.ENDINGS[scenario]
        if ending is None:
            assert isinstance(pooled, list) and isinstance(lanes, list)
        else:
            assert type(pooled) is ending and type(lanes) is ending
        if scenario == "error":
            assert pooled.kinds == lanes.kinds == dict.fromkeys(range(3), "poison")
            assert not pool_blocks and not lane_blocks
            return

        reference = [
            execute_chain(task) for task in chain_tasks(spec, "parity-ref")
        ]
        # A chain in a worker may run a few iterations past the elision
        # stop before the broadcast reaches it; the result is cut at the
        # stop (as the server cuts it), so compare there.
        cut = self.ELISION_STOP if scenario == "elision" else spec.n_iterations
        kept = cut - spec.resolved_warmup
        for index, full in enumerate(reference):
            streams = [
                np.concatenate(blocks[index])[:kept] if index in blocks
                else np.empty((0, full.samples.shape[1]))
                for blocks in (pool_blocks, lane_blocks)
            ]
            chains = [
                truncate_chain(c, cut)
                for c in (getattr(pooled, "chains", pooled)[index],
                          getattr(lanes, "chains", lanes)[index])
            ]
            for stream, chain in zip(streams, chains):
                n = chain.n_iterations
                assert np.array_equal(chain.samples, full.samples[:n])
                assert np.array_equal(
                    stream, full.samples[spec.resolved_warmup:n]
                )
            if ending is None:
                assert chains[0].n_iterations == chains[1].n_iterations == cut
                sizes = [
                    [len(b) for b in blocks[index]][:kept // spec.check_interval]
                    for blocks in (pool_blocks, lane_blocks)
                ]
                assert sizes[0] == sizes[1] == [spec.check_interval] * len(sizes[0])

    def test_halt_raises_job_halted_with_partial_chains(self):
        pool = ChainWorkerPool(n_workers=1)
        pool.request_halt()
        with batch.override(True):
            with pytest.raises(JobHalted) as excinfo:
                pool.run_job(chain_tasks(self._spec(), "halted-job"))
        chains = excinfo.value.chains
        assert len(chains) == 3
        assert all(c.n_iterations < 20 for c in chains)
        pool.clear_halt()
        pool.shutdown()

    def test_deadline_raises_with_partial_chains(self):
        pool = ChainWorkerPool(n_workers=1)
        with batch.override(True):
            with pytest.raises(JobDeadlineExceeded) as excinfo:
                pool.run_job(
                    chain_tasks(self._spec(), "deadline-job"),
                    deadline_at=time.monotonic() - 1.0,
                )
        assert len(excinfo.value.chains) == 3
        pool.shutdown()

    def test_poison_chain_fails_fast(self):
        spec = self._spec(initial_jitter=float("nan"))
        pool = ChainWorkerPool(n_workers=1)
        with batch.override(True):
            with pytest.raises(ChainExecutionError) as excinfo:
                pool.run_job(chain_tasks(spec, "poison-job"))
        assert excinfo.value.poison
        pool.shutdown()

    def test_checkpoint_resume_through_batched_pool(self, tmp_path):
        """Halt a checkpointing batched job mid-run, resume it batched,
        and match the uninterrupted per-chain reference."""
        spec = self._spec(n_iterations=24, checkpoint_interval=6)
        pool = ChainWorkerPool(n_workers=1)
        store = CheckpointStore(str(tmp_path))
        with batch.override(True):
            tasks = chain_tasks(spec, "ckpt-job", checkpoint_dir=str(tmp_path))
            # Stop every chain at iteration 12 via the elision seam.
            with pytest.raises(JobHalted):
                pool.request_halt()
                try:
                    pool.run_job(tasks)
                finally:
                    pool.clear_halt()
            for task in tasks:
                assert store.resume_path("ckpt-job", task.chain_index)
            resumed = pool.run_job(
                chain_tasks(spec, "ckpt-job",
                            checkpoint_dir=str(tmp_path), resume=True)
            )
        reference = [
            execute_chain(task)
            for task in chain_tasks(spec, "ckpt-ref")
        ]
        _assert_identical(reference, resumed, "checkpoint-resume")
        pool.shutdown()
