"""MH reject-path prefetch: a chain given ``depth`` lanes asks for its next
``depth`` proposals at once, and nothing it draws may change.

Every prefetching run here is compared against :func:`run_chains`, the
sequential solo loop, with ``np.array_equal`` on draws and logps: fresh,
resumed from a snapshot taken mid-block, stopped by its hook mid-block,
with a block straddling ``n_warmup``, a budget that is not a multiple of
the depth, and adaptation off. A tracer around each chain's step
generator records where its blocks started and how many of their rows
were answered, so each case proves it reached the situation it names.

A group widens only where the replay cost model prices the wide lanes
cheaper per chain-iteration (:func:`wide_pays`, read off the settled
narrow engine, no clock); votes does, at every scale used here.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import batch
from repro.autodiff import compile as tape_compile
from repro.batch import driver as driver_module
from repro.batch.driver import (
    ROUND_COST_US,
    BatchedChainDriver,
    prefetch_depth,
    run_chains_batched,
    wide_pays,
)
from repro.batch.engine import BatchedEvaluator
from repro.inference.chain import SoloEvaluator, chain_start, run_chains
from repro.inference.hmc import HMC
from repro.inference.metropolis import MetropolisHastings
from repro.inference.results import StateCapture
from repro.resilience import chaos
from repro.resilience.chaos import ChaosFault, ChainFaults, installed, write_plan
from repro.serve import JobSpec
from repro.serve.workers import chain_tasks, run_chain_group
from repro.suite import load_workload

SCALE = 0.25
N_CHAINS = 4

#: The votes@0.5 value-round costs the rule was first priced on, µs by lane
#: width (2 vCPUs, BLAS threads 1).
PRICED_CURVE = (
    (4, 558.0), (8, 734.0), (12, 887.0), (16, 1035.0),
    (20, 1170.0), (24, 1339.0), (32, 1620.0),
)


def _advance_rate(reject, n_chains, k, curve):
    from repro.batch.driver import _round_cost

    return sum(reject ** j for j in range(k)) / _round_cost(curve, n_chains * k)


class TestPrefetchDepth:
    def test_priced_curve_prices_a_depth_of_three_to_five(self):
        reject = MetropolisHastings().reject_rate
        depth = prefetch_depth(reject, N_CHAINS, PRICED_CURVE)
        assert depth == 4
        best = _advance_rate(reject, N_CHAINS, depth, PRICED_CURVE)
        for k in (3, 5):
            assert _advance_rate(reject, N_CHAINS, k, PRICED_CURVE) >= 0.97 * best
        for k in (1, 2, 8):
            assert _advance_rate(reject, N_CHAINS, k, PRICED_CURVE) < 0.97 * best

    def test_cost_in_proportion_to_width_gives_depth_one(self):
        proportional = tuple((width, 40.0 * width) for width in (4, 8, 16, 32))
        for reject in (0.5, 0.766, 0.99):
            assert prefetch_depth(reject, N_CHAINS, proportional) == 1

    def test_a_chain_that_never_rejects_gets_depth_one(self):
        assert prefetch_depth(0.0, N_CHAINS) == 1
        assert HMC().reject_rate == 0.0

    def test_candidates_stop_at_the_widest_measured_round(self):
        widest = ROUND_COST_US[-1][0]
        for n_chains in (2, 4, 8, 16, widest, 2 * widest):
            depth = prefetch_depth(0.766, n_chains)
            assert depth == 1 or n_chains * depth <= widest


def _settled(n_vector, n_lane, buffer_elements):
    """A settled narrow engine as :func:`wide_pays` reads it."""
    return SimpleNamespace(
        n_vector=n_vector, n_lane=n_lane,
        tape=SimpleNamespace(buffer_elements=buffer_elements),
    )


#: Settled 4-lane value engines of suite shapes, ``(n_vector, n_lane,
#: buffer_elements)``, and whether the price widens them. Wide lanes forced
#: on 4 x 2000 MH chains in process ran votes 0.78-0.97x, survival
#: 0.93-0.97x, racial 1.05x, disease 1.08x, memory 1.21x, 12cities 1.20x,
#: ad 1.42x, tickets 1.69x the narrow time: only votes gains enough to
#: widen.
SHAPES = {
    "votes@0.25": ((134, 11, 696), True),
    "votes@1.0": ((134, 11, 1526), True),
    "survival@0.5": ((80, 0, 254), False),
    "racial@0.5": ((102, 3, 2873), False),
    "tickets@1.0": ((87, 1, 96933), False),
    "ad@0.5": ((103, 1, 47601), False),
    "disease@0.5": ((44, 0, 1523), False),
    "12cities@0.5": ((65, 1, 3763), False),
    "memory@0.25": ((100, 1, 7557), False),
}


class TestWidePays:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_only_shapes_that_gain_widen(self, shape):
        stats, wide = SHAPES[shape]
        reject = MetropolisHastings().reject_rate
        depth = prefetch_depth(reject, N_CHAINS)
        assert wide_pays(_settled(*stats), N_CHAINS, depth, reject) is wide

    def test_cost_in_proportion_to_width_never_widens(self):
        """No dispatch to share: a round costs its lanes, and a block
        advances a chain less than a round per row."""
        for depth in (2, 5, 8):
            assert not wide_pays(_settled(0, 3, 500), N_CHAINS, depth, 0.766)

    def test_a_chain_that_never_rejects_never_widens(self):
        assert not wide_pays(_settled(134, 11, 696), N_CHAINS, 5, 0.0)


class TestGroupDepth:
    """Only a batched group of two or more chains prefetches."""

    def test_mh_group_widens(self, votes):
        _, _, _, driver = _prefetching(votes, MetropolisHastings(), 40, 1)
        assert driver.depth == prefetch_depth(0.766, N_CHAINS) > 1
        assert isinstance(driver.evaluator, BatchedEvaluator)
        assert driver.evaluator.width == N_CHAINS * driver.depth
        assert driver.counters()["batch_width"] == N_CHAINS * driver.depth

    def test_groups_of_one_and_batching_off_run_at_depth_one(self, votes):
        alone = BatchedChainDriver.for_group(votes, MetropolisHastings(), 1, 40)
        assert alone.depth == 1 and isinstance(alone.evaluator, SoloEvaluator)
        with batch.override(False):
            off = BatchedChainDriver.for_group(votes, MetropolisHastings(), 4, 40)
        assert off.depth == 1 and isinstance(off.evaluator, SoloEvaluator)
        assert off.evaluator.width == 4

    def test_a_short_job_tries_no_wide_lanes(self, votes, monkeypatch):
        """A job too short to pay for a second calibration stays narrow."""
        monkeypatch.setattr(driver_module, "MIN_WIDE_ITERATIONS", 640)
        short = BatchedChainDriver.for_group(votes, MetropolisHastings(), 4, 639)
        assert short.depth == 1 and short.evaluator.width == 4
        long = BatchedChainDriver.for_group(votes, MetropolisHastings(), 4, 640)
        assert long.depth > 1 and long.evaluator.width == 4

    def test_gradient_engines_run_at_depth_one(self, votes):
        driver = BatchedChainDriver.for_group(votes, HMC(n_leapfrog=4), 4, 40)
        assert driver.depth == 1 and driver.evaluator.width == 4


def test_run_chains_makes_one_evaluation_per_iteration(votes, monkeypatch):
    """The sequential loop never prefetches: ``n_iterations + 1``
    evaluations per chain, the initial density included."""
    calls = []
    logp = votes.logp
    monkeypatch.setattr(votes, "logp", lambda x: calls.append(1) or logp(x))
    run_chains(votes, MetropolisHastings(), n_iterations=37, n_chains=3, seed=5)
    assert len(calls) == 3 * (37 + 1)


@pytest.fixture
def votes():
    return load_workload("votes", scale=SCALE)


@pytest.fixture(autouse=True)
def short_jobs_widen(monkeypatch):
    monkeypatch.setattr(driver_module, "MIN_WIDE_ITERATIONS", 0)


@pytest.fixture
def rounds(monkeypatch):
    """Every batched evaluation: ``(evaluator width, lanes asked, whether
    the evaluator was stable when asked)``."""
    log = []
    evaluate = BatchedEvaluator.evaluate

    def spy(self, xs):
        log.append((self.width, len(xs), self.stable))
        return evaluate(self, xs)

    monkeypatch.setattr(BatchedEvaluator, "evaluate", spy)
    return log


def _traced(gen, clock, blocks):
    """``gen`` as the driver sees it, logging ``(first iteration, rows
    answered)`` per block; ``clock["t"]`` is the chain's last recorded
    iteration."""
    answer = None
    while True:
        try:
            request = gen.send(answer)
        except StopIteration as stop:
            return stop.value
        answer = yield request
        if request.ndim == 2:
            rows = len(answer) if isinstance(answer, list) else 1
            blocks.append((clock["t"] + 1, rows))


def _prefetching(model, sampler, n_iterations, seed, n_warmup=None,
                 stop_at=None, capture_at=None, resume_states=None):
    """``N_CHAINS`` chains through a prefetching group; (chains, blocks
    per chain, snapshots taken, the driver)."""
    driver = BatchedChainDriver.for_group(model, sampler, N_CHAINS,
                                          n_iterations)
    assert driver.depth > 1
    blocks, snapshots = {}, {}
    for c in range(N_CHAINS):
        clock = {"t": -1}
        capture = StateCapture()
        if resume_states is not None:
            clock["t"] = int(resume_states[c]["t"])

        def hook(t, draw, clock=clock, capture=capture, c=c):
            clock["t"] = t
            if capture_at is not None and t == capture_at[c]:
                snapshots[c] = capture()
            return stop_at is None or t + 1 < stop_at[c]

        rng, x0 = chain_start(model, seed, c)
        gen = sampler.sample_steps(
            x0, n_iterations, rng, n_warmup, hook, capture,
            None if resume_states is None else resume_states[c],
            depth=driver.depth,
        )
        blocks[c] = []
        driver.submit(c, _traced(gen, clock, blocks[c]))
    results = driver.run()
    return [results[c] for c in range(N_CHAINS)], blocks, snapshots, driver


def _solo(model, sampler, n_iterations, seed, n_warmup=None, stop_at=None):
    chains = []
    for c in range(N_CHAINS):
        def hook(t, draw, c=c):
            return stop_at is None or t + 1 < stop_at[c]

        rng, x0 = chain_start(model, seed, c)
        chains.append(sampler.sample_chain(
            model, x0, n_iterations, rng, n_warmup, iteration_hook=hook,
        ))
    return chains


def _assert_identical(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.logps, b.logps)
        assert np.array_equal(a.work_per_iteration, b.work_per_iteration)
        assert a.accept_rate == b.accept_rate and a.step_size == b.step_size


def _used(chain_blocks):
    """``(first iteration, rows answered, rows used)`` per block but the
    last: a chain's next block starts where it stopped using this one."""
    return [
        (start, rows, after - start)
        for (start, rows), (after, _) in zip(chain_blocks, chain_blocks[1:])
    ]


def _mid_block(blocks):
    """Per chain, an iteration recorded while the chain held prefetched
    answers it went on to use: the first row of a block used past it."""
    return {
        c: next(start for start, _, used in _used(chain_blocks) if used >= 2)
        for c, chain_blocks in blocks.items()
    }


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_fresh_runs_match_run_chains(votes, seed):
    sampler = MetropolisHastings()
    chains, blocks, _, _ = _prefetching(votes, sampler, 60, seed)
    _assert_identical(chains, run_chains(
        votes, sampler, n_iterations=60, n_chains=N_CHAINS, seed=seed,
    ).chains)
    assert all(any(rows > 1 for _, rows in b) for b in blocks.values())


def test_run_chains_batched_prefetches_and_matches(votes):
    from repro.telemetry.metrics import MetricsRegistry

    sampler = MetropolisHastings()
    registry = MetricsRegistry()
    result = run_chains_batched(
        votes, sampler, 80, n_chains=N_CHAINS, seed=9, registry=registry,
    )
    _assert_identical(result.chains, run_chains(
        votes, sampler, n_iterations=80, n_chains=N_CHAINS, seed=9,
    ).chains)
    rows = registry.sum_counter("repro_batch_prefetch_rows_total")
    used = registry.sum_counter("repro_batch_prefetch_used_total")
    assert rows > used > 0
    lane_evals = registry.sum_counter("repro_batch_lane_evals_total")
    solo_calls = registry.sum_counter("repro_batch_solo_calls_total")
    # Every lane evaluation answered an iteration or an initial density,
    # or was a prefetched row no chain used.
    assert lane_evals + solo_calls == N_CHAINS * (80 + 1) + rows - used


def test_calibration_rounds_carry_one_row_per_chain(votes, rounds):
    """Set-up stays as cheap as a narrow group's: until an evaluator is
    stable, narrow or widened, a round evaluates one row per chain."""
    _, _, _, driver = _prefetching(votes, MetropolisHastings(), 40, 3)
    wide = N_CHAINS * driver.depth
    unsettled = [(width, lanes) for width, lanes, stable in rounds if not stable]
    assert {width for width, _ in unsettled} == {N_CHAINS, wide}
    assert all(lanes == N_CHAINS for _, lanes in unsettled)
    assert max(lanes for _, lanes, stable in rounds if stable) > N_CHAINS
    assert driver.evaluator.width == wide


def test_a_group_that_never_batches_asks_no_blocks(votes, rounds):
    """With compilation off the evaluator answers every lane solo and is
    never ``stable``: no wide lanes are tried, and the chains ask one
    position per round throughout, building no block."""
    sampler = MetropolisHastings()
    with tape_compile.override(False):
        chains, blocks, _, driver = _prefetching(votes, sampler, 30, 2)
    assert not any(blocks.values())
    assert {(width, lanes) for width, lanes, _ in rounds} == {
        (N_CHAINS, N_CHAINS)
    }
    assert driver.evaluator.width == N_CHAINS
    _assert_identical(chains, _solo(votes, sampler, 30, 2))


def test_a_group_priced_narrow_never_widens(votes, rounds, monkeypatch):
    """Where the price says wide lanes do not pay, the group never builds
    them: one evaluator, one position per chain every round, no block,
    and every draw the sequential one."""
    monkeypatch.setattr(driver_module, "BLOCK_COST_ELEMENTS", 10 ** 9)
    sampler = MetropolisHastings()
    chains, blocks, _, driver = _prefetching(votes, sampler, 40, 5)
    assert not any(blocks.values())
    assert {(width, lanes) for width, lanes, _ in rounds} == {
        (N_CHAINS, N_CHAINS)
    }
    assert driver.counters()["batch_width"] == N_CHAINS
    assert driver.counters()["batch_prefetch_rows"] == 0
    _assert_identical(chains, _solo(votes, sampler, 40, 5))


def test_budget_not_a_multiple_of_the_depth(votes):
    sampler = MetropolisHastings()
    depth = prefetch_depth(sampler.reject_rate, N_CHAINS)
    n_iterations = 10 * depth + 3
    chains, blocks, _, _ = _prefetching(votes, sampler, n_iterations, 4)
    _assert_identical(chains, _solo(votes, sampler, n_iterations, 4))
    # No block reaches past the budget.
    assert all(
        start + rows <= n_iterations
        for b in blocks.values() for start, rows in b
    )


def test_block_straddling_the_end_of_warmup(votes):
    sampler = MetropolisHastings()
    for n_warmup in range(20, 30):
        chains, blocks, _, _ = _prefetching(votes, sampler, 50, 6, n_warmup)
        _assert_identical(chains, _solo(votes, sampler, 50, 6, n_warmup))
        # Rows used for the last warm-up iteration and the two after it.
        if any(
            start < n_warmup and start + used > n_warmup + 1
            for b in blocks.values() for start, _, used in _used(b)
        ):
            return
    pytest.fail("no block straddled n_warmup")


def test_adaptation_off(votes):
    sampler = MetropolisHastings(adapt_scale=False, proposal_scale=0.3)
    chains, _, _, _ = _prefetching(votes, sampler, 45, 8)
    _assert_identical(chains, _solo(votes, sampler, 45, 8))


def test_hook_stop_mid_block(votes):
    """A chain stopped by its hook while it holds prefetched answers
    stops at exactly that iteration, as the sequential chain does."""
    sampler = MetropolisHastings()
    _, blocks, _, _ = _prefetching(votes, sampler, 60, 12)
    stop_at = {c: t + 1 for c, t in _mid_block(blocks).items()}
    chains, _, _, _ = _prefetching(votes, sampler, 60, 12, stop_at=stop_at)
    assert [chain.n_iterations for chain in chains] == [
        stop_at[c] for c in range(N_CHAINS)
    ]
    _assert_identical(chains, _solo(votes, sampler, 60, 12, stop_at=stop_at))


def test_resume_from_snapshots_taken_mid_block(votes):
    """Snapshots taken while a chain holds prefetched answers carry the
    real RNG's state at that iteration: resuming them, prefetching again,
    finishes as the uninterrupted sequential run."""
    sampler = MetropolisHastings()
    _, blocks, _, _ = _prefetching(votes, sampler, 60, 14)
    capture_at = _mid_block(blocks)
    _, _, snapshots, _ = _prefetching(
        votes, sampler, 60, 14, capture_at=capture_at,
    )
    assert sorted(snapshots) == list(range(N_CHAINS))
    resumed, resumed_blocks, _, _ = _prefetching(
        votes, sampler, 60, 14, resume_states=snapshots,
    )
    _assert_identical(resumed, _solo(votes, sampler, 60, 14))
    # Past the resumed group's probation, the resumed chains prefetch too.
    assert all(any(rows > 1 for _, rows in b) for b in resumed_blocks.values())


MH_SPEC = JobSpec(workload="votes", engine="mh", scale=SCALE, elide=False,
                  n_iterations=40, n_warmup=10, n_chains=2, seed=3)


def test_nan_logp_inside_a_block_ends_as_the_solo_chain(tmp_path, monkeypatch):
    """A ``nan_logp`` fault whose iteration is a prefetched row of a block
    (answered while the iteration in flight is an earlier one): the group
    poisons that row by its own iteration, so the chain ends exactly as
    it does alone, where every answer is poisoned as it is asked for."""
    poisoned_ahead = []
    poison = ChainFaults.poison

    def spy(self, answer, t=None):
        if t is not None and t > self._t:
            poisoned_ahead.append(t)
        return poison(self, answer, t)

    monkeypatch.setattr(ChainFaults, "poison", spy)
    plan = str(tmp_path / "plan.json")
    nan_from = 24
    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=nan_from,
                                 chain_index=1)])
    with installed(plan):
        assert chaos.active() is not None
        group, failures = run_chain_group(chain_tasks(MH_SPEC, "prefetch"))
        alone, _ = run_chain_group(chain_tasks(MH_SPEC, "alone")[1:])
    assert not failures
    assert nan_from in poisoned_ahead
    chain, solo = group[1], alone[1]
    assert np.array_equal(chain.samples, solo.samples)
    assert np.array_equal(chain.logps, solo.logps)
    assert (chain.samples[nan_from:] == chain.samples[nan_from - 1]).all()


def test_nan_logp_on_a_resumed_chain_poisons_its_first_iteration(tmp_path):
    """A chain resumed from a snapshot has its answers poisoned by the
    iterations they serve from its first request on: a ``nan_logp`` fault
    at the first resumed iteration, one the clean chain accepts at, ends
    the resumed chain exactly as the uninterrupted faulted one."""
    spec = dataclasses.replace(MH_SPEC, checkpoint_interval=10)
    clean, _ = run_chain_group(chain_tasks(spec, "clean"))
    moved = np.flatnonzero(np.diff(clean[1].samples, axis=0).any(axis=1)) + 1
    start = int(moved[moved >= 15][0])  # an accepting iteration
    checkpoints = str(tmp_path / "checkpoints")
    run_chain_group(chain_tasks(spec, "resumed", checkpoints),
                    stop_iteration=lambda: start)
    plan = str(tmp_path / "plan.json")
    write_plan(plan, [ChaosFault(kind="nan_logp", iteration=start,
                                 chain_index=1)])
    with installed(plan):
        resumed, failures = run_chain_group(
            chain_tasks(spec, "resumed", checkpoints, resume=True)
        )
        whole, _ = run_chain_group(chain_tasks(spec, "whole"))
    assert not failures
    assert all(task.resume_from for task in
               chain_tasks(spec, "resumed", checkpoints, resume=True))
    chain = resumed[1]
    assert np.array_equal(chain.samples, whole[1].samples)
    assert np.array_equal(chain.logps, whole[1].logps)
    assert (chain.samples[start:] == chain.samples[start - 1]).all()
