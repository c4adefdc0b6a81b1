"""Determinism regression: the serve worker pool vs the sequential driver.

The service's whole result-store/dedupe/elision story rests on one guarantee:
chains executed on the :class:`~repro.serve.workers.ChainWorkerPool` are
bit-identical to :func:`repro.inference.run_chains`. Workers rebuild the
model from the registry and derive RNGs through the shared
:func:`~repro.inference.chain.chain_start`, so placement (process, order,
pool size) must not leak into the draws. Checked here on two suite
workloads with different engines.
"""

import numpy as np
import pytest

from repro.inference import build_engine, run_chains
from repro.serve import ChainWorkerPool, JobSpec
from repro.serve.workers import chain_tasks
from repro.suite import load_workload

CASES = [
    pytest.param(
        JobSpec(workload="votes", engine="mh", n_iterations=200,
                n_warmup=100, n_chains=3, seed=5, elide=False),
        id="votes-mh",
    ),
    pytest.param(
        JobSpec(workload="12cities", engine="nuts", n_iterations=48,
                n_warmup=24, n_chains=2, seed=1, scale=0.25, elide=False),
        id="12cities-nuts",
    ),
]


def pool_chains(spec, pool=None, job_id="adhoc"):
    """The spec's chains run on a worker pool (the served path), full
    budget, no monitor; a pool of ``n_chains`` workers unless given one."""
    if pool is None:
        with ChainWorkerPool(n_workers=spec.n_chains) as owned:
            return pool_chains(spec, owned, job_id)
    return pool.run_job(chain_tasks(spec, job_id))


def _assert_bit_identical(parallel, sequential):
    assert len(parallel) == len(sequential)
    for par, seq in zip(parallel, sequential):
        np.testing.assert_array_equal(par.samples, seq.samples)
        np.testing.assert_array_equal(par.logps, seq.logps)
        np.testing.assert_array_equal(par.work_per_iteration,
                                      seq.work_per_iteration)
        assert par.n_warmup == seq.n_warmup
        assert par.accept_rate == seq.accept_rate
        assert par.divergences == seq.divergences
        assert par.step_size == seq.step_size
        if seq.tree_depths is None:
            assert par.tree_depths is None
        else:
            np.testing.assert_array_equal(par.tree_depths, seq.tree_depths)


@pytest.mark.parametrize("spec", CASES)
def test_pool_matches_sequential_driver(spec):
    parallel = pool_chains(spec)
    sequential = run_chains(
        load_workload(spec.workload, scale=spec.scale,
                      seed=spec.dataset_seed),
        spec.build_sampler(),
        n_iterations=spec.n_iterations,
        n_warmup=spec.resolved_warmup,
        n_chains=spec.n_chains,
        seed=spec.seed,
        initial_jitter=spec.initial_jitter,
    )
    _assert_bit_identical(parallel, sequential.chains)


def test_result_independent_of_pool_width():
    spec = JobSpec(workload="votes", engine="mh", n_iterations=120,
                   n_warmup=60, n_chains=4, seed=2, elide=False)
    with ChainWorkerPool(n_workers=1) as serial_pool:
        one = pool_chains(spec, serial_pool)
    with ChainWorkerPool(n_workers=4) as wide_pool:
        four = pool_chains(spec, wide_pool)
    _assert_bit_identical(one, four)
