"""Golden bit-identity battery: compiled tapes must not change any draw.

Every BayesSuite workload is sampled twice with every engine — once with the
compiled-tape replay engine (the default) and once forced onto the
interpreted path — from identical seeds. The acceptance bar is
``np.array_equal``: not "statistically equivalent", not "allclose", but the
same bits. This is what lets the serve layer switch models to compiled
gradients without invalidating checkpoint resume, mid-run elision, or any
other determinism the test suite already guarantees.

The sufficient-statistics rewrite (:mod:`repro.autodiff.suffstats`) is
pinned **off** here: it deliberately reassociates data sums, so its replay
matches interpretation within tolerances rather than bitwise. This battery
checks the replay *mechanics* are exact; the rewritten path has its own
equivalence battery in ``tests/test_suffstats_identity.py``. Determinism
guarantees (resume, serve-vs-sequential) are unaffected by the rewrite
because both sides of those comparisons run the same tape.
"""

import numpy as np
import pytest

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats
from repro.inference.chain import run_chains
from repro.inference.hmc import HMC
from repro.inference.metropolis import MetropolisHastings
from repro.inference.nuts import NUTS
from repro.inference.slice_sampler import SliceSampler
from repro.suite.registry import load_workload, workload_names

SCALE = 0.25
SEED = 11

#: engine name -> (factory, iterations). Gradient engines cost an order of
#: magnitude more per iteration, so they get shorter runs.
ENGINES = {
    "mh": (lambda: MetropolisHastings(), 40),
    "slice": (lambda: SliceSampler(), 8),
    "hmc": (lambda: HMC(n_leapfrog=8), 16),
    "nuts": (lambda: NUTS(max_tree_depth=6), 16),
}

#: Matrix cells that are too expensive for tier-1 run nightly instead (the
#: ``slow`` marker): the ODE workload integrates a six-state system with
#: sensitivities on every gradient evaluation (one canary cell stays fast),
#: and the slice sampler's stepping-out loop scales with dimension, which
#: makes the wide workloads take minutes.
_SLOW_CELLS = {
    ("ode", "mh"),
    ("ode", "slice"),
    ("ode", "hmc"),
    ("tickets", "slice"),
    ("racial", "slice"),
    ("butterfly", "slice"),
    ("memory", "slice"),
    ("ad", "slice"),
}


def _matrix():
    cases = []
    for workload in workload_names():
        for engine in ENGINES:
            marks = (
                (pytest.mark.slow,)
                if (workload, engine) in _SLOW_CELLS
                else ()
            )
            cases.append(
                pytest.param(workload, engine, marks=marks,
                             id=f"{workload}-{engine}")
            )
    return cases


def _run(workload: str, engine: str, compiled: bool):
    factory, n_iterations = ENGINES[engine]
    with tape_compile.override(compiled), suffstats.override(False):
        model = load_workload(workload, scale=SCALE)
        result = run_chains(
            model, factory(), n_iterations=n_iterations, n_chains=2,
            seed=SEED,
        )
    stats = model.tape_stats()
    return result, stats


@pytest.mark.parametrize("workload,engine", _matrix())
def test_compiled_draws_bit_identical(workload, engine):
    compiled_result, stats = _run(workload, engine, compiled=True)
    interpreted_result, _ = _run(workload, engine, compiled=False)

    for compiled_chain, interpreted_chain in zip(
        compiled_result.chains, interpreted_result.chains
    ):
        assert np.array_equal(
            compiled_chain.samples, interpreted_chain.samples
        ), f"{workload}/{engine}: compiled draws differ from interpreted"
        assert np.array_equal(
            compiled_chain.logps, interpreted_chain.logps, equal_nan=True
        ), f"{workload}/{engine}: compiled logps differ from interpreted"

    # The compiled run must actually have replayed the tape — a silent
    # permanent fallback would make this test vacuous.
    assert stats is not None and stats["replays"] > 0, (
        f"{workload}/{engine}: compiled path never replayed "
        f"(stats={stats})"
    )
    assert stats["fallbacks"] == 0, (
        f"{workload}/{engine}: compiled path fell back to interpretation "
        f"(stats={stats})"
    )
    if engine in ("mh", "slice"):
        # ...and the gradient-free engines must have been served by the
        # forward-only value program, not by full replays.
        assert stats["value_replays"] > 0.9 * stats["replays"], (
            f"{workload}/{engine}: logp did not run the value program "
            f"(stats={stats})"
        )
