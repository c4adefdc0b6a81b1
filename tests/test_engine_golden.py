"""Cross-commit engine identity: today's draws against a committed golden.

Every other identity battery compares two paths at *one* commit (batched vs
solo, resumed vs uninterrupted, pool vs in-process), so a refactor that
shifts all of them together — one extra RNG draw in a shared scaffold, a
reordered floating-point sum — passes them all. This file compares every
:class:`ChainResult` field of all four engines, fresh and resumed, against
``tests/data/engine_golden.npz``, written at the commit *before* the chain
scaffold was unified. The golden also carries each engine's sampler-state
snapshot as that commit pickled it, so "a checkpoint written by the parent
resumes under the change" is tested on the parent's own bytes.

Bit-identity of float arithmetic holds per numpy build, so the golden
records the ``numpy.__version__`` it was written under and every test here
skips — with that reason, shown by ``pytest -rs`` — under any other.
Regenerate (only when an intended numerical change lands) with::

    PYTHONPATH=src python tests/test_engine_golden.py --write
"""

import dataclasses
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.inference.chain import chain_start, run_chains
from repro.inference.engines import build_engine
from repro.inference.results import ChainResult, StateCapture
from repro.suite import load_workload

GOLDEN = Path(__file__).parent / "data" / "engine_golden.npz"

ENGINES = ("mh", "slice", "hmc", "nuts")
WORKLOADS = ("votes", "12cities")
SCALE = 0.25
N_CHAINS = 2
N_ITERATIONS = 40
SEED = 11
#: The resumed chain: ``votes``, interrupted once ``t + 1`` reaches 14 —
#: between the two metric refreshes of a 20-iteration warmup, the point
#: ``tests/test_serve_resume.py`` uses.
RESUME_WORKLOAD = "votes"
RESUME_STOP = 14


def _chain_fields(prefix: str, chain: ChainResult) -> dict:
    """Every non-``None`` :class:`ChainResult` field, keyed under ``prefix``."""
    return {
        f"{prefix}/{field.name}": np.asarray(getattr(chain, field.name))
        for field in dataclasses.fields(ChainResult)
        if getattr(chain, field.name) is not None
    }


def _fresh(engine: str, workload: str) -> dict:
    model = load_workload(workload, scale=SCALE)
    result = run_chains(
        model, build_engine(engine), N_ITERATIONS, n_chains=N_CHAINS, seed=SEED
    )
    out = {}
    for index, chain in enumerate(result.chains):
        out.update(_chain_fields(f"{engine}/{workload}/chain{index}", chain))
    return out


def _snapshot(engine: str) -> dict:
    """Sampler state after iteration ``RESUME_STOP - 1`` of chain 0."""
    model = load_workload(RESUME_WORKLOAD, scale=SCALE)
    capture = StateCapture()
    taken = {}

    def hook(t, draw):
        if t + 1 == RESUME_STOP:
            taken["state"] = capture()
            return False
        return True

    rng, x0 = chain_start(model, SEED, 0)
    build_engine(engine).sample_chain(
        model, x0, N_ITERATIONS, rng, iteration_hook=hook, state_capture=capture
    )
    return taken["state"]


def _resumed(engine: str, state: dict) -> dict:
    model = load_workload(RESUME_WORKLOAD, scale=SCALE)
    rng, x0 = chain_start(model, SEED, 0)
    chain = build_engine(engine).sample_chain(
        model, x0, N_ITERATIONS, rng, resume_state=state
    )
    return _chain_fields(f"{engine}/resumed", chain)


def _write() -> None:
    payload = {"numpy_version": np.asarray(np.__version__)}
    for engine in ENGINES:
        for workload in WORKLOADS:
            payload.update(_fresh(engine, workload))
        state = _snapshot(engine)
        payload[f"{engine}/snapshot"] = np.frombuffer(
            pickle.dumps(state, protocol=4), dtype=np.uint8
        )
        payload.update(_resumed(engine, state))
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **payload)
    print(f"wrote {GOLDEN} ({len(payload)} arrays, numpy {np.__version__})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_engine_golden.py --write")
    _write()
    sys.exit(0)


with np.load(GOLDEN) as _payload:
    golden = {name: _payload[name] for name in _payload.files}

_written_under = str(golden.pop("numpy_version"))
pytestmark = pytest.mark.skipif(
    _written_under != np.__version__,
    reason=f"skipped: numpy {np.__version__} ≠ {_written_under} "
           "(the golden's bits are per numpy build)",
)


def _assert_matches_golden(computed: dict, prefix: str) -> None:
    expected = {k: v for k, v in golden.items() if k.startswith(prefix + "/")}
    assert sorted(computed) == sorted(expected)
    for name, value in computed.items():
        assert value.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(value, expected[name], err_msg=name)


def _assert_same_state(ours, theirs, path="state") -> None:
    """Deep bit-equality of two sampler-state snapshots."""
    if isinstance(theirs, dict):
        assert isinstance(ours, dict) and sorted(ours) == sorted(theirs), path
        for key in theirs:
            _assert_same_state(ours[key], theirs[key], f"{path}[{key!r}]")
    elif isinstance(theirs, np.ndarray):
        assert ours.dtype == theirs.dtype, path
        np.testing.assert_array_equal(ours, theirs, err_msg=path)
    else:
        assert type(ours) is type(theirs) and ours == theirs, path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ENGINES)
def test_fresh_chains_match_golden(engine, workload):
    _assert_matches_golden(_fresh(engine, workload), f"{engine}/{workload}")


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_and_resume_match_golden(engine):
    theirs = pickle.loads(golden[f"{engine}/snapshot"].tobytes())
    ours = _snapshot(engine)
    _assert_same_state(ours, theirs)
    # Resuming from the snapshot as the golden's commit pickled it is the
    # "old checkpoint, new code" case; ours is equal to it by the line above.
    _assert_matches_golden(_resumed(engine, theirs), f"{engine}/resumed")
