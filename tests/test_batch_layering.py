"""The two seams of ``repro.batch``: what it reads, and what it is sent.

**Below**, ``repro.batch`` reads no other module's private attributes.
The batched engine is built from what :class:`CompiledTape` publishes
(``instructions``, ``shapes``, ``carries``, ...) and asks the model for
``proven_tape()``; it used to reach into nine underscore attributes of
``CompiledTape``, ``CompiledFunction`` and the model instead, so every
change to the tape's layout was a change to ``batch/engine.py`` too. This
walks the package's source so that coupling cannot quietly grow back: an
attribute access ``x._name`` is allowed only on ``self``/``cls`` or on a
local instance of a class defined in the same file.

**Above**, the samplers know nothing about batching: every engine's step
generator — MH and slice included — yields bare position arrays and
nothing else, and ``repro.inference`` imports nothing from
``repro.batch`` — so a new step machine has "yield a position, receive
the answer" to implement and no more.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.inference.chain import SoloEvaluator, chain_start
from repro.inference.hmc import HMC
from repro.inference.metropolis import MetropolisHastings
from repro.inference.nuts import NUTS
from repro.inference.slice_sampler import SliceSampler
from repro.suite.registry import load_workload

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BATCH = SRC / "batch"


def _own_instances(tree: ast.Module) -> set:
    """Names bound, anywhere in the file, to ``ClassDefinedHere(...)`` —
    by assignment, annotation, or as an annotated argument."""
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def is_own(node) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Name) and node.id in classes

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_own(node.value):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and is_own(node.annotation):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if is_own(node.annotation):
                names.add(node.arg)
    return names


def private_reads(source: str) -> list:
    tree = ast.parse(source)
    allowed = {"self", "cls"} | _own_instances(tree)
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in allowed)
    ]


def test_the_guard_sees_what_it_should():
    source = (
        "class Mine:\n"
        "    def f(self, other, mine: Mine):\n"
        "        own = Mine()\n"
        "        return self._a, own._b, mine._c, other._d, other.e._f\n"
    )
    assert private_reads(source) == [
        "line 4: other._d", "line 4: other.e._f",
    ]


def test_batch_reads_no_foreign_private_attribute():
    offences = {
        path.name: found
        for path in sorted(BATCH.glob("*.py"))
        if (found := private_reads(path.read_text()))
    }
    assert not offences, offences


@pytest.mark.parametrize(
    "sampler",
    [HMC(n_leapfrog=4), NUTS(max_tree_depth=4), MetropolisHastings(),
     SliceSampler()],
    ids=["hmc", "nuts", "mh", "slice"],
)
def test_step_generators_yield_bare_positions(sampler):
    """Driven by hand across warmup, metric refreshes and sampling: every
    request is an ``ndarray`` of shape ``(dim,)`` — no wrapper type — and
    a gradient-free engine's requests are answered with the value alone."""
    model = load_workload("12cities", scale=0.25)
    evaluate = SoloEvaluator(model, gradient=sampler.gradient).one
    rng, x0 = chain_start(model, 1, 0, 1.0)
    gen = sampler.sample_steps(x0, 30, rng)
    requests = 0
    try:
        x = next(gen)
        while True:
            assert type(x) is np.ndarray and x.shape == (model.dim,), repr(x)
            requests += 1
            x = gen.send(evaluate(x))
    except StopIteration as stop:
        chain = stop.value
    assert chain.samples.shape == (30, model.dim)
    assert requests > 30  # at least one gradient per iteration


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_inference_imports_nothing_from_batch():
    offences = {
        path.name: found
        for path in sorted((SRC / "inference").glob("*.py"))
        if (found := [
            name for name in _imported_names(ast.parse(path.read_text()))
            if name.startswith("repro.batch")
        ])
    }
    assert not offences, offences
