"""SPD groups: one factor per matrix slot in the solo replay, same bits.

``CompiledTape`` answers every set of two or more ``solve_spd`` /
``logdet_spd`` / ``quadratic_form_inv`` instructions that read one matrix
slot from one Cholesky factor (``ops.spd_group_forward``) and reschedules
the program around the group (``compile._schedule``). Nothing about the
answer may move: these tests hold the group kernel to the member kernels
byte for byte, and the grouped tape to interpretation bit for bit, over
generated graphs — members of all three kinds, constant and input-dependent
right-hand sides, right-hand sides fed by an earlier member, consumers and
unrelated instructions interleaved between the members (which is what makes
the schedule's accumulation-order check refuse some of them).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, suffstats, verify
from repro.autodiff.compile import CompiledFunction, CompiledTape
from repro.autodiff.tape import constant
from repro.batch.engine import BatchedTape
from repro.inference.chain import run_chains
from repro.inference.metropolis import MetropolisHastings
from repro.models import BayesianModel, ParameterSpec
from repro.models import distributions as dist
from repro.suite.registry import load_workload, workload_names
from tests.test_logp_value import _votes_not_positive_definite

SPD_OPS = ("solve_spd", "logdet_spd", "quadratic_form_inv")


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _spd(rng, n):
    base = rng.normal(size=(n, n))
    return base @ base.T + n * np.eye(n)


def _groups(tape):
    return [step for step in tape_compile._schedule(tape) if len(step) > 1]


def _ungrouped_source(root, leaf) -> str:
    """The tape's source with every instruction on its own (no groups)."""
    schedule = tape_compile._schedule
    tape_compile._schedule = lambda tape: [
        (ai,) for ai in range(len(tape.instructions))
    ]
    try:
        return CompiledTape(root, leaf)._source
    finally:
        tape_compile._schedule = schedule


def _interpret(fn, x):
    leaf, root = tape_compile._trace(fn, x)
    return tape_compile._reference_from_trace(leaf, root, x)


def _record(fn, x):
    leaf, root = tape_compile._trace(fn, x)
    return CompiledTape(root, leaf)


# ---------------------------------------------------------------------------
# The group kernel against the member kernels
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    names=st.lists(st.sampled_from(SPD_OPS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_group_kernel_is_the_member_kernels_byte_for_byte(n, names, seed, scale):
    rng = np.random.default_rng(seed)
    k = _spd(rng, n) * scale
    rhs = tuple(
        None if name == "logdet_spd" else rng.normal(size=n) * scale
        for name in names
    )
    answers = ops.spd_group_forward(k, tuple(names), rhs)
    assert len(answers) == len(names)
    for name, y, (value, aux) in zip(names, rhs, answers):
        kernel = ops.KERNELS[name]
        if name == "solve_spd":
            want = kernel.forward((k, y), (), None)
        elif name == "quadratic_form_inv":
            want = kernel.forward((k,), (y,), None)
        else:
            want = kernel.forward((k,), (), None)
        assert type(value) is type(want[0])
        assert _bytes(value) == _bytes(want[0]), name
        assert _bytes(aux) == _bytes(want[1]), name


# ---------------------------------------------------------------------------
# Generated graphs: the grouped tape against interpretation
# ---------------------------------------------------------------------------

#: One member: its kernel, where a ``solve_spd`` right-hand side comes from
#: (a constant, the input, or an earlier member's result plus the input),
#: how many consumers follow it at once (0: it is consumed at the end), how
#: many instructions unrelated to any member follow it, and whether those
#: read the shared ``w`` (whose adjoint a group may reorder) or slots of
#: their own. One member in four shares ``w``: with more, the order check
#: refuses nearly every graph (about a third of them group as it is).
MEMBER = st.tuples(
    st.sampled_from(SPD_OPS),
    st.sampled_from(["const", "input", "fed"]),
    st.integers(0, 3),
    st.integers(0, 2),
    st.sampled_from([True, False, False, False]),
)


def _graph(n, members, seed):
    """``fn(x) -> scalar Var`` over ``x`` of length ``2 n + 1``: the matrix
    is ``base + 0.1 d d^T + x[n] I`` with ``d = x[:n]`` (not positive
    definite once ``x[n]`` is very negative), and ``w = 1.5 x[n+1:]`` is
    read by right-hand sides fed by a member, and by the consumers and
    unrelated instructions of the members that share it."""
    rng = np.random.default_rng(seed)
    base = _spd(rng, n)
    eye = np.eye(n)
    consts = [rng.normal(size=n) for _ in members]
    weights = [float(w) for w in rng.uniform(0.5, 2.0, size=4 * len(members))]

    def fn(x):
        d = x[0:n]
        k = ops.add(
            ops.add(constant(base), ops.mul(ops.outer(d, d), 0.1)),
            ops.mul(x[n], constant(eye)),
        )
        w = ops.mul(x[n + 1:2 * n + 1], 1.5)
        total = ops.sum(ops.square(w))
        pending, last_solve = [], None
        spare = iter(weights)
        for j, (name, source, consumers, unrelated, shared) in enumerate(members):
            v = w if shared else ops.mul(x[n + 1:2 * n + 1], consts[j][0])
            if name == "solve_spd":
                if source == "fed" and last_solve is not None:
                    y = ops.add(ops.mul(last_solve, 0.5), w)
                elif source == "const":
                    y = constant(consts[j])
                else:
                    y = ops.mul(x[n + 1:2 * n + 1], consts[j])
                r = ops.solve_spd(k, y)
                last_solve = r
            elif name == "logdet_spd":
                r = ops.logdet_spd(k)
            else:
                r = ops.quadratic_form_inv(k, consts[j])
            for c in range(consumers):
                if c % 2 == 0:
                    term = ops.sum(ops.mul(r, v))
                else:
                    term = ops.sum(ops.sin(ops.mul(r, next(spare))))
                total = ops.add(total, term)
            if not consumers:
                pending.append(r)
            for _ in range(unrelated):
                u = w if shared else x[n + 1:2 * n + 1]
                total = ops.add(total, ops.sum(ops.cos(ops.mul(u, next(spare)))))
        for r in pending:
            total = ops.add(total, ops.sum(ops.square(r)))
        return total

    return fn


GRAPHS = st.tuples(
    st.integers(1, 8), st.lists(MEMBER, min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
)


def _point(n, seed, shift=0.0):
    x = np.random.default_rng(seed).normal(size=2 * n + 1) * 0.5
    x[n] = shift
    return x


@settings(max_examples=200, deadline=None)
@given(graph=GRAPHS, other=st.integers(0, 2**32 - 1))
def test_grouped_tape_is_interpretation_bit_for_bit(graph, other):
    n, members, seed = graph
    fn = _graph(n, members, seed)
    tape = _record(fn, _point(n, seed))
    for x in (_point(n, seed), _point(n, other, 0.3)):
        want_value, want_grad = _interpret(fn, x)
        value, grad = tape.value_and_grad(x)
        assert _bytes(value) == _bytes(want_value)
        assert _bytes(grad) == _bytes(want_grad)
        assert _bytes(tape.value(x)) == _bytes(want_value)


@settings(max_examples=60, deadline=None)
@given(graph=GRAPHS)
def test_non_pd_matrix_raises_as_interpretation_does(graph):
    n, members, seed = graph
    fn = _graph(n, members, seed)
    tape = _record(fn, _point(n, seed))
    x = _point(n, seed, shift=-1e4)
    with pytest.raises(np.linalg.LinAlgError) as interpreted:
        _interpret(fn, x)
    for program in (tape.value, tape.value_and_grad):
        with pytest.raises(np.linalg.LinAlgError) as replayed:
            program(x)
        assert str(replayed.value) == str(interpreted.value)


def test_lone_spd_op_is_emitted_as_before():
    # One solve_spd and one logdet_spd, each on its own matrix: no group.
    def fn(x):
        k1 = ops.add(ops.outer(x, x), constant(np.eye(3) * 4.0))
        k2 = ops.add(ops.mul(ops.outer(x, x), 0.5), constant(np.eye(3) * 3.0))
        return ops.add(
            ops.sum(ops.solve_spd(k1, x)), ops.logdet_spd(k2)
        )

    x = np.array([0.3, -0.2, 0.5])
    leaf, root = tape_compile._trace(fn, x)
    tape = CompiledTape(root, leaf)
    assert _groups(tape) == []
    assert "_spd(" not in tape._source
    assert tape._source == _ungrouped_source(root, leaf)


def test_a_reordered_triple_accumulation_is_left_ungrouped():
    # ``s`` receives three adjoint contributions: from the consumer of the
    # first solve (which the group would defer behind the second), from
    # ``sin(s)`` in between, and from the right-hand side itself. Grouping
    # would change their order, so the matrix stays ungrouped.
    def fn(x):
        k = ops.add(ops.outer(x, x), constant(np.eye(3) * 4.0))
        s = ops.mul(x, 1.5)
        a = ops.solve_spd(k, s)
        first = ops.sum(ops.mul(a, s))
        between = ops.sum(ops.sin(s))
        b = ops.logdet_spd(k)
        return ops.add(ops.add(first, between), b)

    tape = _record(fn, np.array([0.3, -0.2, 0.5]))
    assert _groups(tape) == []
    # Without the unrelated ``sin(s)`` the same two members group.
    def grouped(x):
        k = ops.add(ops.outer(x, x), constant(np.eye(3) * 4.0))
        s = ops.mul(x, 1.5)
        a = ops.solve_spd(k, s)
        return ops.add(ops.sum(ops.mul(a, s)), ops.logdet_spd(k))

    tape = _record(grouped, np.array([0.3, -0.2, 0.5]))
    assert [len(step) for step in _groups(tape)] == [2]


# ---------------------------------------------------------------------------
# multi_normal_chol_lpdf: compiles now, and groups
# ---------------------------------------------------------------------------

def _multi_normal_chol(x):
    n = 3
    mask = np.tril(np.ones((n, n)))
    chol = ops.add(
        ops.mul(ops.reshape(x[n:n + n * n], (n, n)), constant(mask * 0.3)),
        constant(np.eye(n) * 1.5),
    )
    return dist.multi_normal_chol_lpdf(x[0:n], np.array([0.1, -0.2, 0.3]), chol)


def test_multi_normal_chol_compiles_bit_for_bit_and_groups():
    x = np.random.default_rng(5).normal(size=12) * 0.5
    tape = _record(_multi_normal_chol, x)
    groups = _groups(tape)
    assert [
        sorted(tape.instructions[ai].op for ai in step) for step in groups
    ] == [["logdet_spd", "solve_spd"]]
    for point in (x, x * 0.7 + 0.1):
        want = _interpret(_multi_normal_chol, point)
        value, grad = tape.value_and_grad(point)
        assert _bytes(value) == _bytes(want[0])
        assert _bytes(grad) == _bytes(want[1])

    function = CompiledFunction(_multi_normal_chol)
    for _ in range(3):
        function(x)
    assert function.broken is None
    assert function.stats["fallbacks"] == 0


# ---------------------------------------------------------------------------
# A model whose proposals leave the positive-definite cone: same MH chain
# ---------------------------------------------------------------------------

class _SharedCovariance(BayesianModel):
    """Three observations under one covariance ``C + t I``: not positive
    definite for ``t`` below ``-0.3``, where MH must reject."""

    name = "toy-shared-covariance"

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(3)
        self.add_data(y=rng.normal(size=(3, 3)))
        self._c = np.diag([0.3, 0.8, 1.2]) + 0.05

    @property
    def params(self):
        return [ParameterSpec("t", 1, init=0.5), ParameterSpec("mu", 3)]

    def log_joint(self, p):
        k = ops.add(constant(self._c), ops.mul(p["t"], constant(np.eye(3))))
        total = ops.mul(ops.logdet_spd(k), -1.5)
        for y in self.data("y"):
            resid = ops.sub(constant(y), p["mu"])
            total = ops.sub(
                total, ops.mul(ops.dot(resid, ops.solve_spd(k, resid)), 0.5)
            )
        return ops.add(total, dist.normal_lpdf(p["mu"], 0.0, 1.0))


def _mh(compiled: bool):
    with tape_compile.override(compiled), suffstats.override(False):
        model = _SharedCovariance()
        seen = []
        logp = model.logp
        model.logp = lambda x: seen.append(logp(x)) or seen[-1]
        result = run_chains(
            model, MetropolisHastings(proposal_scale=0.8, adapt_scale=False),
            n_iterations=150, n_chains=1, seed=7,
        )
    return model, result, seen


def test_mh_rejects_non_pd_proposals_as_interpretation_does():
    model, compiled, seen = _mh(True)
    _, interpreted, seen_interpreted = _mh(False)
    assert np.array_equal(
        compiled.chains[0].samples, interpreted.chains[0].samples
    )
    assert _bytes(seen) == _bytes(seen_interpreted)
    assert sum(np.isneginf(seen)) > 0, "no proposal left the PD cone"
    stats = model.tape_stats()
    assert stats["fallbacks"] == 0 and stats["value_replays"] > 0
    tape = model._compiled_function().proven_tape()
    assert [len(step) for step in _groups(tape)] == [4]


# ---------------------------------------------------------------------------
# The suite: votes groups, nothing else changes
# ---------------------------------------------------------------------------

def test_votes_factors_its_covariance_once():
    model = load_workload("votes", scale=0.25)
    x = model.initial_position(np.random.default_rng(0))
    with suffstats.override(False):
        tape = _record(model._logp_var, x)
    spd = [
        ai for ai, ins in enumerate(tape.instructions)
        if ins.op in ops.SPD_FACTORED
    ]
    assert len(spd) == 1 + model.n_states
    assert _groups(tape) == [tuple(spd)]
    # Once in ``_replay``'s forward block, once in ``_value``'s; no member
    # calls its own forward kernel.
    assert tape._source.count("_spd(") == 2
    assert not any(f"F{ai}(" in tape._source for ai in spd)

    # The lanes run the same schedule: one factor per live lane, one call
    # in the program, no member on its own; without the group, every
    # member is its own lane-mode call.
    schedule = tape_compile._schedule
    tape_compile._schedule = lambda tape: [
        (ai,) for ai in range(len(tape.instructions))
    ]
    try:
        ungrouped = _record(model._logp_var, x)
    finally:
        tape_compile._schedule = schedule
    grouped, alone = (_settled(t, model) for t in (tape, ungrouped))
    assert grouped._source.count("_spd(") == 1
    assert not any(f"_lfwd(I{ai}," in grouped._source for ai in spd)
    assert "_spd(" not in alone._source
    assert all(f"_lfwd(I{ai}," in alone._source for ai in spd)
    # A non-PD lane between live ones dies in the group; every lane is the
    # solo tape's bits, grouped or not.
    rng = np.random.default_rng(4)
    xs = {i: x + 0.05 * rng.standard_normal(model.dim) for i in range(4)}
    xs[2] = _votes_not_positive_definite(model)
    with pytest.raises(np.linalg.LinAlgError):
        tape.value_and_grad(xs[2])
    answers = [engine.evaluate(xs) for engine in (grouped, alone)]
    assert answers[0][2][0] == float("-inf")
    for lane, point in xs.items():
        with np.errstate(all="ignore"):
            want = verify.or_rejection(tape.value_and_grad, point)
        for got in answers:
            assert _bytes(got[lane][0]) == _bytes(want[0])
            assert _bytes(got[lane][1]) == _bytes(want[1])
    assert grouped.demotions == 0 and alone.demotions == 0


#: sha256 (first 16 hex digits) of each other suite workload's generated
#: ``CompiledTape._source`` at scale 0.25 — the plain tape, and the one
#: ``CompiledFunction`` builds with the sufficient-statistics rewrite on.
#: None of these graphs has an SPD op, so grouping must leave their
#: programs byte for byte as the generator emits them without groups. The
#: hashes were taken when declared adjoints began to be emitted inline in
#: the backward sweep: that changed every program's text by design, and
#: none of its outputs (the identity batteries hold them bit for bit). A
#: change to a model's graph or to the emitted form changes its entry.
UNGROUPED_SOURCES = {
    "12cities": ("d6ce669625f6639b", "d6ce669625f6639b"),
    "ad": ("53c712d3ce067e1b", "53c712d3ce067e1b"),
    "ode": ("213b4f0105e68965", "213b4f0105e68965"),
    "memory": ("21ba40db6eeb9efd", "21ba40db6eeb9efd"),
    "tickets": ("211583055e533222", "604fb6792aa6dfb5"),
    "disease": ("d751496ca3bd25df", "d751496ca3bd25df"),
    "racial": ("19efac0c531be2df", "19efac0c531be2df"),
    "butterfly": ("301b0e301ab8257c", "085b32046ab36775"),
    "survival": ("e196d7c7819c9915", "65e66606618bc183"),
}


def test_other_workloads_emit_the_same_source():
    assert set(UNGROUPED_SOURCES) == set(workload_names()) - {"votes"}
    for name, want in UNGROUPED_SOURCES.items():
        model = load_workload(name, scale=0.25)
        x = model.initial_position(np.random.default_rng(0))
        leaf, root = tape_compile._trace(model._logp_var, x)
        plain = CompiledTape(root, leaf)
        with suffstats.override(True):
            built = CompiledFunction(model._logp_var)._build_tape(leaf, root)
        got = tuple(
            hashlib.sha256(tape._source.encode()).hexdigest()[:16]
            for tape in (plain, built)
        )
        assert got == want, name


# ---------------------------------------------------------------------------
# The batched programs: lanes run the one schedule
# ---------------------------------------------------------------------------

def _settled(tape, model, width=4):
    """A batched tape over ``tape`` past both probations."""
    engine = BatchedTape(tape, width)
    x = model.initial_position(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    xs = {i: x + 0.05 * rng.standard_normal(model.dim) for i in range(width)}
    while not engine.stable:
        engine.evaluate(xs)
    assert engine.demotions == 0
    return engine


def _proven(model):
    x = model.initial_position(np.random.default_rng(0))
    for _ in range(1 + verify.PROBATION["tape"]):
        model.compiled_logp_and_grad(x)
    return model.proven_tape()


#: sha256 (first 16 hex digits) of each suite workload's settled 4-lane
#: ``BatchedTape._source`` at scale 0.25, over the model's proven tape.
#: The batched program comes from the solo programs' generator, given a
#: lane axis; the nine entries without an SPD op were taken before it did,
#: from the batched engine's own generator, and hold unchanged. votes'
#: entry is its program running the solo schedule's SPD group as one
#: factor per live lane. A change to a model's graph or to the emitted
#: form changes its entry.
BATCHED_SOURCES = {
    "12cities": "db6bdeefc414fd74",
    "ad": "342e815044feee67",
    "ode": "c0d94bdbf300ff72",
    "memory": "e32577a2319afb5e",
    "votes": "893d7e68a565e972",
    "tickets": "33cd8b57f9ca4684",
    "disease": "e2a670508b86d0f3",
    "racial": "384ca2cd850de2fa",
    "butterfly": "909602b31c12eaa1",
    "survival": "3cbc19286acbbd84",
}


def test_batched_programs_emit_the_same_source():
    assert set(BATCHED_SOURCES) == set(workload_names())
    for name, want in BATCHED_SOURCES.items():
        model = load_workload(name, scale=0.25)
        engine = _settled(_proven(model), model)
        got = hashlib.sha256(engine._source.encode()).hexdigest()[:16]
        assert got == want, name
