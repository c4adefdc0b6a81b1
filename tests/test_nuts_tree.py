"""NUTS's iterative subtree builder against the recursive one it replaced.

``_recursive_tree`` is the recursive doubling of Hoffman & Gelman's
Algorithm 6 as the sampler ran it before its builder became iterative,
kept here as the oracle. Both builders are driven over the same targets —
a quadratic whose leaves may be drawn to answer ``-inf`` or NaN, a
diverging energy or a NaN gradient — and must agree bit for bit on
everything the sampler reads from a subtree, and on the generator state
they leave behind: the same uniforms drawn at the same merges.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.hmc import kinetic_energy, leapfrog_steps
from repro.inference.nuts import DELTA_MAX, NUTS


@dataclass
class _Tree:
    x_minus: np.ndarray
    p_minus: np.ndarray
    grad_minus: np.ndarray
    x_plus: np.ndarray
    p_plus: np.ndarray
    grad_plus: np.ndarray
    x_prop: np.ndarray
    logp_prop: float
    grad_prop: np.ndarray
    n_valid: int
    keep_going: bool
    sum_accept: float
    n_states: int
    n_evals: int
    diverged: bool


def _no_u_turn(x_minus, x_plus, p_minus, p_plus, inv_mass) -> bool:
    span = x_plus - x_minus
    return (
        float(span @ (inv_mass * p_minus)) >= 0.0
        and float(span @ (inv_mass * p_plus)) >= 0.0
    )


def _recursive_tree(x, momentum, grad, log_u, direction, depth, step_size,
                    inv_mass, joint0, rng):
    """The oracle: the recursive doubling, as a step generator."""
    if depth == 0:
        x_new, p_new, logp_new, grad_new, n_evals = yield from leapfrog_steps(
            x, momentum, grad, direction * step_size, inv_mass
        )
        joint_new = (
            logp_new - kinetic_energy(p_new, inv_mass)
            if np.isfinite(logp_new)
            else -np.inf
        )
        n_valid = int(log_u <= joint_new)
        diverged = bool(log_u - DELTA_MAX > joint_new)
        accept = float(np.exp(min(0.0, joint_new - joint0))) if np.isfinite(joint_new) else 0.0
        return _Tree(
            x_new, p_new, grad_new, x_new, p_new, grad_new,
            x_new, logp_new, grad_new, n_valid, not diverged,
            accept, 1, n_evals, diverged,
        )

    left = yield from _recursive_tree(
        x, momentum, grad, log_u, direction, depth - 1,
        step_size, inv_mass, joint0, rng,
    )
    if not left.keep_going:
        return left

    if direction == -1:
        right = yield from _recursive_tree(
            left.x_minus, left.p_minus, left.grad_minus,
            log_u, direction, depth - 1, step_size, inv_mass, joint0, rng,
        )
        x_minus, p_minus, grad_minus = right.x_minus, right.p_minus, right.grad_minus
        x_plus, p_plus, grad_plus = left.x_plus, left.p_plus, left.grad_plus
    else:
        right = yield from _recursive_tree(
            left.x_plus, left.p_plus, left.grad_plus,
            log_u, direction, depth - 1, step_size, inv_mass, joint0, rng,
        )
        x_plus, p_plus, grad_plus = right.x_plus, right.p_plus, right.grad_plus
        x_minus, p_minus, grad_minus = left.x_minus, left.p_minus, left.grad_minus

    n_valid = left.n_valid + right.n_valid
    if right.n_valid > 0 and rng.uniform() < right.n_valid / max(n_valid, 1):
        x_prop, logp_prop, grad_prop = right.x_prop, right.logp_prop, right.grad_prop
    else:
        x_prop, logp_prop, grad_prop = left.x_prop, left.logp_prop, left.grad_prop

    keep_going = right.keep_going and _no_u_turn(
        x_minus, x_plus, p_minus, p_plus, inv_mass
    )
    return _Tree(
        x_minus, p_minus, grad_minus, x_plus, p_plus, grad_plus,
        x_prop, logp_prop, grad_prop, n_valid, keep_going,
        left.sum_accept + right.sum_accept,
        left.n_states + right.n_states,
        left.n_evals + right.n_evals,
        left.diverged or right.diverged,
    )


#: What a drawn leaf answers instead of the quadratic's own value.
EVENTS = ("-inf", "nan", "diverge", "nan_grad")


class _Target:
    """A quadratic ``-0.5 * x·(x * precision)`` whose ``k``-th evaluation
    answers ``events[k]`` instead; counts its evaluations."""

    def __init__(self, precision, events):
        self.precision, self.events, self.calls = precision, events, 0

    def __call__(self, x):
        event = self.events.get(self.calls)
        self.calls += 1
        grad = -x * self.precision
        logp = float(-0.5 * (x @ (x * self.precision)))
        if event == "-inf":
            return -np.inf, grad
        if event == "nan":
            return np.nan, grad
        if event == "diverge":
            return logp - 10 * DELTA_MAX, grad
        if event == "nan_grad":
            return logp, np.full_like(x, np.nan)
        return logp, grad


def _drive(gen, target):
    try:
        x = next(gen)
        while True:
            x = gen.send(target(np.array(x)))
    except StopIteration as stop:
        return stop.value


def _same(a, b) -> bool:
    """Byte-equal as float64 arrays: signed zeros and NaN payloads too."""
    return (np.asarray(a, dtype=float).tobytes()
            == np.asarray(b, dtype=float).tobytes())


@st.composite
def _case(draw):
    dim = draw(st.integers(1, 4))
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    vector = st.lists(floats, min_size=dim, max_size=dim).map(np.array)
    depth = draw(st.integers(0, 6))
    events = draw(st.dictionaries(
        st.integers(0, (1 << depth) - 1), st.sampled_from(EVENTS), max_size=3,
    ))
    return dict(
        x=draw(vector), p=draw(vector),
        precision=draw(st.lists(st.floats(0.05, 20.0), min_size=dim,
                                max_size=dim).map(np.array)),
        inv_mass=draw(st.lists(st.floats(0.1, 10.0), min_size=dim,
                               max_size=dim).map(np.array)),
        depth=depth, events=events,
        direction=draw(st.sampled_from((-1, 1))),
        step_size=draw(st.floats(1e-3, 2.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=400, deadline=None)
@given(_case())
def test_iterative_subtree_equals_the_recursive_one_bitwise(case):
    inv_mass, direction = case["inv_mass"], case["direction"]
    x, p = case["x"], case["p"]
    grad = -x * case["precision"]
    logp0 = float(-0.5 * (x @ (x * case["precision"])))
    joint0 = logp0 - kinetic_energy(p, inv_mass)
    seed_rng = np.random.default_rng(case["seed"])
    log_u = float(joint0 + np.log(seed_rng.uniform()))
    args = (log_u, direction, case["depth"], case["step_size"], inv_mass, joint0)

    old_rng = np.random.default_rng(case["seed"] + 1)
    new_rng = np.random.default_rng(case["seed"] + 1)
    old_target = _Target(case["precision"], case["events"])
    new_target = _Target(case["precision"], case["events"])
    with np.errstate(all="ignore"):
        old = _drive(_recursive_tree(x, p, grad, *args, old_rng), old_target)
        new = _drive(NUTS()._build_tree_steps(
            (x, p, grad, inv_mass * p), *args, new_rng
        ), new_target)

    # The same leaves, and the same uniforms drawn at the same merges.
    assert new_target.calls == old_target.calls == old.n_evals
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    # The outer end, the one the trajectory grows at.
    far = (
        (old.x_plus, old.p_plus, old.grad_plus) if direction == 1
        else (old.x_minus, old.p_minus, old.grad_minus)
    )
    end_x, end_p, end_grad, end_ip = new.end
    assert all(_same(a, b) for a, b in zip((end_x, end_p, end_grad), far))
    assert _same(end_ip, inv_mass * far[1])
    assert _same(new.x_prop, old.x_prop)
    assert _same(new.logp_prop, old.logp_prop)
    assert _same(new.grad_prop, old.grad_prop)
    assert new.n_valid == old.n_valid
    assert bool(new.keep_going) == bool(old.keep_going)
    assert _same(new.sum_accept, old.sum_accept)
    assert new.n_states == old.n_states == old.n_evals
    assert new.diverged == old.diverged


def test_a_stopped_subtree_merges_its_pending_left_siblings():
    """Depth 3 with leaf 6 diverging: the recursion returns leaf 6 from its
    depth-1 subtree unmerged, merges that with leaves 4–5 and the result
    with leaves 0–3; leaf 7 is never built."""
    x, p, inv_mass = np.array([0.3]), np.array([1.0]), np.array([1.0])
    precision = np.array([1e-3])  # nearly flat: no U-turn within 8 leaves
    joint0 = float(-0.5 * (x @ (x * precision))) - kinetic_energy(p, inv_mass)
    args = (joint0 - 5.0, 1, 3, 0.1, inv_mass, joint0)
    trees = []
    for build in (
        lambda rng: _recursive_tree(x, p, -x * precision, *args, rng),
        lambda rng: NUTS()._build_tree_steps(
            (x, p, -x * precision, inv_mass * p), *args, rng
        ),
    ):
        target = _Target(precision, {6: "diverge"})
        rng = np.random.default_rng(5)
        trees.append((_drive(build(rng), target), target.calls, rng.uniform()))
    (old, old_calls, old_next), (new, new_calls, new_next) = trees
    assert old_calls == new_calls == 7
    assert old.diverged and new.diverged and not new.keep_going
    assert new.n_valid == old.n_valid == 6 and new.n_states == 7
    assert _same(new.sum_accept, old.sum_accept)
    assert old_next == new_next
