"""Property-based and adversarial tests for the suffstats rewrite pass.

:func:`repro.autodiff.suffstats.rewrite_graph` is exercised directly (no
replay-cost gate in the way) on randomly generated likelihood graphs:
random data shapes and values, empty data, single observations, NaN and
``-inf`` likelihood paths. Every rewritten graph must agree with the
original tape on value and gradient at multiple evaluation points — the
rewrite reassociates sums, so agreement is to tight tolerances rather
than bitwise. The gather rule reassociates nothing, so its battery holds
the pass with the rule to the pass without it bit for bit.

The adversarial half checks the safety rails around the pass: the
``REPRO_SUFFSTATS`` kill switch, ``add_data`` invalidating a rewritten
tape, and the calibrate-then-validate demotion protocol cleanly falling
back to the unrewritten tape when a (deliberately poisoned) rewrite
disagrees with the interpreted reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import ops, suffstats
from repro.autodiff.compile import CompiledFunction, CompiledTape
from repro.autodiff.tape import constant, var
from repro.models.model import BayesianModel, ParameterSpec

RTOL = 1e-9
ATOL = 1e-9

data_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(0, 40),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


def _compare(builder, x0, extra_points=(), rtol=RTOL, atol=ATOL):
    """Rewrite ``builder``'s graph and check value/grad agreement.

    Returns the :class:`~repro.autodiff.suffstats.RewriteInfo` so callers
    can assert on what folded. Comparison covers the recording point plus
    ``extra_points`` — a rewrite that bakes record-time *parameter* values
    into constants (instead of only data) would pass at ``x0`` and fail
    elsewhere.
    """
    x0 = np.asarray(x0, dtype=float)
    leaf = var(x0)
    root = builder(leaf)
    new_root, info = suffstats.rewrite_graph(root, leaf)
    base = CompiledTape(root, leaf)
    rewritten = (
        None if new_root is root
        else CompiledTape(new_root, leaf, signature=base.signature,
                          rewrite_info=info)
    )
    for x in (x0, *extra_points):
        x = np.asarray(x, dtype=float)
        value, grad = base.value_and_grad(x)
        if rewritten is None:
            continue
        r_value, r_grad = rewritten.value_and_grad(x)
        assert np.isclose(r_value, value, rtol=rtol, atol=atol,
                          equal_nan=True), (
            f"value mismatch at {x}: rewritten={r_value!r} original={value!r}"
        )
        assert np.allclose(r_grad, grad, rtol=rtol, atol=atol,
                           equal_nan=True), (
            f"gradient mismatch at {x}:\n{r_grad}\nvs\n{grad}"
        )
    return info, rewritten is not None


class TestRandomGraphs:
    @given(data_arrays, st.floats(-3, 3), st.floats(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_normal_likelihood(self, y, mu, log_sigma):
        """Σ (y - mu)² / (2σ²) folds into sufficient statistics of y."""
        def build(z):
            loc = ops.take(z, np.array([0]))
            scale = ops.exp(ops.take(z, np.array([1])))
            resid = ops.sub(constant(y), loc)
            return ops.neg(ops.reduce_sum(
                ops.div(ops.square(resid), ops.mul(2.0, ops.square(scale)))
            ))

        info, rewrote = _compare(
            build, [mu, log_sigma],
            extra_points=([mu + 0.7, log_sigma - 0.4], [0.0, 0.0]),
        )
        if y.size > 1:
            assert rewrote and info.folded_elements > 0, (
                f"expected a fold for n={y.size}: {info}"
            )

    @given(
        data_arrays,
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_residuals_segment_sum(self, y, k, data):
        """Σ (y - θ[group])² becomes per-group segment statistics."""
        idx = np.asarray(
            data.draw(st.lists(st.integers(0, k - 1), min_size=y.size,
                               max_size=y.size)),
            dtype=np.int64,
        )
        x0 = np.linspace(-1.0, 1.0, k)

        def build(z):
            pred = ops.take(z, idx)
            resid = ops.sub(constant(y), pred)
            return ops.neg(ops.reduce_sum(ops.square(resid)))

        info, rewrote = _compare(
            build, x0, extra_points=(x0 + 0.3, np.zeros(k)),
        )
        if y.size > 2 * k + 2:
            assert rewrote and info.folded_elements > 0, (
                f"expected a fold for n={y.size}, k={k}: {info}"
            )

    @given(data_arrays, st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_exp_rate_split(self, logc, theta):
        """Σ exp(logc + θ) splits into exp(θ)·Σ exp(logc)."""
        def build(z):
            rate = ops.exp(ops.add(constant(logc), ops.take(z, np.zeros(
                max(logc.size, 1), dtype=np.int64) * 0)))
            return ops.reduce_sum(rate)

        # A scalar parameter broadcast over the data via a constant-index
        # gather — the common Poisson log-rate offset shape.
        def build_broadcast(z):
            loc = ops.take(z, np.array([0]))
            return ops.reduce_sum(ops.exp(ops.add(constant(logc), loc)))

        _compare(build_broadcast, [theta],
                 extra_points=([theta - 1.0], [0.0]))


class TestEdgeShapes:
    def test_empty_data(self):
        """n = 0: the folded sum is 0.0 with a zero gradient."""
        y = np.zeros(0)

        def build(z):
            resid = ops.sub(constant(y), ops.take(z, np.array([0])))
            return ops.neg(ops.reduce_sum(ops.square(resid)))

        info, _ = _compare(build, [1.5], extra_points=([0.0],))

    def test_single_observation(self):
        y = np.array([2.5])

        def build(z):
            resid = ops.sub(constant(y), ops.take(z, np.array([0])))
            return ops.neg(ops.reduce_sum(ops.square(resid)))

        _compare(build, [1.0], extra_points=([3.0],))

    def test_vector_root_is_left_alone(self):
        """The pass only fires on scalar roots (a logp is 0-d)."""
        leaf = var(np.array([1.0, 2.0]))
        root = ops.mul(constant(np.array([3.0, 4.0])), leaf)
        new_root, info = suffstats.rewrite_graph(root, leaf)
        assert new_root is root
        assert info.folded_ops == 0

    def test_nan_in_data_propagates(self):
        """A NaN observation must surface as a NaN logp either way."""
        y = np.array([1.0, np.nan, 3.0, 4.0])

        def build(z):
            resid = ops.sub(constant(y), ops.take(z, np.array([0])))
            return ops.neg(ops.reduce_sum(ops.square(resid)))

        _compare(build, [1.0], extra_points=([2.0],))

    def test_neg_inf_from_log_of_zero(self):
        """log(0) in a folded constant subtree stays -inf."""
        y = np.array([0.0, 1.0, 2.0])

        def build(z):
            # Σ log(y) is a pure-data subtree (folds to a -inf constant);
            # the parameter enters additively.
            return ops.add(
                ops.reduce_sum(ops.log(constant(y))),
                ops.reduce_sum(ops.mul(constant(np.ones(3)),
                                       ops.take(z, np.array([0, 0, 0])))),
            )

        with np.errstate(divide="ignore"):
            _compare(build, [1.0], extra_points=([5.0],))

    def test_partial_domain_commute_guarded(self):
        """log may only commute over a gather that covers its whole base.

        With a base entry never gathered, commuting log inside would
        evaluate log on the uncovered (here negative) entry and could leak
        a spurious NaN. The rewrite must either skip the commute or stay
        equivalent — this asserts equivalence at a point where the
        uncovered entry is negative.
        """
        idx = np.array([0, 1, 0, 1, 0], dtype=np.int64)  # entry 2 uncovered

        def build(z):
            gathered = ops.take(z, idx)
            return ops.reduce_sum(
                ops.mul(constant(np.arange(1.0, 6.0)), ops.log(gathered))
            )

        _compare(build, [2.0, 3.0, -1.0],
                 extra_points=([0.5, 4.0, -2.0],))


# ---------------------------------------------------------------------------
# The gather rule: take(s, j) of an affine s rebuilt on the rows j
# ---------------------------------------------------------------------------

#: One step of a random affine chain: what it does to the running node ``s``.
_STEPS = ("add", "add_scalar", "rsub", "mul", "div", "neg", "add_take",
          "take_sub")

_factors = st.sampled_from([-2.0, -0.5, 0.25, 1.0, 3.0])


@st.composite
def _gather_cases(draw, data=st.floats(-3.0, 3.0)):
    """A random affine chain ``s`` over ``n`` rows, a sorted row set ``j``
    and the arrays the graph reads. ``data`` draws the added constants."""
    n = draw(st.integers(0, 10))
    m = n + draw(st.integers(1, 3))  # >= n: an uncomposed index stays in range
    index = hnp.arrays(np.int64, n, elements=st.integers(0, m - 1))
    steps = []
    for kind in draw(st.lists(st.sampled_from(_STEPS), min_size=1, max_size=4)):
        if kind in ("mul", "div"):
            operand = draw(hnp.arrays(float, n, elements=_factors))
        elif kind in ("add", "rsub"):
            operand = draw(hnp.arrays(float, n, elements=data))
        elif kind == "add_scalar":
            operand = draw(st.floats(-2.0, 2.0))
        elif kind in ("add_take", "take_sub"):
            operand = draw(index)
        else:
            operand = None
        steps.append((kind, operand))
    mask = draw(hnp.arrays(bool, n))
    return {
        "m": m,
        "first": draw(index),
        "steps": steps,
        "rows": np.flatnonzero(mask),
        "summed": n > 0 and draw(st.booleans()),
    }


def _chain(z, case):
    s = ops.take(z, case["first"])
    for kind, operand in case["steps"]:
        if kind in ("add", "add_scalar"):
            s = s + constant(operand)
        elif kind == "rsub":
            s = constant(operand) - s
        elif kind == "mul":
            s = constant(operand) * s
        elif kind == "div":
            s = s / constant(operand)
        elif kind == "neg":
            s = -s
        elif kind == "add_take":
            s = s + ops.take(z, operand)
        else:
            s = ops.take(z, operand) - s
    return s


def _gather_graph(case, source=lambda s: s, extra=None):
    """logp = Σ sin(t)·cos(t) over t = take(source(s), rows), which no rule
    folds, plus a sum the pass does fold (so the pass runs at all) and, if
    ``case["summed"]``, a folded Σ w⊙s that leaves ``s`` no other consumer
    (``w`` broadcasts ``s`` up, which the pass folds whatever ``s`` is)."""
    m = case["m"]
    y = np.linspace(-1.0, 2.0, 3 * m)

    def build(z):
        s = source(_chain(z, case))
        t = ops.take(s, case["rows"])
        lp = ops.reduce_sum(ops.sin(t) * ops.cos(t))
        lp = lp + ops.reduce_sum(
            constant(y) * ops.take(z, np.arange(3 * m) % m)
        )
        if case["summed"]:
            w = np.full((2,) + s.value.shape, 0.5)
            lp = lp + ops.reduce_sum(constant(w) * s)
        if extra is not None:
            lp = lp + extra(s)
        return lp

    return build


def _with_and_without_rule(build, m):
    """Tapes of the pass with and without the gather rule, and points."""
    rng = np.random.default_rng(m)
    x0 = rng.standard_normal(m)
    leaf = var(x0)
    root = build(leaf)
    with np.errstate(all="ignore"):
        new_root, _ = suffstats.rewrite_graph(root, leaf)
        with mock.patch.object(
            suffstats._Rewriter, "gather_rows", lambda self, root: root
        ):
            old_root, _ = suffstats.rewrite_graph(root, leaf)
    assert new_root is not root and old_root is not root
    points = (x0, x0 + rng.standard_normal(m), 4.0 * rng.standard_normal(m))
    return CompiledTape(old_root, leaf), CompiledTape(new_root, leaf), points


def _fired(old, new) -> bool:
    return new._source != old._source


def _assert_same_bits(old, new, points):
    for x in points:
        with np.errstate(all="ignore"):
            value, grad = old.value_and_grad(x)
            r_value, r_grad = new.value_and_grad(x)
        assert np.float64(r_value).tobytes() == np.float64(value).tobytes(), (
            f"value at {x}: {r_value!r} with the rule, {value!r} without"
        )
        assert r_grad.tobytes() == grad.tobytes(), (
            f"gradient at {x}:\n{r_grad}\nwith the rule, without:\n{grad}"
        )


def _rule_case(case):
    """The battery's property: on an admissible graph the rule fires, and
    value and gradient keep their bits."""
    old, new, points = _with_and_without_rule(_gather_graph(case), case["m"])
    assert _fired(old, new)
    assert new.n_instructions < old.n_instructions
    assert new.buffer_elements <= old.buffer_elements
    _assert_same_bits(old, new, points)


class TestGatherRows:
    @given(_gather_cases())
    @settings(max_examples=60, deadline=None)
    def test_fires_and_keeps_every_bit(self, case):
        _rule_case(case)

    @given(_gather_cases(data=st.sampled_from(
        [np.nan, -np.inf, np.inf, 0.0, -1.5, 2.0]
    )))
    @settings(max_examples=30, deadline=None)
    def test_nan_and_inf_data_keep_every_bit(self, case):
        _rule_case(case)

    def test_empty_index(self):
        for n in (0, 4):
            case = {"m": n + 1, "first": np.arange(n), "rows": np.arange(0),
                    "steps": [("add", np.ones(n))], "summed": False}
            _rule_case(case)

    @given(_gather_cases(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_duplicate_or_unsorted_rows_do_not_fire(self, case, data):
        n = case["first"].size
        if n == 0:
            return
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2 * n))
        rows = np.array(rows)
        if np.all(np.diff(rows) > 0):
            rows = rows[::-1]
        case["rows"] = rows
        old, new, points = _with_and_without_rule(_gather_graph(case), case["m"])
        assert not _fired(old, new)
        _assert_same_bits(old, new, points)

    @pytest.mark.parametrize("kernel", ["exp", "log"])
    @given(case=_gather_cases())
    @settings(max_examples=15, deadline=None)
    def test_exp_and_log_sources_do_not_fire(self, kernel, case):
        case["summed"] = False
        source = getattr(ops, kernel)
        old, new, points = _with_and_without_rule(
            _gather_graph(case, source=source), case["m"]
        )
        assert not _fired(old, new)
        _assert_same_bits(old, new, points)

    @given(_gather_cases())
    @settings(max_examples=20, deadline=None)
    def test_a_non_gather_consumer_keeps_the_source(self, case):
        build = _gather_graph(
            case, extra=lambda s: ops.reduce_sum(ops.sin(s) * ops.cos(s))
        )
        old, new, points = _with_and_without_rule(build, case["m"])
        assert not _fired(old, new)
        _assert_same_bits(old, new, points)

    @pytest.mark.parametrize("factor", [np.inf, np.nan, 0.0])
    def test_a_non_finite_or_zero_factor_does_not_fire(self, factor):
        operand = np.array([2.0, factor, 1.0])
        for kind in ("mul", "div"):
            if kind == "mul" and factor == 0.0:
                continue  # a zero factor is a finite one
            case = {"m": 4, "first": np.array([0, 1, 3]), "rows": np.array([0, 2]),
                    "steps": [(kind, operand)], "summed": False}
            old, new, points = _with_and_without_rule(_gather_graph(case), 4)
            assert not _fired(old, new)
            _assert_same_bits(old, new, points)

    def test_an_uncomposed_index_fails_the_battery(self):
        """Mutation check: gathering with the outer rows alone instead of
        ``i[rows]`` must be caught."""
        with mock.patch.object(suffstats, "_compose", lambda inner, rows: rows):
            with pytest.raises(AssertionError):
                given(_gather_cases())(
                    settings(max_examples=60, deadline=None, database=None,
                             report_multiple_bugs=False)(
                        _rule_case
                    )
                )()


#: The shapes the service's benchmark serves: 12cities, votes and ad at
#: scale 0.5, tickets at 1.0, survival at 0.5.
SERVED_SHAPES = (
    ("12cities", 0.5), ("tickets", 1.0), ("votes", 0.5), ("ad", 0.5),
    ("survival", 0.5),
)


def test_cost_model_folds_tickets_and_survival_among_served_shapes():
    """Pins the cost model's decisions: a change to ``INSTR_COST_ELEMENTS``
    or to a rule that flips a served shape's tape fails here, naming it."""
    from repro.autodiff import compile as tape_compile
    from repro.suite import load_workload

    folded = set()
    for name, scale in SERVED_SHAPES:
        model = load_workload(name, scale=scale)
        x = model.initial_position(np.random.default_rng(0))
        leaf, root = tape_compile._trace(model._logp_var, x)
        with suffstats.override(True):
            tape = CompiledFunction(model._logp_var)._build_tape(leaf, root)
        if tape.rewrite_info is not None:
            folded.add(name)
    assert folded == {"tickets", "survival"}


class _TinyNormal(BayesianModel):
    """Minimal conjugate-style model for the integration-level tests."""

    name = "tiny-normal"

    def __init__(self, y: np.ndarray) -> None:
        super().__init__()
        self.add_data(y=np.asarray(y, dtype=float))

    @property
    def params(self):
        return [ParameterSpec("mu", 1), ParameterSpec("log_sigma", 1)]

    def log_joint(self, p):
        y = constant(self.data("y"))
        sigma2 = ops.exp(ops.mul(2.0, p["log_sigma"]))
        resid = ops.sub(y, p["mu"])
        fit = ops.div(ops.reduce_sum(ops.square(resid)),
                      ops.mul(2.0, sigma2))
        norm = ops.mul(float(self.data("y").size), p["log_sigma"])
        prior = ops.mul(0.5, ops.add(ops.square(p["mu"]),
                                     ops.square(p["log_sigma"])))
        return ops.neg(ops.reduce_sum(ops.add(ops.add(fit, norm), prior)))


def _count_traces(monkeypatch, model):
    """A one-element list counting ``model.log_joint`` calls from here on."""
    traces = [0]
    real = model.log_joint

    def counting(params):
        traces[0] += 1
        return real(params)

    monkeypatch.setattr(model, "log_joint", counting)
    return traces


def _scale_rewrite(monkeypatch, factor):
    """Make every rewrite return ``factor`` times what it should."""
    real_rewrite = suffstats.rewrite_graph

    def scaled(root, leaf):
        new_root, info = real_rewrite(root, leaf)
        if new_root is root:
            return root, info
        return ops.mul(new_root, factor), info

    monkeypatch.setattr(suffstats, "rewrite_graph", scaled)


class TestIntegration:
    def test_kill_switch_disables_rewrite(self):
        model = _TinyNormal(np.linspace(-2, 2, 64))
        with suffstats.override(False):
            model.compiled_logp_and_grad(np.array([0.3, -0.2]))
        stats = model.tape_stats()
        assert stats["suffstats_active"] == 0
        assert stats["suffstats_folded_ops"] == 0

    def test_add_data_invalidates_rewritten_tape(self):
        rng = np.random.default_rng(7)
        model = _TinyNormal(rng.normal(size=128))
        x = np.array([0.4, -0.1])
        with suffstats.override(True), suffstats.force_override(True):
            model.compiled_logp_and_grad(x)
            assert model.tape_stats()["suffstats_active"] == 1

            # New data: the folded constants are stale; the tape must be
            # re-recorded (and re-rewritten) against the new arrays.
            new_y = rng.normal(loc=3.0, size=256)
            model.add_data(y=new_y)
            assert model.tape_stats() is None  # compiled state dropped

            value, grad = model.compiled_logp_and_grad(x)
            ref_value, ref_grad = model.logp_and_grad(x)
            assert np.isclose(value, ref_value, rtol=1e-9, atol=1e-9)
            assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-9)
            stats = model.tape_stats()
            assert stats["suffstats_active"] == 1
            assert stats["suffstats_demotions"] == 0

    def test_poisoned_rewrite_demotes_cleanly(self, monkeypatch):
        """A rewrite that fails tolerance validation must demote, not lie.

        The pass is monkeypatched to scale its output by 1.001 — far
        outside the validation tolerance. The wrapper must raise a
        RuntimeWarning, count a demotion, recompile without the rewrite,
        and keep returning interpreted-exact results throughout.
        """
        _scale_rewrite(monkeypatch, 1.001)

        model = _TinyNormal(np.linspace(-1, 1, 64))
        traces = _count_traces(monkeypatch, model)
        x = np.array([0.2, 0.1])
        with suffstats.override(True), suffstats.force_override(True):
            # First call records (and returns the interpreted trace values);
            # the validation pass runs on the next call and must catch the
            # poison there.
            model.compiled_logp_and_grad(x)
            with pytest.warns(RuntimeWarning, match="demot"):
                value, grad = model.compiled_logp_and_grad(x)
            # Record + one validation trace: stepping down to the plain
            # tape does not trace the model again.
            assert traces == [2]
            # The rejected probation call hands back the reference's numbers.
            ref_value, ref_grad = model.logp_and_grad(x)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

            stats = model.tape_stats()
            assert stats["suffstats_demotions"] == 1
            # The reinstalled tape runs unrewritten from here on.
            assert stats["suffstats_active"] == 0

            # Later calls keep working on the demoted (plain) tape, which
            # serves its own probation call first — bitwise this time.
            validations = stats["validations"]
            value2, _ = model.compiled_logp_and_grad(x + 0.5)
            ref2, _ = model.logp_and_grad(x + 0.5)
            assert value2 == ref2
            stats = model.tape_stats()
            assert stats["validations"] == validations + 1
            assert stats["fallbacks"] == 0 and stats["replays"] == 2

    def test_demotion_does_not_count_a_second_record(self, monkeypatch):
        """The plain tape a demotion installs was lowered from the original
        recording, so ``records`` stays at one."""
        _scale_rewrite(monkeypatch, 1.001)
        model = _TinyNormal(np.linspace(-1, 1, 64))
        x = np.array([0.2, 0.1])
        with suffstats.override(True), suffstats.force_override(True):
            model.compiled_logp_and_grad(x)
            with pytest.warns(RuntimeWarning, match="demot"):
                model.compiled_logp_and_grad(x)
        stats = model.tape_stats()
        assert stats["suffstats_demotions"] == 1
        assert stats["records"] == 1

    def test_tolerable_drift_is_accepted_as_approximate(self, monkeypatch):
        """Sub-tolerance drift marks the tape approximate, not demoted."""
        _scale_rewrite(monkeypatch, 1.0 + 1e-13)

        model = _TinyNormal(np.linspace(-1, 1, 64))
        x = np.array([0.2, 0.1])
        with suffstats.override(True), suffstats.force_override(True):
            model.compiled_logp_and_grad(x)  # record; validation is next
            value, grad = model.compiled_logp_and_grad(x)
            ref_value, ref_grad = model.logp_and_grad(x)
            assert np.isclose(value, ref_value, rtol=1e-10)
            assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)
            stats = model.tape_stats()
            assert stats["suffstats_demotions"] == 0
            assert stats["suffstats_active"] == 1
            assert stats["suffstats_exact"] == 0  # validated approximate
            assert stats["validations"] == 1
            # The accepted probation call handed back the rewritten tape's
            # own numbers — what every later replay returns — not the
            # interpreted reference it was compared with. Executors that
            # spend the probation call at different points of a run stay
            # bit-identical to each other only because of this.
            assert value != ref_value
            replayed, replayed_grad = model.compiled_logp_and_grad(x)
            assert model.tape_stats()["validations"] == 1
            assert value == replayed
            assert np.array_equal(grad, replayed_grad)

    def test_bit_identical_rewrite_validates_exact(self, monkeypatch):
        """A rewritten tape whose replay matches the trace bit for bit is
        accepted in exact mode, under the same probation call."""
        real_rewrite = suffstats.rewrite_graph

        def relabelled(root, leaf):
            _new_root, info = real_rewrite(root, leaf)
            return ops.mul(root, 1.0), info

        monkeypatch.setattr(suffstats, "rewrite_graph", relabelled)

        model = _TinyNormal(np.linspace(-1, 1, 64))
        x = np.array([0.2, 0.1])
        with suffstats.override(True), suffstats.force_override(True):
            model.compiled_logp_and_grad(x)
            value, grad = model.compiled_logp_and_grad(x + 0.5)
            ref_value, ref_grad = model.logp_and_grad(x + 0.5)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
            stats = model.tape_stats()
            assert stats["suffstats_active"] == 1
            assert stats["suffstats_exact"] == 1
            assert stats["suffstats_demotions"] == 0
            assert stats["validations"] == 1
