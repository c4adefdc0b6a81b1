"""``BayesianModel.logp`` is the gradient call's scalar, bit for bit.

The gradient-free engines (MH, slice), the serve layer's poison check and
the PSIS gate evaluate ``model.logp`` — since the value rung, a forward-only
replay of the compiled tape (or a forward-only trace with tapes off) instead
of a full replay whose gradient was thrown away. These tests pin that the
number is the same one on every path and at every kind of point a sampler
can propose, and that the path claimed is the path taken.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autodiff import compile as tape_compile
from repro.autodiff import suffstats
from repro.suite.registry import load_workload, workload_names

SCALE = 0.25

#: Every unconstrained coordinate this far out overflows an ``exp`` somewhere
#: in every suite workload: the density is ``-inf`` or ``nan`` before the
#: rejection rule maps it to ``-inf``.
FAR_OUT = 400.0


def _points(model):
    rng = np.random.default_rng(3)
    x0 = model.initial_position(rng, jitter=0.0)
    jittered = [x0 + 0.05 * rng.normal(size=x0.shape) for _ in range(4)]
    return [x0, *jittered, np.full_like(x0, FAR_OUT), jittered[0]]


def _votes_not_positive_definite(model):
    """amplitude e^10, lengthscale e^30, noise e^-30: the kernel matrix is
    numerically rank one and ``cholesky`` raises ``LinAlgError``."""
    x = model.initial_position(np.random.default_rng(0), jitter=0.0)
    x[:3] = (10.0, 30.0, -30.0)
    return x


@pytest.mark.parametrize("compiled", [True, False], ids=["tapes", "no-tapes"])
@pytest.mark.parametrize("workload", workload_names())
def test_logp_is_the_gradient_calls_value(workload, compiled):
    with tape_compile.override(compiled), suffstats.override(False):
        model = load_workload(workload, scale=SCALE)
        points = _points(model)
        if workload == "votes":
            # After the jittered points, so it is raised from inside the
            # proven value program when tapes are on.
            bad = _votes_not_positive_definite(model)
            with pytest.raises(np.linalg.LinAlgError):
                tape_compile.trace_value(model._logp_var, bad)
            points += [bad, points[1]]
        rejected = 0
        for x in points:
            value = model.logp(x)
            assert isinstance(value, float)
            compiled_value, compiled_grad = model.compiled_logp_and_grad(x)
            interpreted_value, _ = model.logp_and_grad(x)
            assert value == compiled_value == interpreted_value
            if value == float("-inf"):
                rejected += 1
                assert not compiled_grad.any()
        assert rejected == (2 if workload == "votes" else 1)
        stats = model.tape_stats()
    if compiled:
        # The first logp records; every later one ran the value program
        # (its first beside the full replay), the raising one included.
        assert stats["value_replays"] == len(points) - 1
        assert stats["fallbacks"] == 0 and stats["records"] == 1
    else:
        # Nothing recorded, nothing replayed: logp and the direct
        # compiled_logp_and_grad call each interpreted every point.
        assert stats["records"] == 0 and stats["replays"] == 0
        assert stats["fallbacks"] == 2 * len(points)


@pytest.mark.parametrize("workload", ["survival", "tickets", "12cities"])
def test_value_program_of_a_rewritten_tape_matches_its_full_replay(workload):
    """With the sufficient-statistics rewrite on, a tape agrees with
    interpretation only within tolerance — but its value program and its
    full replay run the same forward kernels, so they agree bitwise."""
    model = load_workload(workload, scale=SCALE)
    points = _points(model)
    for x in points[:3]:
        # Recording and the tape's own probation answer with the
        # interpreted reference; compare once both programs are proven.
        model.logp(x)
    for x in points:
        assert model.logp(x) == model.compiled_logp_and_grad(x)[0]
    stats = model.tape_stats()
    assert stats["value_replays"] == len(points) + 1
    assert stats["suffstats_active"] == (workload != "12cities")


def test_tapes_off_logp_traces_forward_only(monkeypatch):
    """No backward sweep and no recording when tapes are off."""
    from repro.autodiff import tape as tape_mod

    def no_backward(*args, **kwargs):
        raise AssertionError("logp ran a backward sweep")

    with tape_compile.override(False):
        model = load_workload("12cities", scale=SCALE)
        x = model.initial_position(np.random.default_rng(0))
        expected = model.logp_and_grad(x)[0]
        monkeypatch.setattr(tape_mod, "backward", no_backward)
        assert model.logp(x) == expected
        stats = model.tape_stats()
        assert stats["fallbacks"] == 1 and stats["records"] == 0


def test_broken_tape_logp_traces_forward_only(monkeypatch):
    from repro.autodiff import tape as tape_mod

    model = load_workload("12cities", scale=SCALE)
    x = model.initial_position(np.random.default_rng(0))
    expected = model.logp_and_grad(x)[0]
    model.compiled_logp_and_grad(x)
    model._compiled._broken = "forced by the test"
    monkeypatch.setattr(
        tape_mod, "backward",
        lambda *a, **k: pytest.fail("logp ran a backward sweep"),
    )
    assert model.logp(x) == expected
    assert model.tape_stats()["fallbacks"] == 1


def test_interleaved_threads_match_a_single_thread():
    """The value program and the full replay write the same forward
    buffers; one lock serializes them. Threads mixing ``logp`` and the
    gradient call on one model must get single-threaded answers."""
    model = load_workload("votes", scale=SCALE)
    rng = np.random.default_rng(5)
    x0 = model.initial_position(rng, jitter=0.0)
    xs = [x0 + 0.05 * rng.normal(size=x0.shape) for _ in range(40)]
    reference = load_workload("votes", scale=SCALE)
    with suffstats.override(False):
        expected = [reference.compiled_logp_and_grad(x) for x in xs]
        for x in xs[:3]:
            model.logp(x)  # record, prove the tape, prove the value program

        failures = []

        def values():
            for _ in range(3):
                for x, (value, _) in zip(xs, expected):
                    if model.logp(x) != value:
                        failures.append("logp")

        def gradients():
            for _ in range(3):
                for x, (value, grad) in zip(xs, expected):
                    got = model.compiled_logp_and_grad(x)
                    if got[0] != value or not np.array_equal(got[1], grad):
                        failures.append("logp_and_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=target, daemon=True)
                for target in (values, gradients, values, gradients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert model.tape_stats()["value_replays"] >= 2 * 3 * len(xs)
