"""How a replay fast path earns trust: one probation rule for every rung.

The fast paths form a ladder — interpreted trace, plain tape, rewritten
tape, lane-mode batch, vector-mode batch — and every rung is trusted the
same way: for its first :data:`PROBATION` calls it answers beside the rung
below, :func:`agreement` compares the two, and a mismatch steps down to
that rung for good. An accepted probation call returns the candidate's
numbers, a rejected one the reference's. ``docs/performance.md`` ("How a
fast path earns trust") has the whole table; this module is the part of
it that is code.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "EXACT", "APPROXIMATE", "MISMATCH", "PROBATION",
    "agreement", "rejection", "or_rejection", "value_or_rejection",
]

EXACT = "exact"
APPROXIMATE = "approximate"
MISMATCH = "mismatch"

#: Calls each kind of candidate answers beside its reference before it is
#: trusted; a fresh install (re-record, step-down) starts a fresh count.
PROBATION = {
    # A compiled tape against a fresh interpreted trace.
    "tape": 1,
    # A tape's forward-only value program against that tape's full replay;
    # starts once the tape has served its own.
    "value": 1,
    # Every vector-mode instruction, forward and backward, against lane mode.
    "vector_instruction": 2,
    # The batched engine's per-lane results against the solo tape; starts
    # once the vector instructions have served theirs.
    "batched_result": 1,
}


def agreement(got, ref, tolerance: Optional[Tuple[float, float]] = None) -> str:
    """Compare a candidate's answer with its reference's.

    ``got``/``ref`` are arrays (or scalars), or tuples of them such as a
    ``(value, gradient)`` pair, which agree as well as their worst member.
    :data:`EXACT` is bit for bit, NaN matching NaN; with a ``(rtol, atol)``
    ``tolerance`` a difference inside ``atol + rtol * |ref|`` is
    :data:`APPROXIMATE` (NaN still only matches NaN, and an infinity only
    itself); everything else is :data:`MISMATCH`.
    """
    if isinstance(ref, tuple):
        verdicts = {agreement(g, r, tolerance) for g, r in zip(got, ref)}
        return next(v for v in (MISMATCH, APPROXIMATE, EXACT) if v in verdicts)
    if np.array_equal(got, ref, equal_nan=True):
        return EXACT
    if tolerance is not None and np.allclose(
        got, ref, rtol=tolerance[0], atol=tolerance[1], equal_nan=True
    ):
        return APPROXIMATE
    return MISMATCH


def rejection(shape) -> Tuple[float, np.ndarray]:
    """What a sampler is told about a point outside the support.

    Overflow in the forward pass is expected for far-out proposals and
    maps to a ``-inf`` density, which samplers treat as a rejection or a
    divergence; so does a linear-algebra failure (a covariance pushed out
    of the positive-definite cone). Stan rejects such proposals too.
    """
    return float("-inf"), np.zeros(shape)


def or_rejection(
    evaluate: Callable[[np.ndarray], Tuple[float, np.ndarray]], x: np.ndarray
) -> Tuple[float, np.ndarray]:
    """``evaluate(x)``, or :func:`rejection` when it raises ``LinAlgError``
    or returns a non-finite value."""
    try:
        value, gradient = evaluate(x)
    except np.linalg.LinAlgError:
        return rejection(np.shape(x))
    if not np.isfinite(value):
        return rejection(np.shape(x))
    return value, gradient


def value_or_rejection(
    evaluate: Callable[[np.ndarray], float], x: np.ndarray
) -> float:
    """:func:`or_rejection` for an ``evaluate`` that returns the value alone."""
    try:
        value = evaluate(x)
    except np.linalg.LinAlgError:
        return float("-inf")
    return value if np.isfinite(value) else float("-inf")
