"""The resumable per-step protocol between samplers and evaluators.

Every engine exposes its chain as a *step generator* (``sample_steps``,
from :class:`~repro.inference.chain.ChainSampler`): instead of calling the
model, the generator **yields** each position it needs evaluated and
receives the answer back through ``send`` — ``(logp, gradient)`` for an
engine whose ``gradient`` is true (HMC, NUTS), the value ``logp`` alone
for one whose ``gradient`` is false (MH, slice). The generator's return
value (via ``StopIteration``) is the finished
:class:`~repro.inference.results.ChainResult`.

This inversion keeps the density evaluations apart from the accept logic,
so whoever drives the chain decides when each one runs: a driver can hold
one suspended generator per chain, collect every chain's pending position,
evaluate them as one batched tape replay (:mod:`repro.batch`), and resume
each generator with its own lane's result. Because the generator contains
the *entire* sampler loop — adaptation, RNG consumption, hooks, state
capture — driving it with a plain sequential evaluator
(:func:`drive_steps`) is the classic inline loop bit for bit; that is
exactly what ``sample_chain`` does.

A yielded item is a bare position ``ndarray`` of shape ``(dim,)``,
answered with one answer — the whole protocol, and all a new step machine
has to implement. A chain opened with ``depth > 1``
(``sample_steps(depth=...)``; :mod:`repro.batch` does, :func:`drive_steps`
never) must also take a list for an answer: its driver then evaluates
blocks, and the chain may yield a *block* from its next request on — an
``ndarray`` of shape ``(k, dim)``, ``k <= depth``, the positions it will
ask for at its next ``k`` iterations if its path goes as it bets (MH:
every proposal rejected). A block is answered with a list of the answers
to its rows. The chain pops the answers it uses from the front of a list
and drops the list where its path leaves the bet, so what is left in it
afterwards went unused.
"""

from __future__ import annotations

from typing import Generator, Tuple, Union

import numpy as np

__all__ = ["StepGenerator", "drive_steps"]

#: A sampler step machine: yields positions (or blocks, answered with
#: lists), receives ``(logp, grad)`` pairs (or ``logp`` values), returns
#: the finished chain result.
StepGenerator = Generator[np.ndarray, Union[float, Tuple[float, np.ndarray]], object]


def drive_steps(gen: StepGenerator, evaluate):
    """Run a step generator to completion with a sequential evaluator.

    The reference driver: evaluates each yielded position immediately and
    in order, which consumes the generator's RNG stream exactly as the
    pre-generator ``sample_chain`` loops did. Returns the generator's
    return value.
    """
    try:
        x = next(gen)
        while True:
            x = gen.send(evaluate(x))
    except StopIteration as stop:
        return stop.value
