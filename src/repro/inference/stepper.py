"""The resumable per-step protocol between samplers and gradient executors.

HMC and NUTS expose their iteration logic as *step generators*
(``sample_steps``, from :class:`~repro.inference.chain.StepMachine`):
instead of calling ``logp_and_grad`` directly, the generator **yields** each
position it needs evaluated and receives the ``(logp, gradient)`` pair back
through ``send``. The generator's return value (via ``StopIteration``) is
the finished :class:`~repro.inference.results.ChainResult`.

This inversion is what makes cross-chain batching possible: a driver can
hold one suspended generator per chain, collect every chain's pending
position, evaluate them as one batched tape replay
(:mod:`repro.batch`), and resume each generator with its own lane's
result. Because the generator contains the *entire* sampler loop —
adaptation, RNG consumption, hooks, state capture — unchanged, driving it
with a plain sequential evaluator (:func:`drive_steps`) reproduces the
classic ``sample_chain`` bit for bit; that is exactly what
``sample_chain`` now does.

A yielded item is always a bare position ``ndarray`` of shape ``(dim,)``,
and the answer is always that position's ``(logp, gradient)`` — the whole
protocol, and all a new step machine has to implement.
"""

from __future__ import annotations

from typing import Generator, Tuple

import numpy as np

__all__ = ["StepGenerator", "drive_steps"]

#: A sampler step machine: yields positions, receives ``(logp, grad)``
#: pairs, returns the finished chain result.
StepGenerator = Generator[np.ndarray, Tuple[float, np.ndarray], object]


def drive_steps(gen: StepGenerator, logp_and_grad):
    """Run a step generator to completion with a sequential evaluator.

    The reference driver: evaluates each yielded position immediately and
    in order, which consumes the generator's RNG stream exactly as the
    pre-generator ``sample_chain`` loops did. Returns the generator's
    return value.
    """
    try:
        x = next(gen)
        while True:
            x = gen.send(logp_and_grad(x))
    except StopIteration as stop:
        return stop.value
