"""Compiled gradient tapes: record a ``logp`` graph once, replay it many times.

The interpreted tape (:mod:`repro.autodiff.tape`) rebuilds the whole
computation graph — one ``Var`` and one backward closure per primitive — on
*every* gradient evaluation. For the sampler hot path that Python overhead
dominates the numpy kernels the paper's hardware analysis assumes. This
module removes it:

* :class:`CompiledTape` — one traced graph lowered to a flat,
  topologically-sorted program, published as read-only data
  (``instructions``, ``shapes``, ``requires``, ``constants`` and their
  ``folded`` closure, ``carries``, the schedule's ``steps``,
  ``input_slot``/``root_slot``). One generator (:class:`_Emitter`) writes
  every program that replays it: here the two solo ones (value + gradient,
  and the forward-only value program), and over a lane axis the batched
  one of :mod:`repro.batch.engine`. A program runs the *same* kernel
  functions (:data:`repro.autodiff.ops.KERNELS`) over preallocated numpy
  buffers, with no graph reconstruction and no closure allocation; SPD ops
  that read one matrix slot share one factor (:func:`_schedule`), bitwise
  their own kernels' answers. Because the kernels and every adjoint
  accumulation that can round differently are shared with the interpreted
  path, replayed values and gradients are **bit-identical** to
  interpretation.
* :class:`CompiledFunction` — the caching wrapper used by
  ``Model.compiled_logp_and_grad()``: records on first call and whenever the
  input shape changes, puts each installed tape through probation against a
  fresh interpreted trace (:mod:`repro.autodiff.verify`), re-records when
  the graph *structure* changed (data-dependent control flow), and steps
  down — rewritten tape to plain tape, plain tape to interpretation — when
  a tape disagrees with its reference. Its :meth:`~CompiledFunction.value`
  serves callers that want the scalar alone from the proven tape's
  forward-only program: the full replay's own forward lines, so it is
  proven with the tape.

Before lowering, the recorder runs the sufficient-statistics rewrite
(:mod:`repro.autodiff.suffstats`), a graph-to-graph pass; a tape built from
a rewritten graph carries a ``tolerance`` and the plain tape as its
``fallback``. ``docs/performance.md`` ("How a fast path earns trust")
describes the ladder, its probation lengths and its kill switches once.
"""

from __future__ import annotations

import threading
import warnings
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff import suffstats as suffstats_mod
from repro.autodiff import tape as tape_mod
from repro.autodiff import verify
from repro.autodiff.tape import Var, _unbroadcast
from repro.switch import Switch

__all__ = [
    "CompiledFunction",
    "CompiledTape",
    "Instruction",
    "TapeUnsupportedError",
    "tape_breaker",
    "trace_value",
    "enabled",
    "enable",
    "disable",
    "override",
]


class TapeUnsupportedError(RuntimeError):
    """The traced graph contains a node the replay engine cannot execute."""


_switch = Switch("REPRO_COMPILED_TAPE")
enabled, enable, disable, override = (
    _switch.enabled, _switch.enable, _switch.disable, _switch.override
)

#: Re-records per CompiledFunction before giving up — a graph whose
#: structure changes this often would spend more time recording than
#: replaying.
MAX_RECORDS = 8

#: Process-wide give-ups (validation disagreements, unsupported graphs,
#: structure churn) before the tape breaker opens and new recordings are
#: skipped outright.
BREAKER_THRESHOLD = 3

#: Seconds the open tape breaker waits before letting one recording probe
#: whether compilation is healthy again.
BREAKER_RESET_S = 300.0

_breaker_instance = None


def tape_breaker():
    """The process-wide circuit breaker over tape compilation.

    Give-ups are per-:class:`CompiledFunction`, but their usual causes — a
    broken op kernel, a numpy change, a pathological model family — are
    process-wide. After :data:`BREAKER_THRESHOLD` give-ups the breaker
    opens and *new* recordings (the expensive trace + validate cycle) are
    skipped in favor of interpreted evaluation; already-validated tapes
    keep replaying. After :data:`BREAKER_RESET_S` one recording probes, and
    a validation pass closes the breaker again. State is visible as
    ``repro_resilience_breaker_state{breaker="compiled_tape"}`` while
    library telemetry is on; with it off the breaker writes nowhere, on a
    trip either, so a run without telemetry leaves the global registry
    empty.
    """
    global _breaker_instance
    if _breaker_instance is None:
        from repro import telemetry
        from repro.resilience.breakers import CircuitBreaker

        _breaker_instance = CircuitBreaker(
            "compiled_tape",
            failure_threshold=BREAKER_THRESHOLD,
            reset_timeout=BREAKER_RESET_S,
            registry=lambda: (
                telemetry.get_registry() if telemetry.enabled() else None
            ),
        )
    return _breaker_instance


# ---------------------------------------------------------------------------
# Tracing helpers
# ---------------------------------------------------------------------------

def _trace(fn: Callable[[Var], Var], x: np.ndarray) -> Tuple[Var, Var]:
    """One interpreted evaluation of ``fn``; returns ``(leaf, root)``."""
    leaf = Var(x)
    root = fn(leaf)
    if root.value.ndim != 0:
        raise ValueError(
            f"compiled tapes require a scalar output, got shape {root.value.shape}"
        )
    return leaf, root


def trace_value(fn: Callable[[Var], Var], x: np.ndarray) -> float:
    """Interpreted value alone: one forward trace, no backward sweep."""
    return float(_trace(fn, x)[1].value)


def _reference_from_trace(leaf: Var, root: Var, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Interpreted ``(value, gradient)`` from an already-built trace."""
    tape_mod.backward(root)
    gradient = leaf.grad if leaf.grad is not None else np.zeros_like(x)
    return float(root.value), np.asarray(gradient, dtype=float)


def _creation_order(root: Var) -> List[Var]:
    """Nodes reachable from ``root`` in creation (= topological) order."""
    nodes = tape_mod._toposort(root)  # reverse creation order
    nodes.reverse()
    return nodes


def structure_signature(root: Var, leaf: Var) -> tuple:
    """A hashable fingerprint of the traced graph's *structure*.

    Two traces with the same signature ran the same kernels over the same
    wiring and shapes; constant values and static arguments are deliberately
    excluded (the bitwise validation pass catches those).
    """
    order = _creation_order(root)
    index = {id(node): i for i, node in enumerate(order)}
    entries = []
    for node in order:
        if not node.parents:
            kind = "input" if node is leaf else "const"
            entries.append((kind, node.value.shape, node.requires_grad))
        else:
            entries.append((
                node.op,
                tuple(index[id(p)] for p in node.parents),
                node.value.shape,
            ))
    return tuple(entries)


# ---------------------------------------------------------------------------
# The lowered program and its solo executor
# ---------------------------------------------------------------------------

class Instruction(NamedTuple):
    """One lowered kernel call: slot ``out`` = ``kernel`` over slots ``inputs``.

    An instruction's position in :attr:`CompiledTape.instructions` is also
    the index of the ``aux`` value its forward hands its backward.
    """

    op: str
    kernel: ops.OpKernel
    inputs: Tuple[int, ...]
    static: tuple
    out: int


# ---------------------------------------------------------------------------
# The solo replay's schedule: SPD groups
# ---------------------------------------------------------------------------

def _schedule(tape: "CompiledTape") -> List[Tuple[int, ...]]:
    """Every program's forward order, as steps of instruction indices.

    A step of one runs that instruction. A step of several is an SPD group:
    instructions whose kernels factor the same matrix slot
    (:data:`repro.autodiff.ops.SPD_FACTORED`), answered from one factor at
    the last member's position, with every instruction downstream of a
    member deferred behind it in its original order; everything else keeps
    its place. The backward sweep is the reverse of the steps, each group's
    members in reverse member order. A matrix whose group would change the
    order in which some slot's adjoint receives three or more contributions
    (where reassociating a sum can change a bit; two commute) is left
    ungrouped.
    """
    steps = [(ai,) for ai in range(len(tape.instructions))]
    reference = _accumulation(tape, steps)
    for candidates in _spd_candidates(tape):
        trial = _with_group(tape.instructions, steps, candidates)
        if trial is not None and _accumulation(tape, trial) == reference:
            steps = trial
    return steps


def _spd_candidates(tape: "CompiledTape") -> List[List[int]]:
    """Per matrix slot read by two or more SPD kernels, their instruction
    indices in program order: those not folded, over an ``(n, n)`` matrix
    whose right-hand side, if any, is a length-``n`` vector."""
    by_matrix: dict = {}
    for ai, ins in enumerate(tape.instructions):
        if ins.op not in ops.SPD_FACTORED or tape.folded[ins.out] is not None:
            continue
        shape = tape.shapes[ins.inputs[0]]
        if len(shape) != 2 or shape[0] != shape[1]:
            continue
        where = ops.SPD_FACTORED[ins.op]
        if where is not None:
            kind, i = where
            rhs = (
                tape.shapes[ins.inputs[i]] if kind == "input"
                else np.shape(ins.static[i])
            )
            if rhs != shape[:1]:
                continue
        by_matrix.setdefault(ins.inputs[0], []).append(ai)
    return [members for members in by_matrix.values() if len(members) >= 2]


def _with_group(
    instructions: Tuple[Instruction, ...],
    steps: List[Tuple[int, ...]],
    candidates: List[int],
) -> Optional[List[Tuple[int, ...]]]:
    """``steps`` with ``candidates`` made one group, or ``None`` when fewer
    than two can join: a candidate whose right-hand side depends on an
    earlier member stays an ordinary (deferred) instruction."""
    candidates = set(candidates)
    fed = set()  # slots computed from a member's output
    members, deferred, last = [], set(), -1
    for p, step in enumerate(steps):
        if any(s in fed for ai in step for s in instructions[ai].inputs):
            deferred.add(p)
            fed.update(instructions[ai].out for ai in step)
        elif step[0] in candidates:
            members.append(step[0])
            fed.add(instructions[step[0]].out)
            last = p
    if len(members) < 2:
        return None
    joined = set(members)
    return (
        [s for p, s in enumerate(steps[:last])
         if p not in deferred and s[0] not in joined]
        + [tuple(members)]
        + [s for p, s in enumerate(steps[:last]) if p in deferred]
        + steps[last + 1:]
    )


def _accumulation(tape: "CompiledTape", steps: List[Tuple[int, ...]]) -> dict:
    """Per slot receiving three or more adjoint contributions, the
    instructions that send them, in the order the backward sweep over
    ``steps`` does."""
    senders: dict = {}
    for ai in reversed([ai for step in steps for ai in step]):
        ins = tape.instructions[ai]
        if not tape.carries[ins.out]:
            continue
        for s in ins.inputs:
            if tape.requires[s] and tape.carries[s]:
                senders.setdefault(s, []).append(ai)
    return {s: order for s, order in senders.items() if len(order) >= 3}


# ---------------------------------------------------------------------------
# The program generator
# ---------------------------------------------------------------------------

def _fold(tape: "CompiledTape") -> tuple:
    """Per slot, its recorded constant or, for an instruction whose operands
    all have a value here, the answer its own kernel gives them, once;
    ``None`` where the value depends on the input."""
    folded = list(tape.constants)
    for ins in tape.instructions:
        if all(folded[s] is not None for s in ins.inputs):
            out = np.empty(tape.shapes[ins.out]) if ins.kernel.out_safe else None
            value = ins.kernel.forward([folded[s] for s in ins.inputs], ins.static, out)[0]
            folded[ins.out] = (
                value if type(value) is np.ndarray else np.asarray(value, dtype=float)
            )
    return tuple(folded)


def _unbroadcast_source(
    src: str, shape: Tuple[int, ...], target: Tuple[int, ...], lead: int = 0
) -> str:
    """Source for :func:`repro.autodiff.tape._unbroadcast` of the value of
    ``src``, whose shape is ``shape``, down to ``target``, reductions fixed
    now: the same sums (``_sum`` is ``np.add.reduce``, which is what
    ``ndarray.sum`` calls), same axes, same order, and a ``reshape`` only
    where they leave another shape. The first ``lead`` axes are kept, as
    ``_unbroadcast(..., lead)`` keeps them; ``target`` includes them.
    """
    if shape == target:
        return src
    extra = len(shape) - len(target)
    if extra > 0:
        src = f"_sum({src}, {tuple(range(lead, lead + extra))!r})"
        shape = shape[:lead] + shape[lead + extra:]
    axes = tuple(
        i for i in range(lead, len(target))
        if target[i] == 1 and shape[i] != 1
    )
    if axes:
        src = f"_sum({src}, {axes!r}, keepdims=True)"
        shape = tuple(1 if i in axes else n for i, n in enumerate(shape))
    return src if shape == target else f"{src}.reshape({target!r})"


def _inline_adjoint(expr: str, reads: dict, target: tuple, lead: int) -> str:
    """Source for the declared adjoint ``expr``, unbroadcast to ``target``.
    ``reads`` maps each name ``expr`` may read to the emitter's source for
    that value and its shape; the adjoint's shape is the broadcast of those
    it reads (``a`` broadcasts to the output, so it is left out)."""
    src = ops.adjoint_source(expr, lambda name: reads[name][0])
    shape = np.broadcast_shapes(
        *(reads[name][1] for name in ops.adjoint_names(expr) if name != "a")
    )
    if shape == ():
        # Only 0-d operands make numpy hand back a scalar.
        src = f"_as({src}, float)"
    return _unbroadcast_source(src, shape, target, lead)


def _packed(values: List[str]) -> str:
    """Source for the tuple of ``values``."""
    inner = ", ".join(values)
    return f"({inner},)" if len(values) == 1 else f"({inner})"


def _rhs(op: str, values, static):
    """An SPD kernel's right-hand side among its operand ``values`` and
    ``static`` items; ``None`` for one that solves nothing."""
    where = ops.SPD_FACTORED[op]
    if where is None:
        return None
    kind, i = where
    return values[i] if kind == "input" else static[i]


class _Emitter:
    """The one generator of a tape's replay programs, over an optional lane
    axis: straight-line Python, the instruction dispatch unrolled into
    plain local-variable code.

    It owns what every program does. Forward (:meth:`forward`), the tape's
    ``steps`` (:func:`_schedule`) in order, folded instructions left out
    (their ``folded`` values are constants): an SPD group is one call that
    answers every member from one factor
    (:func:`repro.autodiff.ops.spd_group_forward`), a kernel declared by its
    numpy call (:func:`repro.autodiff.ops.register_call`) is that call
    inline, any other kernel runs its forward, its value settled as a float
    array where the kernel may hand back another type. Backward
    (:meth:`backward`), the steps in reverse over the instructions whose
    adjoint carries: declared adjoints are their expressions, the
    unbroadcast each needs written out (:func:`_inline_adjoint`); any other
    kernel runs its backward. Whether an adjoint is set yet is fixed here
    (:meth:`add`), since no backward kernel returns ``None``. The schedule
    keeps every accumulation order that can change a bit, so results are
    those of the interpreted ``Var`` sweep.

    This class has no lane axis: its templates and hooks (after
    :meth:`add`) name values as the solo programs hold them, ``v5 = U3(C1,
    v4, O3)``, ``v5, a3 = F3((C1, v4), S3, O3)``, ``g28 = g31 * v31``, and
    :meth:`emit` writes those two. ``repro.batch.engine`` gives it a lane
    axis for the batched program.
    """

    #: A slot's value; what takes a call's value and a forward's; the line
    #: settling a forward's value; a static item as a call's argument.
    VALUE = RESULT = "v{s}"
    ASSIGN = "v{s} = "
    SETTLE = "    if type(v{s}) is not _nd: v{s} = _as(v{s}, float)"
    STATIC = "S{ai}[{i}]"
    #: The lane axis every value has before its solo shape: none.
    axis: Tuple[int, ...] = ()

    def __init__(self, tape: "CompiledTape") -> None:
        self.tape = tape
        self.present: set = set()  # slots whose adjoint is set so far
        self.env = {
            "_iadd": np.add, "_sum": np.add.reduce, "_zeros": np.zeros,
            **ops.ADJOINT_GLOBALS,
        }

    def forward(self) -> List[str]:
        tape = self.tape
        lines = []
        for step in tape.steps:
            if len(step) > 1:
                lines += self.group(step)
            elif tape.folded[tape.instructions[step[0]].out] is None:
                lines += self.instruction(step[0])
        return lines

    def instruction(self, ai: int) -> List[str]:
        ins = self.tape.instructions[ai]
        kernel = ins.kernel
        values, _shapes, static, packed = self.operands(ai)
        out = self.out(ai)
        if kernel.call is not None:
            self.env[f"U{ai}"] = kernel.call
            args = kernel.inline_args(values, self.statics(ai, static))
            return [f"    {self.ASSIGN.format(s=ins.out)}U{ai}({args}, {out})"]
        self.env[f"F{ai}"] = kernel.forward
        line = f"    {self.RESULT.format(s=ins.out)}, a{ai} = F{ai}({packed}, S{ai}, {out})"
        return [line] + ([] if kernel.out_safe else [self.SETTLE.format(s=ins.out)])

    def statics(self, ai: int, static: tuple) -> List[str]:
        return [self.STATIC.format(ai=ai, i=i) for i in range(len(static))]

    def backward(self) -> List[str]:
        """The backward sweep from the adjoints already in ``present``."""
        tape, axis = self.tape, self.axis
        lines = []
        for ai in reversed([ai for step in tape.steps for ai in step]):
            ins = tape.instructions[ai]
            if not tape.carries[ins.out] or ins.out not in self.present:
                continue
            targets = [
                (k, s) for k, s in enumerate(ins.inputs)
                if tape.requires[s] and tape.carries[s]
            ]
            adjoints = self.adjoints(ai)
            if adjoints is None:
                lines += self.kernel_backward(ai, targets)
                continue
            shape = axis + tape.shapes[ins.out]
            reads = {
                "g": (f"g{ins.out}", shape), "a": (f"a{ai}", None),
                "y": (self.VALUE.format(s=ins.out), shape),
            }
            values, shapes, static, _packed_values = self.operands(ai)
            reads.update((f"x{k}", read) for k, read in enumerate(zip(values, shapes)))
            for i, value in enumerate(static):
                self.env[f"S{ai}_{i}"] = value
                reads[f"s{i}"] = (f"S{ai}_{i}", np.shape(value))
            lines += [
                "    " + self.add(s, _inline_adjoint(
                    adjoints[k], reads, axis + tape.shapes[s], len(axis)
                ))
                for k, s in targets
            ]
        return lines

    def add(self, s: int, c: str) -> str:
        """The line adding contribution ``c`` to adjoint ``g<s>``: the first
        sets it (:meth:`first`), later ones sum into :meth:`buffer`."""
        if s in self.present:
            return f"g{s} = _iadd(g{s}, {c}, out={self.buffer(s)})"
        self.present.add(s)
        return f"g{s} = {self.first(s, c)}"

    # -- hooks: no lane axis ----------------------------------------------

    def ref(self, s: int) -> str:
        return f"C{s}" if self.tape.folded[s] is not None else f"v{s}"

    def operands(self, ai: int) -> tuple:
        """Source and shape of each of ``ai``'s operands, its static items,
        and its operands as its forward takes them."""
        ins = self.tape.instructions[ai]
        self.env[f"S{ai}"] = ins.static
        values = [self.ref(s) for s in ins.inputs]
        shapes = [self.tape.shapes[s] for s in ins.inputs]
        return values, shapes, ins.static, _packed(values)

    def out(self, ai: int) -> str:
        ins = self.tape.instructions[ai]
        if not ins.kernel.out_safe:
            return "None"
        self.env[f"O{ai}"] = np.empty(self.tape.shapes[ins.out])
        return f"O{ai}"

    def group(self, step: Tuple[int, ...]) -> List[str]:
        members = [self.tape.instructions[ai] for ai in step]
        self.env[f"N{step[0]}"] = tuple(ins.op for ins in members)
        rhs = []
        for ai, ins in zip(step, members):
            values, _shapes, static, _packed_values = self.operands(ai)
            rhs.append(str(_rhs(ins.op, values, self.statics(ai, static))))
        outs = ", ".join(f"(v{ins.out}, a{ai})" for ai, ins in zip(step, members))
        return [
            f"    {outs} = _spd({self.ref(members[0].inputs[0])}, "
            f"N{step[0]}, ({', '.join(rhs)},))"
        ] + [
            self.SETTLE.format(s=ins.out)
            for ins in members if not ins.kernel.out_safe
        ]

    def adjoints(self, ai: int) -> Optional[Tuple[str, ...]]:
        """``ai``'s declared adjoints, where they are emitted inline."""
        return self.tape.instructions[ai].kernel.adjoints

    def kernel_backward(self, ai: int, targets: list) -> List[str]:
        """``ai``'s backward kernel, its contributions normalised at run
        time."""
        ins = self.tape.instructions[ai]
        self.env[f"B{ai}"] = ins.kernel.backward
        aux = "None" if ins.kernel.call is not None else f"a{ai}"
        values = _packed([self.ref(s) for s in ins.inputs])
        lines = [f"    c = B{ai}(g{ins.out}, {values}, v{ins.out}, {aux}, S{ai})"]
        for k, s in targets:
            shape = repr(self.tape.shapes[s])
            lines += [
                f"    _c = c[{k}]",
                "    if type(_c) is not _nd: _c = _as(_c, float)",
                f"    if _c.shape != {shape}: _c = _unb(_c, {shape})",
                "    " + self.add(s, "_c"),
            ]
        return lines

    def first(self, s: int, c: str) -> str:
        return c

    def buffer(self, s: int) -> str:
        self.env.setdefault(f"A{s}", np.empty(self.tape.shapes[s]))
        return f"A{s}"

    def emit(self) -> Tuple[str, Callable, Callable]:
        """The source and the two solo programs: ``_replay``, value and
        gradient, and ``_value``, the same forward block stopped at the
        scalar. They share one ``env`` — kernels, constants and ``out=``
        buffers — so they must run under one lock."""
        tape = self.tape
        x, root = tape.input_slot, tape.root_slot
        self.env.update(
            _nd=np.ndarray, _as=np.asarray, _unb=_unbroadcast,
            _spd=ops.spd_group_forward, SEED=np.ones(tape.shapes[root]),
        )
        self.env.update((f"C{s}", v) for s, v in enumerate(tape.folded) if v is not None)
        forward = [f"    v{x} = x", *self.forward()]
        self.present = {root}
        backward = self.backward()
        grad = f"g{x}.copy()" if x in self.present else f"_zeros({tape.shapes[x]!r})"
        return self.run([
            "def _replay(x):", *forward,
            f"    rv = float({self.ref(root)})",
            f"    g{root} = SEED", *backward,
            f"    return rv, {grad}",
            "", "def _value(x):", *forward,
            f"    return float({self.ref(root)})",
        ], "<compiled-tape>", "_replay", "_value")

    def run(self, lines: List[str], filename: str, *names: str) -> tuple:
        """The source of ``lines`` and, run in ``env``, the functions it
        defines under ``names``."""
        source = "\n".join(lines)
        exec(compile(source, filename, "exec"), self.env)
        # Popped: a function's globals are ``env``, and a name left there
        # is a cycle that keeps every buffer until the collector runs.
        return (source, *(self.env.pop(name) for name in names))


class CompiledTape:
    """One traced graph lowered to a flat program, plus its solo executors.

    Built from a trace produced by :func:`_trace`. The lowered form is
    published as read-only data — every executor (the solo programs
    generated here, :class:`repro.batch.engine.BatchedTape`) is built from
    it:

    * ``instructions`` — :class:`Instruction` records in forward order
      (backward is the reverse);
    * ``shapes`` / ``requires`` — per slot, the value's shape and whether
      an adjoint is wanted there;
    * ``constants`` — per slot, the recorded array, ``None`` where the
      value depends on the input; ``folded`` adds the outputs of the
      instructions over such values alone (:func:`_fold`), which no
      program runs;
    * ``input_slot`` / ``root_slot``;
    * ``carries`` — per slot, whether the adjoint there can flow to the
      input. Interpretation computes the other adjoints too and discards
      them, so executors skip them: the surviving contributions, and hence
      every accumulated value, are unchanged bit for bit;
    * ``steps`` — the schedule every program runs (:func:`_schedule`).

    As a rung of the replay ladder (:mod:`repro.autodiff.verify`) a tape
    carries its ``tolerance`` — ``None`` for the bitwise bar, ``(rtol,
    atol)`` when ``rewrite_info`` says the graph went through the
    sufficient-statistics rewrite, which reassociates sums — and its
    ``fallback``, the tape to step down to while on probation (``None``:
    step down to interpretation).
    """

    def __init__(
        self,
        root: Var,
        leaf: Var,
        signature: Optional[tuple] = None,
        rewrite_info=None,
    ) -> None:
        self.rewrite_info = rewrite_info
        self.tolerance = (
            None if rewrite_info is None
            else (suffstats_mod.RTOL, suffstats_mod.ATOL)
        )
        self.fallback: Optional[CompiledTape] = None
        order = _creation_order(root)
        if leaf not in order:
            # The output does not depend on the input; keep a slot for it
            # anyway so the replay has somewhere to read/write.
            order.append(leaf)
        index = {id(node): i for i, node in enumerate(order)}

        self.shapes = tuple(node.value.shape for node in order)
        self.requires = tuple(node.requires_grad for node in order)
        constants: List[Optional[np.ndarray]] = [None] * len(order)
        instructions = []
        for i, node in enumerate(order):
            if not node.parents:
                if node is not leaf:
                    constants[i] = node.value
                continue
            if node.op is None or node.op not in ops.KERNELS:
                label = node.op or node.tag or f"Var#{node._id}"
                raise TapeUnsupportedError(
                    f"node {label!r} was not built through the kernel "
                    "registry and cannot be replayed"
                )
            instructions.append(Instruction(
                node.op, ops.KERNELS[node.op],
                tuple(index[id(p)] for p in node.parents), node.op_static, i,
            ))
        self.instructions = tuple(instructions)
        self.constants = tuple(constants)
        self.input_slot = index[id(leaf)]
        self.root_slot = index[id(root)]
        carries = [False] * len(order)
        carries[self.input_slot] = True
        for ins in instructions:
            carries[ins.out] = any(
                self.requires[s] and carries[s] for s in ins.inputs
            )
        self.carries = tuple(carries)
        self.input_shape = leaf.value.shape
        # A rewritten tape carries the *original* trace's signature so the
        # staleness check in ``_validated_replay`` keeps comparing against
        # what a fresh interpreted trace of the model produces.
        self.signature = (
            signature if signature is not None
            else structure_signature(root, leaf)
        )

        self.folded = _fold(self)
        self.steps = _schedule(self)
        try:
            self._source, self._call, self._value_call = _Emitter(self).emit()
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise TapeUnsupportedError(f"tape codegen failed: {exc}") from exc

    # -- replay --------------------------------------------------------------

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        return self._call(x)

    def value(self, x: np.ndarray) -> float:
        """``value_and_grad(x)[0]`` without the backward sweep."""
        return self._value_call(x)

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    @property
    def buffer_elements(self) -> int:
        """Total forward-buffer elements — the replay's working-set size."""
        return int(sum(
            int(np.prod(shape, dtype=np.int64)) for shape in self.shapes
        ))

    def replay_cost_estimate(self) -> int:
        """Model of one replay's cost: dispatch plus element traffic.

        Used to decide whether a sufficient-statistics rewrite pays for
        itself (see :data:`repro.autodiff.suffstats.INSTR_COST_ELEMENTS`).
        """
        return (
            suffstats_mod.INSTR_COST_ELEMENTS * self.n_instructions
            + self.buffer_elements
        )


# ---------------------------------------------------------------------------
# The caching / fallback wrapper
# ---------------------------------------------------------------------------

class CompiledFunction:
    """Cache-and-replay wrapper around a scalar graph builder.

    ``fn`` maps a 1-D ``Var`` to a scalar ``Var`` (a model's ``_logp_var``).
    Calls return interpreted-exact ``(value, gradient)`` whichever path ran
    — within ``tape.tolerance`` when the installed tape has one.

    ``stats`` counts cache misses (``records``), hits (``replays``, of which
    ``value_replays`` ran the forward-only program), interpreted evaluations
    after giving up (``fallbacks``), probation cross-checks
    (``validations``) and cumulative ``replay_seconds``.

    **Thread safety.** A replay writes into the tape's preallocated
    forward/adjoint buffers, so two threads replaying the same
    ``CompiledFunction`` concurrently would alias each other's
    intermediate values and return silently corrupted gradients. Every
    call (:meth:`value` included: its program writes the same forward
    buffers) therefore serializes on an internal lock — correctness over
    parallel throughput at this seam. Cross-*chain* parallelism belongs
    either in separate processes (``repro.serve`` workers, one model and
    tape per process) or in :mod:`repro.batch`, whose lanes give every
    chain its own buffer row inside one evaluation.
    """

    def __init__(self, fn: Callable[[Var], Var]) -> None:
        self._fn = fn
        self._tape: Optional[CompiledTape] = None
        self._broken: Optional[str] = None
        # Probation calls the installed tape still owes.
        self._probation = 0
        self._record_count = 0
        # Set (with a reason) once a rewritten tape failed tolerance
        # validation; later recordings then skip the rewrite for good.
        self._suffstats_demoted: Optional[str] = None
        # Serializes record/replay/validation: tape buffers are per-tape,
        # not per-caller (see the class docstring).
        self._lock = threading.RLock()
        self.stats = {
            "records": 0,
            "replays": 0,
            "value_replays": 0,
            "fallbacks": 0,
            "validations": 0,
            "replay_seconds": 0.0,
            # Sufficient-statistics rewrite (repro.autodiff.suffstats):
            # whether the current tape is rewritten, how much it folded,
            # whether validation found it bit-identical ("exact mode"),
            # and how many rewrites were demoted for missing tolerance.
            "suffstats_active": 0,
            "suffstats_folded_ops": 0,
            "suffstats_folded_elements": 0,
            "suffstats_exact": 0,
            "suffstats_demotions": 0,
        }

    @property
    def broken(self) -> Optional[str]:
        """Why this function fell back to interpretation permanently, if so."""
        return self._broken

    def proven_tape(self) -> Optional[CompiledTape]:
        """The installed tape once it has passed probation, else ``None``."""
        with self._lock:
            return self._tape if self._probation == 0 else None

    def __call__(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        with self._lock:
            return self._call_locked(np.asarray(x, dtype=float))

    def value(self, x: np.ndarray) -> float:
        """``self(x)[0]`` for callers that would discard the gradient.

        Once the installed tape is proven this replays its forward-only
        program, which runs the full replay's own forward lines over the
        same kernels, constants and buffers. Until then — nothing recorded,
        tape on probation, another input shape — the call *is*
        ``self(x)[0]``, so recording, probation, re-recording and give-up
        behave as for a gradient call, except that wherever that call would
        interpret (compilation off or broken, or the tape breaker open with
        no tape to replay) this one traces forward and skips the backward
        sweep.
        """
        x = np.asarray(x, dtype=float)
        with self._lock:
            tape = self._tape
            if (
                tape is None or self._broken is not None or not _switch.on
                or self._probation or tape.input_shape != x.shape
            ):
                return self._call_locked(x, gradient=False)[0]
            self.stats["value_replays"] += 1
            return self._timed_replay(tape.value, x)

    def _call_locked(
        self, x: np.ndarray, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        """One call under the lock. ``gradient=False`` (from :meth:`value`)
        only spares an interpreted evaluation its backward sweep; recording
        and replaying do the same work either way."""
        if self._broken is not None or not _switch.on:
            return self._interpret(x, gradient)
        tape = self._tape
        if tape is None or tape.input_shape != x.shape:
            if not tape_breaker().allow():
                # Recent recordings elsewhere in the process failed
                # validation; don't pay trace + validate again until the
                # breaker lets a probe through. Not permanent for this
                # function: a later call retries once the breaker resets.
                return self._interpret(x, gradient)
            leaf, root = _trace(self._fn, x)
            reference = _reference_from_trace(leaf, root, x)
            self._install_tape(leaf, root)
            return reference
        if self._probation:
            return self._validated_replay(x)
        return self._timed_replay(tape.value_and_grad, x)

    # -- internals -----------------------------------------------------------

    def _timed_replay(self, program: Callable, x: np.ndarray):
        """Run one of the installed tape's two programs, on the books."""
        self.stats["replays"] += 1
        start = perf_counter()
        result = program(x)
        self.stats["replay_seconds"] += perf_counter() - start
        return result

    def _interpret(
        self, x: np.ndarray, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        self.stats["fallbacks"] += 1
        if not gradient:
            return trace_value(self._fn, x), None
        leaf, root = _trace(self._fn, x)
        return _reference_from_trace(leaf, root, x)

    def _give_up(self, reason: str) -> None:
        self._broken = reason
        self._tape = None
        tape_breaker().record_failure()
        warnings.warn(
            f"compiled tape disabled for {self._fn!r}: {reason}; "
            "falling back to interpreted evaluation",
            RuntimeWarning,
        )

    def _build_tape(self, leaf: Var, root: Var) -> CompiledTape:
        """Lower the trace, attempting the sufficient-statistics rewrite.

        The rewrite is strictly best-effort: any failure (unsupported
        node, a bug in a rule) falls back to the plain tape, never to
        interpretation. A rewritten tape is kept only when the replay cost
        model says it beats the plain tape (small-data graphs gain dispatch
        overhead without shedding meaningful volume), unless
        ``suffstats.FORCE`` bypasses the comparison; the plain tape then
        rides along as its fallback until probation is over.
        """
        plain = CompiledTape(root, leaf)
        if not suffstats_mod.enabled() or self._suffstats_demoted is not None:
            return plain
        try:
            new_root, info = suffstats_mod.rewrite_graph(root, leaf)
        except Exception:  # pragma: no cover - rewrite must never break
            return plain
        if info is None or new_root is root or not info.folded_ops:
            return plain
        try:
            rewritten = CompiledTape(
                new_root, leaf, signature=plain.signature, rewrite_info=info
            )
        except TapeUnsupportedError:  # pragma: no cover - guard
            return plain
        if suffstats_mod.FORCE or (
            rewritten.replay_cost_estimate() < plain.replay_cost_estimate()
        ):
            rewritten.fallback = plain
            return rewritten
        return plain

    def _install_tape(self, leaf: Var, root: Var) -> None:
        if self._record_count >= MAX_RECORDS:
            self._give_up(
                f"graph structure changed {self._record_count} times"
            )
            return
        try:
            tape = self._build_tape(leaf, root)
        except TapeUnsupportedError as exc:
            self._give_up(str(exc))
            return
        self._record_count += 1
        self.stats["records"] += 1
        self._adopt(tape)

    def _adopt(self, tape: CompiledTape) -> None:
        """Make ``tape`` the installed tape, owing a fresh probation."""
        self._tape = tape
        self._probation = verify.PROBATION["tape"]
        info = tape.rewrite_info
        self.stats["suffstats_active"] = 1 if info is not None else 0
        self.stats["suffstats_folded_ops"] = (
            info.folded_ops if info is not None else 0
        )
        self.stats["suffstats_folded_elements"] = (
            info.folded_elements if info is not None else 0
        )

    def _validated_replay(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """One probation call: replay beside a fresh interpreted trace."""
        tape = self._tape
        result = self._timed_replay(tape.value_and_grad, x)

        self.stats["validations"] += 1
        leaf, root = _trace(self._fn, x)
        reference = _reference_from_trace(leaf, root, x)
        if structure_signature(root, leaf) != tape.signature:
            # Data-dependent control flow took a different branch: the old
            # tape is stale for this input, so re-record from this trace.
            self._install_tape(leaf, root)
            return reference
        verdict = verify.agreement(result, reference, tape.tolerance)
        if verdict == verify.MISMATCH:
            self._step_down(tape)
            return reference
        if tape.rewrite_info is not None:
            self.stats["suffstats_exact"] = int(verdict == verify.EXACT)
        self._probation -= 1
        if self._probation == 0:
            # Trusted from here on: the rung below is no longer needed.
            tape.fallback = None
            tape_breaker().record_success()
        return result

    def _step_down(self, tape: CompiledTape) -> None:
        """``tape`` failed probation: adopt its fallback, or give up."""
        if tape.fallback is None:
            # Same structure but different numbers on a plain tape: some
            # static argument is value-dependent; replaying would silently
            # change results.
            self._give_up(
                "replay disagrees with interpreted evaluation "
                "(value-dependent static argument?)"
            )
            return
        # The rewrite's reassociation drifted past tolerance (or a rule is
        # wrong for this graph): keep compilation, lose the rewrite. Not a
        # re-record — the graph structure didn't churn, our rewrite did.
        self._suffstats_demoted = "rewritten replay exceeded suffstats tolerance"
        self.stats["suffstats_demotions"] += 1
        warnings.warn(
            f"sufficient-statistics rewrite demoted for {self._fn!r}: "
            "replay disagreed with interpreted evaluation beyond "
            "tolerance; continuing on the unrewritten tape",
            RuntimeWarning,
        )
        self._adopt(tape.fallback)
