"""Compiled gradient tapes: record a ``logp`` graph once, replay it many times.

The interpreted tape (:mod:`repro.autodiff.tape`) rebuilds the whole
computation graph — one ``Var`` and one backward closure per primitive — on
*every* gradient evaluation. For the sampler hot path that Python overhead
dominates the numpy kernels the paper's hardware analysis assumes. This
module removes it:

* :class:`CompiledTape` — one traced graph lowered to a flat,
  topologically-sorted program (published as read-only data:
  ``instructions``, ``shapes``, ``requires``, ``constants``, ``carries``,
  ``input_slot``/``root_slot``) plus the two solo executors generated from
  it (value + gradient, and the forward-only value program).
  Replaying executes the *same* kernel functions
  (:data:`repro.autodiff.ops.KERNELS`) over preallocated numpy buffers: no
  graph reconstruction, no closure allocation, in-place ``out=``
  destinations where the kernel declares that safe. Because the kernels and
  the adjoint accumulation order are shared with the interpreted path,
  replayed values and gradients are **bit-identical** to interpretation.
  :mod:`repro.batch.engine` builds its lane-batched executor from the same
  published program.
* :class:`CompiledFunction` — the caching wrapper used by
  ``Model.compiled_logp_and_grad()``: records on first call and whenever the
  input shape changes, puts each installed tape through probation against a
  fresh interpreted trace (:mod:`repro.autodiff.verify`), re-records when
  the graph *structure* changed (data-dependent control flow), and steps
  down — rewritten tape to plain tape, plain tape to interpretation — when
  a tape disagrees with its reference. Its :meth:`~CompiledFunction.value`
  serves callers that want the scalar alone from the proven tape's
  forward-only program, one more rung with the full replay below it.

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


class CompiledTape:
    """One traced graph lowered to a flat program, plus its solo executor.

    Built from a trace produced by :func:`_trace`. The lowered form is
    published as read-only data — every executor (the code generated here,
    :class:`repro.batch.engine.BatchedTape`) is built from it:

    * ``instructions`` — :class:`Instruction` records in forward order
      (backward is the reverse);
    * ``shapes`` / ``requires`` — per slot, the value's shape and whether
      an adjoint is wanted there;
    * ``constants`` — per slot, the recorded array, ``None`` where the
      value depends on the input;
    * ``input_slot`` / ``root_slot``;
    * ``carries`` — per slot, whether the adjoint there can flow to the
      input. Interpretation computes the other adjoints too and discards
      them, so executors skip them: the surviving contributions, and hence
      every accumulated value, are unchanged bit for bit.

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

        try:
            self._call, self._value_call = self._emit_callable()
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise TapeUnsupportedError(f"tape codegen failed: {exc}") from exc

    # -- code generation -----------------------------------------------------

    def _emit_callable(self) -> Tuple[
        Callable[[np.ndarray], Tuple[float, np.ndarray]],
        Callable[[np.ndarray], float],
    ]:
        """Generate straight-line Python source for the two solo replays.

        ``_replay`` runs ``instructions`` forward, then backward over the
        carrying ones — the identical kernels in the identical order as the
        interpreted ``Var`` sweep — with the instruction dispatch unrolled
        into plain local-variable code: no per-instruction tuple
        destructuring, no slot-list indexing, no loop bookkeeping.
        ``_value`` is the same forward block stopped at the scalar, for
        callers that would throw the gradient away. Both are generated from
        one list of forward lines into one ``env``, so they share kernels,
        constants and ``out=`` buffers — and must run under one lock.
        """
        shapes = self.shapes
        requires = self.requires
        carries = self.carries
        input_slot = self.input_slot
        root_slot = self.root_slot

        def ref(s: int) -> str:
            return f"v{s}" if self.constants[s] is None else f"C{s}"

        def refs(slots: tuple) -> str:
            inner = ", ".join(ref(s) for s in slots)
            return f"({inner},)" if len(slots) == 1 else f"({inner})"

        env = {
            "_nd": np.ndarray,
            "_as": np.asarray,
            "_unb": _unbroadcast,
            "_iadd": np.add,
            "_zeros": np.zeros,
            "SEED": np.ones(shapes[root_slot]),
        }
        for s, value in enumerate(self.constants):
            if value is not None:
                env[f"C{s}"] = value

        forward = [f"    v{input_slot} = x"]
        for ai, ins in enumerate(self.instructions):
            env[f"F{ai}"] = ins.kernel.forward
            env[f"S{ai}"] = ins.static
            if ins.kernel.out_safe:
                env[f"O{ai}"] = np.empty(shapes[ins.out])
                out_ref = f"O{ai}"
            else:
                out_ref = "None"
            forward.append(
                f"    v{ins.out}, a{ai} = "
                f"F{ai}({refs(ins.inputs)}, S{ai}, {out_ref})"
            )
            if not ins.kernel.out_safe:
                forward.append(
                    f"    if type(v{ins.out}) is not _nd: "
                    f"v{ins.out} = _as(v{ins.out}, float)"
                )

        lines = ["def _replay(x):", *forward]
        lines.append(f"    rv = float({ref(root_slot)})")

        grad_names = {root_slot, input_slot}
        body = []
        for ai, ins in reversed(list(enumerate(self.instructions))):
            if not carries[ins.out]:
                continue
            env[f"B{ai}"] = ins.kernel.backward
            grad_names.add(ins.out)
            body.append(f"    if g{ins.out} is not None:")
            body.append(
                f"        c = B{ai}(g{ins.out}, {refs(ins.inputs)}, "
                f"{ref(ins.out)}, a{ai}, S{ai})"
            )
            for k, s in enumerate(ins.inputs):
                if not (requires[s] and carries[s]):
                    continue
                grad_names.add(s)
                # The slot's adjoint accumulation buffer (used only when it
                # receives more than one contribution).
                env.setdefault(f"A{s}", np.empty(shapes[s]))
                shape = repr(shapes[s])
                body.append(f"        _c = c[{k}]")
                body.append(f"        if _c is not None:")
                body.append(
                    f"            if type(_c) is not _nd: _c = _as(_c, float)"
                )
                body.append(
                    f"            if _c.shape != {shape}: "
                    f"_c = _unb(_c, {shape})"
                )
                body.append(
                    f"            g{s} = _c if g{s} is None "
                    f"else _iadd(g{s}, _c, out=A{s})"
                )
        for s in sorted(grad_names):
            lines.append(f"    g{s} = None")
        lines.append(f"    g{root_slot} = SEED")
        lines.extend(body)
        in_shape = repr(shapes[input_slot])
        lines.append(
            f"    return rv, (g{input_slot}.copy() "
            f"if g{input_slot} is not None else _zeros({in_shape}))"
        )
        lines += ["", "def _value(x):", *forward]
        lines.append(f"    return float({ref(root_slot)})")

        self._source = "\n".join(lines)
        exec(compile(self._source, "<compiled-tape>", "exec"), env)
        # Popped: a function's globals are ``env``, and a name left there
        # is a cycle that keeps every buffer until the collector runs.
        return env.pop("_replay"), env.pop("_value")

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
        # Probation calls the installed tape still owes, and the ones its
        # value program owes once the tape itself is proven.
        self._probation = 0
        self._value_probation = 0
        # Set once a value program disagreed with its tape's full replay;
        # :meth:`value` runs the full replay from then on.
        self._value_demoted = False
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
        program (one more rung of the ladder: its first
        ``verify.PROBATION["value"]`` calls answer beside the tape's full
        replay under the bitwise bar, and a mismatch steps down to the full
        replay for good). Until then — nothing recorded, tape on probation,
        another input shape — the call *is* ``self(x)[0]``, so recording,
        probation, re-recording and give-up behave as for a gradient call,
        except that wherever that call would interpret (compilation off or
        broken, or the tape breaker open with no tape to replay) this one
        traces forward and skips the backward sweep.
        """
        x = np.asarray(x, dtype=float)
        with self._lock:
            tape = self._tape
            if (
                tape is None or self._broken is not None or not _switch.on
                or self._probation or self._value_demoted
                or tape.input_shape != x.shape
            ):
                return self._call_locked(x, gradient=False)[0]
            self.stats["value_replays"] += 1
            result = self._timed_replay(tape.value, x)
            if self._value_probation:
                result = self._validated_value(tape, x, result)
            return result

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
        self._value_probation = verify.PROBATION["value"]
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

    def _validated_value(
        self, tape: CompiledTape, x: np.ndarray, result: float
    ) -> float:
        """One probation call of the value program: beside the proven
        tape's full replay, bit for bit (the two run the same forward
        kernels, whatever the tape's own tolerance)."""
        self.stats["validations"] += 1
        reference = tape.value_and_grad(x)[0]
        if verify.agreement(result, reference) == verify.MISMATCH:
            self._value_demoted = True
            warnings.warn(
                f"value-only replay demoted for {self._fn!r}: it disagreed "
                "with the tape's full replay; continuing on the full replay",
                RuntimeWarning,
            )
            return reference
        self._value_probation -= 1
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
