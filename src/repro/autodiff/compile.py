"""Compiled gradient tapes: record a ``logp`` graph once, replay it many times.

The interpreted tape (:mod:`repro.autodiff.tape`) rebuilds the whole
computation graph — one ``Var`` and one backward closure per primitive — on
*every* gradient evaluation. For the sampler hot path that Python overhead
dominates the numpy kernels the paper's hardware analysis assumes. This
module removes it:

* :class:`CompiledTape` — a flat, topologically-sorted instruction list
  captured from one traced evaluation. Replaying executes the *same* kernel
  functions (:data:`repro.autodiff.ops.KERNELS`) over preallocated numpy
  buffers: no graph reconstruction, no closure allocation, in-place ``out=``
  destinations where the kernel declares that safe. Because the kernels and
  the adjoint accumulation order are shared with the interpreted path,
  replayed values and gradients are **bit-identical** to interpretation.
* :class:`CompiledFunction` — the caching wrapper used by
  ``Model.compiled_logp_and_grad()``: records on first call and whenever the
  input shape changes, cross-checks the first replay(s) against a fresh
  interpreted trace, re-records when the graph *structure* changed
  (data-dependent control flow), and falls back to interpretation
  permanently when a graph cannot be compiled or keeps disagreeing
  (value-dependent statics). The fallback is transparent: callers always
  get the interpreted-exact ``(value, gradient)``.

Before compiling, the recorder runs the sufficient-statistics rewrite
(:mod:`repro.autodiff.suffstats`): full-data reductions in the traced logp
are folded into recorded constants so replay cost scales with the number
of parameters instead of the data size. A rewritten tape reassociates
sums, so its replays are validated under a tolerance protocol instead of
the bitwise one and *demoted* back to the unrewritten tape on mismatch;
``stats["suffstats_*"]`` reports what folded.

Kill switches: set ``REPRO_COMPILED_TAPE=0`` (or call :func:`disable`) to
keep every evaluation on the interpreted path; ``REPRO_SUFFSTATS=0`` to
compile tapes without the rewrite.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff import suffstats as suffstats_mod
from repro.autodiff import tape as tape_mod
from repro.autodiff.tape import Var, _unbroadcast

__all__ = [
    "CompiledFunction",
    "CompiledTape",
    "TapeUnsupportedError",
    "record",
    "tape_breaker",
    "enabled",
    "enable",
    "disable",
    "override",
]


class TapeUnsupportedError(RuntimeError):
    """The traced graph contains a node the replay engine cannot execute."""


# ---------------------------------------------------------------------------
# Global enable switch
# ---------------------------------------------------------------------------

def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_COMPILED_TAPE", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


_ENABLED = _env_enabled()

#: Replays cross-checked bitwise against a fresh interpreted trace after
#: each (re-)record; 0 disables validation entirely.
VALIDATE_CALLS = 1

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
    ``repro_resilience_breaker_state{breaker="compiled_tape"}``.
    """
    global _breaker_instance
    if _breaker_instance is None:
        from repro import telemetry
        from repro.resilience.breakers import CircuitBreaker

        _breaker_instance = CircuitBreaker(
            "compiled_tape",
            failure_threshold=BREAKER_THRESHOLD,
            reset_timeout=BREAKER_RESET_S,
            registry=telemetry.get_registry(),
        )
    return _breaker_instance


def enabled() -> bool:
    """True when compiled tapes are globally enabled."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextmanager
def override(value: bool):
    """Temporarily force compiled tapes on or off (tests, benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    try:
        yield
    finally:
        _ENABLED = previous


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
# The replay engine
# ---------------------------------------------------------------------------

class CompiledTape:
    """Flat instruction-list form of one traced graph.

    Built from a trace produced by :func:`_trace`; ``value_and_grad`` then
    replays forward and backward sweeps over preallocated buffers. All
    kernel dispatch happens through :data:`repro.autodiff.ops.KERNELS`, the
    same functions the interpreted path runs.
    """

    def __init__(
        self,
        root: Var,
        leaf: Var,
        signature: Optional[tuple] = None,
        rewrite_info=None,
    ) -> None:
        #: Set when this tape was built from a sufficient-statistics
        #: rewrite of the trace (a ``suffstats.RewriteInfo``); its replays
        #: then validate under the tolerance protocol, and ``mode``
        #: becomes ``"exact"`` or ``"approximate"`` once validation has
        #: compared the first replay against the interpreted reference.
        self.rewrite_info = rewrite_info
        self.mode: Optional[str] = None
        order = _creation_order(root)
        if leaf not in order:
            # The output does not depend on the input; keep a slot for it
            # anyway so the replay has somewhere to read/write.
            order.append(leaf)
        index = {id(node): i for i, node in enumerate(order)}

        n = len(order)
        self._vals: List[Optional[np.ndarray]] = [None] * n
        self._shapes: List[tuple] = [node.value.shape for node in order]
        self._requires: List[bool] = [node.requires_grad for node in order]
        # Per-slot adjoint accumulation buffers (used only when a slot
        # receives more than one contribution).
        self._gbufs: List[np.ndarray] = [
            np.empty(shape) for shape in self._shapes
        ]

        fwd_instr = []
        bwd_instr = []
        for i, node in enumerate(order):
            if not node.parents:
                if node is not leaf:
                    self._vals[i] = node.value
                continue
            if node.op is None or node.op not in ops.KERNELS:
                label = node.op or node.tag or f"Var#{node._id}"
                raise TapeUnsupportedError(
                    f"node {label!r} was not built through the kernel "
                    "registry and cannot be replayed"
                )
            kernel = ops.KERNELS[node.op]
            out = np.empty(node.value.shape) if kernel.out_safe else None
            slots = tuple(index[id(p)] for p in node.parents)
            aux_index = len(fwd_instr)
            fwd_instr.append(
                (kernel.forward, slots, node.op_static, out, i, aux_index)
            )
            bwd_instr.append(
                (kernel.backward, slots, node.op_static, i, aux_index)
            )
        bwd_instr.reverse()
        self._fwd_instr = fwd_instr
        self._bwd_instr = bwd_instr

        self._input_slot = index[id(leaf)]
        self._root_slot = index[id(root)]
        self.input_shape = leaf.value.shape
        # A rewritten tape carries the *original* trace's signature so the
        # staleness check in ``_validated_replay`` keeps comparing against
        # what a fresh interpreted trace of the model produces.
        self.signature = (
            signature if signature is not None
            else structure_signature(root, leaf)
        )

        try:
            self._call = self._emit_callable()
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise TapeUnsupportedError(f"tape codegen failed: {exc}") from exc

    # -- code generation -----------------------------------------------------

    def _emit_callable(self) -> Callable[[np.ndarray], Tuple[float, np.ndarray]]:
        """Generate straight-line Python source for one value+grad replay.

        The emitted function runs ``_fwd_instr`` then ``_bwd_instr`` —
        the identical kernels in the identical order as the interpreted
        ``Var`` sweep — with the instruction dispatch unrolled into plain
        local-variable code: no per-instruction tuple destructuring, no
        slot-list indexing, no loop bookkeeping. Gradient paths that cannot reach the input (constant
        subtrees) are pruned statically — interpretation computes those
        adjoints too but discards them, so the surviving contributions, and
        hence every accumulated value, are unchanged bit for bit.
        """
        n = len(self._shapes)
        requires = self._requires
        input_slot = self._input_slot
        root_slot = self._root_slot

        # carries[s]: the adjoint at slot s can flow to the input.
        carries = [False] * n
        carries[input_slot] = True
        for _fwd, slots, _static, _out, slot, _ai in self._fwd_instr:
            carries[slot] = any(requires[s] and carries[s] for s in slots)

        dynamic = {input_slot}
        dynamic.update(ins[4] for ins in self._fwd_instr)

        def ref(s: int) -> str:
            return f"v{s}" if s in dynamic else f"C{s}"

        def refs(slots: tuple) -> str:
            inner = ", ".join(ref(s) for s in slots)
            return f"({inner},)" if len(slots) == 1 else f"({inner})"

        env = {
            "_nd": np.ndarray,
            "_as": np.asarray,
            "_unb": _unbroadcast,
            "_iadd": np.add,
            "_zeros": np.zeros,
            "SEED": np.ones(self._shapes[root_slot]),
        }
        for s in range(n):
            if s not in dynamic:
                env[f"C{s}"] = self._vals[s]

        lines = [f"def _replay(x):", f"    v{input_slot} = x"]
        for fwd, slots, static, out, slot, aux_index in self._fwd_instr:
            env[f"F{aux_index}"] = fwd
            env[f"S{aux_index}"] = static
            if out is not None:
                env[f"O{aux_index}"] = out
                out_ref = f"O{aux_index}"
            else:
                out_ref = "None"
            lines.append(
                f"    v{slot}, a{aux_index} = "
                f"F{aux_index}({refs(slots)}, S{aux_index}, {out_ref})"
            )
            if out is None:
                lines.append(
                    f"    if type(v{slot}) is not _nd: "
                    f"v{slot} = _as(v{slot}, float)"
                )
        lines.append(f"    rv = float({ref(root_slot)})")

        grad_names = {root_slot, input_slot}
        body = []
        for bwd, slots, static, slot, aux_index in self._bwd_instr:
            if not carries[slot]:
                continue
            env[f"B{aux_index}"] = bwd
            grad_names.add(slot)
            body.append(f"    if g{slot} is not None:")
            body.append(
                f"        c = B{aux_index}(g{slot}, {refs(slots)}, "
                f"{ref(slot)}, a{aux_index}, S{aux_index})"
            )
            for k, s in enumerate(slots):
                if not (requires[s] and carries[s]):
                    continue
                grad_names.add(s)
                env[f"A{s}"] = self._gbufs[s]
                shape = repr(self._shapes[s])
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
        in_shape = repr(self._shapes[input_slot])
        lines.append(
            f"    return rv, (g{input_slot}.copy() "
            f"if g{input_slot} is not None else _zeros({in_shape}))"
        )

        self._source = "\n".join(lines)
        exec(compile(self._source, "<compiled-tape>", "exec"), env)
        return env["_replay"]

    # -- replay --------------------------------------------------------------

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        return self._call(x)

    @property
    def n_instructions(self) -> int:
        return len(self._fwd_instr)

    @property
    def rewritten(self) -> bool:
        """True when this tape came from the sufficient-statistics pass."""
        return self.rewrite_info is not None

    @property
    def buffer_elements(self) -> int:
        """Total forward-buffer elements — the replay's working-set size."""
        return int(sum(
            int(np.prod(shape, dtype=np.int64)) for shape in self._shapes
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


def record(fn: Callable[[Var], Var], x: np.ndarray) -> CompiledTape:
    """Trace ``fn`` at ``x`` and return its compiled tape."""
    leaf, root = _trace(fn, np.asarray(x, dtype=float))
    return CompiledTape(root, leaf)


# ---------------------------------------------------------------------------
# The caching / fallback wrapper
# ---------------------------------------------------------------------------

class CompiledFunction:
    """Cache-and-replay wrapper around a scalar graph builder.

    ``fn`` maps a 1-D ``Var`` to a scalar ``Var`` (a model's ``_logp_var``).
    Calls return interpreted-exact ``(value, gradient)`` whichever path ran.

    ``stats`` counts cache misses (``records``), hits (``replays``),
    interpreted evaluations after giving up (``fallbacks``), bitwise
    cross-checks (``validations``) and cumulative ``replay_seconds``.

    **Thread safety.** A replay writes into the tape's preallocated
    forward/adjoint buffers, so two threads replaying the same
    ``CompiledFunction`` concurrently would alias each other's
    intermediate values and return silently corrupted gradients. Every
    call therefore serializes on an internal lock — correctness over
    parallel throughput at this seam. Cross-*chain* parallelism belongs
    either in separate processes (``repro.serve`` workers, one model and
    tape per process) or in :mod:`repro.batch`, whose lanes give every
    chain its own buffer row inside one evaluation.
    """

    def __init__(
        self,
        fn: Callable[[Var], Var],
        validate_calls: Optional[int] = None,
    ) -> None:
        self._fn = fn
        self._tape: Optional[CompiledTape] = None
        self._broken: Optional[str] = None
        self._pending_validation = 0
        self._validate_calls = (
            VALIDATE_CALLS if validate_calls is None else validate_calls
        )
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

    def __call__(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        with self._lock:
            return self._call_locked(np.asarray(x, dtype=float))

    def _call_locked(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        if self._broken is not None or not _ENABLED:
            self.stats["fallbacks"] += 1
            leaf, root = _trace(self._fn, x)
            return _reference_from_trace(leaf, root, x)
        tape = self._tape
        if tape is None or tape.input_shape != x.shape:
            if not tape_breaker().allow():
                # Recent recordings elsewhere in the process failed
                # validation; don't pay trace + validate again until the
                # breaker lets a probe through. Not permanent for this
                # function: a later call retries once the breaker resets.
                self.stats["fallbacks"] += 1
                leaf, root = _trace(self._fn, x)
                return _reference_from_trace(leaf, root, x)
            return self._record_at(x)
        if self._pending_validation > 0:
            return self._validated_replay(x)
        self.stats["replays"] += 1
        start = perf_counter()
        result = tape.value_and_grad(x)
        self.stats["replay_seconds"] += perf_counter() - start
        return result

    # -- internals -----------------------------------------------------------

    def _give_up(self, reason: str) -> None:
        self._broken = reason
        self._tape = None
        tape_breaker().record_failure()
        warnings.warn(
            f"compiled tape disabled for {self._fn!r}: {reason}; "
            "falling back to interpreted evaluation",
            RuntimeWarning,
        )

    def _record_at(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        leaf, root = _trace(self._fn, x)
        value, grad = _reference_from_trace(leaf, root, x)
        self._install_tape(leaf, root)
        return value, grad

    def _build_tape(self, leaf: Var, root: Var) -> CompiledTape:
        """Compile the trace, attempting the sufficient-statistics rewrite.

        The rewrite is strictly best-effort: any failure (unsupported
        node, a bug in a rule) falls back to compiling the original trace,
        never to interpretation. A rewritten tape is kept only when the
        replay cost model says it beats the plain tape (small-data graphs
        gain dispatch overhead without shedding meaningful volume), unless
        ``suffstats.FORCE`` bypasses the comparison.
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
            return rewritten
        return plain

    def _install_tape(self, leaf: Var, root: Var) -> None:
        if self._record_count >= MAX_RECORDS:
            self._give_up(
                f"graph structure changed {self._record_count} times"
            )
            return
        try:
            self._tape = self._build_tape(leaf, root)
        except TapeUnsupportedError as exc:
            self._give_up(str(exc))
            return
        info = self._tape.rewrite_info
        self.stats["suffstats_active"] = 1 if info is not None else 0
        self.stats["suffstats_folded_ops"] = (
            info.folded_ops if info is not None else 0
        )
        self.stats["suffstats_folded_elements"] = (
            info.folded_elements if info is not None else 0
        )
        self._record_count += 1
        self.stats["records"] += 1
        self._pending_validation = self._validate_calls
        if self._validate_calls == 0:
            # No validation pass will ever vouch for this tape; count the
            # successful install so a half-open probe can still close.
            tape_breaker().record_success()

    def _validated_replay(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        tape = self._tape
        self.stats["replays"] += 1
        start = perf_counter()
        value, grad = tape.value_and_grad(x)
        self.stats["replay_seconds"] += perf_counter() - start

        self.stats["validations"] += 1
        leaf, root = _trace(self._fn, x)
        ref_value, ref_grad = _reference_from_trace(leaf, root, x)
        if structure_signature(root, leaf) != tape.signature:
            # Data-dependent control flow took a different branch: the old
            # tape is stale for this input, so re-record from this trace.
            self._install_tape(leaf, root)
            return ref_value, ref_grad
        bit_value = value == ref_value or (
            np.isnan(value) and np.isnan(ref_value)
        )
        bit_identical = bit_value and np.array_equal(
            grad, ref_grad, equal_nan=True
        )
        if not bit_identical:
            if tape.rewritten and self._suffstats_tolerable(
                value, grad, ref_value, ref_grad
            ):
                pass  # approximate mode: within documented tolerances
            elif tape.rewritten:
                # The rewrite's reassociation drifted past tolerance (or a
                # rule is wrong for this graph): demote to the unrewritten
                # tape rather than losing compilation entirely. The
                # re-record doesn't count against MAX_RECORDS — the graph
                # structure didn't churn, our rewrite did.
                self._suffstats_demoted = (
                    "rewritten replay exceeded suffstats tolerance"
                )
                self.stats["suffstats_demotions"] += 1
                warnings.warn(
                    f"sufficient-statistics rewrite demoted for "
                    f"{self._fn!r}: replay disagreed with interpreted "
                    "evaluation beyond tolerance; recompiling without the "
                    "rewrite",
                    RuntimeWarning,
                )
                self._record_count -= 1
                self._install_tape(leaf, root)
                return ref_value, ref_grad
            else:
                # Same structure but different numbers on an unrewritten
                # tape: some static argument is value-dependent; replaying
                # would silently change results.
                self._give_up(
                    "replay disagrees with interpreted evaluation "
                    "(value-dependent static argument?)"
                )
                return ref_value, ref_grad
        if tape.rewritten and tape.mode is None:
            tape.mode = "exact" if bit_identical else "approximate"
            self.stats["suffstats_exact"] = 1 if bit_identical else 0
        self._pending_validation -= 1
        if self._pending_validation == 0:
            tape_breaker().record_success()
        return value, grad

    @staticmethod
    def _suffstats_tolerable(
        value: float,
        grad: np.ndarray,
        ref_value: float,
        ref_grad: np.ndarray,
    ) -> bool:
        """Tolerance comparison for rewritten tapes (reassociated sums)."""
        rtol, atol = suffstats_mod.RTOL, suffstats_mod.ATOL
        if value != ref_value:
            if np.isnan(value) or np.isnan(ref_value):
                if not (np.isnan(value) and np.isnan(ref_value)):
                    return False
            elif np.isinf(value) or np.isinf(ref_value):
                return False
            elif abs(value - ref_value) > atol + rtol * max(
                abs(value), abs(ref_value)
            ):
                return False
        return np.allclose(grad, ref_grad, rtol=rtol, atol=atol, equal_nan=True)
