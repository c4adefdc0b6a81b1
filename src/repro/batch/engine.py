"""The batch-axis replay engine over a compiled tape.

:class:`BatchedTape` takes one :class:`~repro.autodiff.compile.CompiledTape`
and a lane count ``B`` and replays the tape's instruction list once per
*batch* instead of once per chain: every slot whose value depends on the
input gets a ``(B,) + solo_shape`` buffer, and each instruction executes in
one of two modes:

* **vector** — one numpy call over the whole batch. Only ops whose kernels
  are elementwise (plus ``where``, ``reduce_sum``, ``getitem``,
  ``logsumexp`` and ``stack``) qualify: their per-element arithmetic is
  independent of array extent, so lane ``i`` of the batched result is
  computed by the same scalar operations as the solo replay. Operands are
  aligned with a leading-axis pad
  (``(B,) + (1,)*(out_ndim - op_ndim) + op_shape``) so numpy broadcasting
  within a lane matches solo broadcasting exactly and lanes never mix.
  ``getitem`` is the solo kernel itself under a key with a leading
  all-lanes slice; ``logsumexp`` and ``stack`` are the solo kernels with
  their axis moved past the lanes (``None``, for ``logsumexp``, becomes
  every trailing axis), ``stack`` over unpadded operands with a shared one
  repeated per lane. (``take`` stays out: ``np.add.at`` under a
  ``(slice, indices)`` key misses ``ufunc.at``'s 1-D fast path and costs
  more than the lane loop — ``docs/batching.md`` has the numbers.)
* **lane** — a Python loop over the active lanes calling the solo kernel on
  row views. Used for everything shape-dependent (BLAS ``dot``/``matvec``/
  ``matmul``, linear algebra, ``take``, ``concat``, ``reshape``), where
  different array extents may legitimately take different code paths
  inside numpy. Trivially bit-identical to solo replay — it *is* the solo
  replay.

Because every batched slot is backed by a fixed preallocated buffer, all
padded operand views and per-lane row views are constructed once at build
time. Once probation has settled which instructions are vector, the replay
itself is generated: one straight-line function with those views, the
kernels and the buffers bound as names (``BatchedTape._emit_program``, the
way ``CompiledTape`` generates the solo replay), so the per-call work is
kernel calls and nothing else. The instruction-by-instruction interpreter
only calibrates.

Whether a vector-eligible op really is bit-identical on this platform and
this data is not assumed but put on probation
(:mod:`repro.autodiff.verify`; ``docs/performance.md``, "How a fast path
earns trust"): while the vector instructions serve theirs, every candidate
is computed both ways — forward values and backward contributions — and
one that differs anywhere from lane mode drops to lane mode for good; the
calls after that are the generated program's, each lane's final ``(value,
gradient)`` cross-checked against ``CompiledTape.value_and_grad``, and a
disagreement drops the whole tape to lane mode (and the program is
generated again). Only after both is the engine ``stable``.

Masking: lanes are admitted per call (``evaluate`` takes a lane→position
mapping); inactive lanes keep stale buffer rows that vector ops compute
over and discard — elementwise ops cannot leak anything across lanes, and
``reduce_sum`` and ``logsumexp`` only reduce within a lane. A lane whose
lane-mode kernel raises ``LinAlgError`` mid-forward is dead for the call
(skipped by every later lane-mode instruction) and reports ``(-inf, 0)``,
exactly like the solo path's exception handling in
``Model.compiled_logp_and_grad``.

Interaction with the sufficient-statistics rewrite
(:mod:`repro.autodiff.suffstats`): the batch driver acquires whatever
tape the model compiled, so a rewritten tape batches like any other —
its instruction list is just shorter, with the folded data sums already
baked into constant slots. The ``dot``/``matvec`` contractions a rewrite
introduces (Gram-matrix quadratic forms) run in lane mode here, which is
fine: they are parameter-sized, not data-sized, so the lane loop is over
tiny arrays.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autodiff import ops, verify
from repro.autodiff.compile import (
    TapeUnsupportedError, _accumulate, _inline_adjoint,
)
from repro.autodiff.tape import _unbroadcast

__all__ = ["BatchedTape", "BatchedEvaluator", "VECTOR_OPS"]

#: Ops whose kernels are elementwise maps (or lane-local selections): the
#: batched call runs the same per-element arithmetic as B solo calls.
#: Everything absent from this set always runs in lane mode.
VECTOR_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "power", "square", "absolute",
    "exp", "log", "log1p", "expm1", "sqrt", "sin", "cos", "tanh",
    "sigmoid", "softplus", "log_sigmoid", "lgamma", "erf", "normal_cdf",
    "arctan", "clip_min", "where", "reduce_sum", "getitem",
    "logsumexp", "stack",
})


def _shift_axis(axis, ndim: int):
    """A solo axis of an ``ndim``-dimensional operand, moved past the
    leading batch axis; ``None`` (all of them) becomes every trailing axis."""
    if axis is None:
        return tuple(range(1, ndim + 1))
    if isinstance(axis, tuple):
        return tuple(a + 1 if a >= 0 else a for a in axis)
    return axis + 1 if axis >= 0 else axis


def _lane_key(key) -> tuple:
    """A solo ``getitem`` key, moved past the leading batch axis."""
    return (slice(None),) + (key if isinstance(key, tuple) else (key,))


def _unbroadcast_lanes(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Per-lane :func:`repro.autodiff.tape._unbroadcast`, preserving axis 0.

    ``grad`` has a leading batch axis; reduce the remaining axes down to
    ``shape`` with the same sums (same axes, same order) the solo
    unbroadcast performs per lane.
    """
    B = grad.shape[0]
    target = (B,) + shape
    if grad.shape == target:
        return grad
    extra = grad.ndim - len(target)
    if extra > 0:
        # Solo sums the leading broadcast axes; batched, those axes sit
        # right after the batch axis.
        grad = grad.sum(axis=tuple(range(1, 1 + extra)))
    axes = tuple(
        i + 1 for i, n in enumerate(shape) if n == 1 and grad.shape[i + 1] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(target)


def _lanes_agree(got, ref, lanes, dead) -> bool:
    """Every live lane's row of ``got`` is bit for bit its row of ``ref``."""
    return all(
        verify.agreement(got[i], ref[i]) == verify.EXACT
        for i in lanes if i not in dead
    )


def _lane_rows(buf: np.ndarray) -> List[np.ndarray]:
    """Writable per-lane 0-d-safe row views of a ``(B,)+shape`` buffer."""
    if buf.ndim == 1:
        # buf[i] would be a scalar copy; a reshaped length-1 slice is a
        # live 0-d view, which is also what solo replay hands kernels.
        return [buf[i:i + 1].reshape(()) for i in range(buf.shape[0])]
    return [buf[i] for i in range(buf.shape[0])]


def _copied(buf: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``buf``, holding ``value``: an adjoint whose reader finds it through
    prebuilt views of ``buf``."""
    np.copyto(buf, value)
    return buf


class _Instr:
    """One batched forward/backward instruction with prebuilt views."""

    __slots__ = (
        "name", "kernel", "fwd", "bwd", "slots", "static", "slot", "ai",
        "vector", "targets",
        "vop", "vstatic", "buf", "out_safe",
        "red_axis", "red_flat", "red_view",
        "lrows", "orow", "grow", "aux_rows", "scratch", "srows",
    )


# -- one instruction, either way ----------------------------------------------
# The lane pair is the whole of lane mode, for the calibration sweep and the
# generated program alike; the vector pair is what calibration compares with
# it (the program inlines the same calls and adjoints, and calls
# _vector_backward for a kernel that declares none).


def _vector_forward(ins: _Instr):
    """One batched forward call into ``ins.buf``; returns the aux."""
    if ins.red_axis is not None:
        # np.sum's own reduction, minus its Python wrapper.
        np.add.reduce(ins.red_flat, axis=ins.red_axis, out=ins.buf)
        return None
    if ins.out_safe:
        return ins.fwd(ins.vop, ins.vstatic, ins.buf)[1]
    # 'where', 'getitem': no out= support; copy into the fixed buffer so
    # every consumer's prebuilt views stay valid. The copy is bit-preserving.
    value, aux = ins.fwd(ins.vop, ins.vstatic, None)
    np.copyto(ins.buf, value)
    return aux


def _vector_backward(ins: _Instr, g: np.ndarray, aux) -> list:
    """Per-target batched contributions of one vector instruction, given
    the slot's adjoint ``g``."""
    if ins.red_axis is not None:
        contribs = (ins.red_view,)
    else:
        contribs = ins.bwd(g, ins.vop, ins.buf, aux, ins.vstatic)
    B = ins.buf.shape[0]
    out = []
    for k, _s, shape in ins.targets:
        c = contribs[k]
        if type(c) is not np.ndarray:
            c = np.asarray(c, dtype=float)
        if c.shape != (B,) + shape:
            c = _unbroadcast_lanes(c, shape)
        out.append(c)
    return out


def _lane_forward(ins: _Instr, lanes, dead) -> None:
    """The solo kernel on each live lane's rows; a lane whose kernel raises
    ``LinAlgError`` joins ``dead``."""
    fwd = ins.fwd
    static = ins.static
    lrows = ins.lrows
    orow = ins.orow
    aux_rows = ins.aux_rows
    for i in lanes:
        if i in dead:
            continue
        try:
            value, aux = fwd(lrows[i], static, None)
        except np.linalg.LinAlgError:
            dead.add(i)
            continue
        np.copyto(orow[i], value)
        aux_rows[i] = aux


def _lane_backward(ins: _Instr, lanes, dead) -> list:
    """Per-target stacked contributions, computed lane by lane from the
    rows of the slot's adjoint buffer: ``ins.scratch``, parallel to
    ``ins.targets``. Rows of dead lanes are left unwritten (garbage);
    callers never read them.
    """
    bwd = ins.bwd
    static = ins.static
    lrows = ins.lrows
    orow = ins.orow
    grow = ins.grow
    aux_rows = ins.aux_rows
    for i in lanes:
        if i in dead:
            continue
        contribs = bwd(grow[i], lrows[i], orow[i], aux_rows[i], static)
        for t, (k, _s, shape) in enumerate(ins.targets):
            c = contribs[k]
            if type(c) is not np.ndarray:
                c = np.asarray(c, dtype=float)
            if c.shape != shape:
                c = _unbroadcast(c, shape)
            np.copyto(ins.srows[t][i], c)
    return ins.scratch


class BatchedTape:
    """Replay ``B`` lanes of one compiled tape as batched numpy calls."""

    def __init__(self, tape, width: int) -> None:
        if width < 1:
            raise ValueError("a batched tape needs at least one lane")
        self.tape = tape
        self.width = B = int(width)
        self.input_shape = tape.input_shape
        self.demotions = 0
        # Probation calls still owed: by the vector instructions (against
        # lane mode), then by the whole result (against the solo tape).
        self._instr_probation = verify.PROBATION["vector_instruction"]
        self._result_probation = verify.PROBATION["batched_result"]
        # The generated steady-state replay; emitted once the instruction
        # probation has settled which instructions are vector.
        self._program = None
        self._source = ""

        shapes = tape.shapes
        requires = tape.requires
        # Adjoints are kept for the same slots the solo executor keeps
        # them for, so the batched backward accumulates exactly the
        # contributions the solo replay accumulates. Carrying slots are
        # necessarily batched (their value chain reaches the input).
        carries = self._carries = tape.carries
        n = len(shapes)

        # A slot is batched when its value can differ across lanes: the
        # input, and any op output with at least one batched operand.
        batched = [False] * n
        batched[tape.input_slot] = True
        for rec in tape.instructions:
            if any(batched[s] for s in rec.inputs):
                batched[rec.out] = True
        self._batched = batched

        # Shared (lane-independent) values: the tape's constants, plus op
        # outputs of constant subtrees, computed once here with the same
        # kernels the solo replay would run.
        shared: List[Optional[np.ndarray]] = list(tape.constants)

        # Fixed buffers: forward values and adjoints, one row per lane.
        self._bufs: Dict[int, np.ndarray] = {
            s: np.empty((B,) + shapes[s]) for s in range(n) if batched[s]
        }
        self._gbufs: Dict[int, np.ndarray] = {
            s: np.empty((B,) + shapes[s]) for s in range(n) if carries[s]
        }

        self._instr: List[_Instr] = []
        for ai, rec in enumerate(tape.instructions):
            kernel = rec.kernel
            if not batched[rec.out]:
                value, _aux = kernel.forward(
                    [shared[s] for s in rec.inputs], rec.static, None
                )
                if type(value) is not np.ndarray:
                    value = np.asarray(value, dtype=float)
                shared[rec.out] = value
                continue
            ins = _Instr()
            ins.name = rec.op
            ins.kernel = kernel
            ins.fwd = kernel.forward
            ins.bwd = kernel.backward
            ins.slots = slots = rec.inputs
            ins.static = rec.static
            ins.slot = slot = rec.out
            ins.ai = ai
            ins.vector = rec.op in VECTOR_OPS
            ins.out_safe = kernel.out_safe
            ins.buf = self._bufs[slot]
            # (contribution index, operand slot, operand solo shape) for
            # every operand whose adjoint survives the carries pruning.
            ins.targets = tuple(
                (k, s, shapes[s])
                for k, s in enumerate(slots)
                if requires[s] and carries[s]
            )
            self._instr.append(ins)
        self._shared = shared

        # Backward order: the carrying suffix of the reversed instruction
        # list, mirroring the emitted solo code.
        self._bwd = [ins for ins in reversed(self._instr) if carries[ins.slot]]

        # Prebuild every view the replay will touch. Buffers never move,
        # so these are constructed exactly once.
        lane_rows_cache: Dict[int, List[np.ndarray]] = {}

        def rows_for(s: int) -> List[np.ndarray]:
            if s not in lane_rows_cache:
                lane_rows_cache[s] = _lane_rows(self._bufs[s])
            return lane_rows_cache[s]

        for ins in self._instr:
            out_nd = len(shapes[ins.slot])
            # Vector operands: padded batched views (lane i broadcasts
            # against lane i only) or the shared array (trailing-aligned,
            # as in solo replay). 'getitem' indexes its operand as it is;
            # 'stack' joins its operands as they are, a shared one
            # repeated for every lane.
            vop = []
            for s in ins.slots:
                if not batched[s]:
                    vop.append(
                        np.broadcast_to(shared[s], (B,) + shapes[s])
                        if ins.name == "stack" else shared[s]
                    )
                    continue
                arr = self._bufs[s]
                pad = max(0, out_nd - (arr.ndim - 1))
                if pad and ins.name not in ("getitem", "stack"):
                    arr = arr.reshape(arr.shape[:1] + (1,) * pad + arr.shape[1:])
                vop.append(arr)
            ins.vop = vop
            # The solo kernel's own static arguments, except where one
            # names an axis position: over the whole batch, 'getitem' is
            # the solo kernel (forward and backward) under a key with a
            # leading all-lanes slice, and 'logsumexp' and 'stack' are the
            # solo kernels with the axis moved past the lanes.
            if ins.name == "getitem":
                ins.vstatic = (_lane_key(ins.static[0]),)
            elif ins.name in ("logsumexp", "stack"):
                ins.vstatic = (
                    _shift_axis(ins.static[0], len(shapes[ins.slots[0]])),
                )
            else:
                ins.vstatic = ins.static
            ins.red_axis = None
            if ins.name == "reduce_sum":
                src = self._bufs[ins.slots[0]]
                axis = ins.static[0]
                if axis is None:
                    ins.red_flat = src.reshape(B, -1)
                    ins.red_axis = 1
                    expanded = (B,) + (1,) * (src.ndim - 1)
                else:
                    ins.red_flat = src
                    ins.red_axis = _shift_axis(axis, src.ndim - 1)
                    expanded = np.expand_dims(ins.buf, ins.red_axis).shape
                # The backward contribution, once: the slot's adjoint
                # buffer broadcast over the summed axes (the solo kernel's
                # expand_dims + broadcast_to per lane), as a view.
                if carries[ins.slot]:
                    ins.red_view = np.broadcast_to(
                        self._gbufs[ins.slot].reshape(expanded), src.shape
                    )
            # Lane-mode row views.
            ins.lrows = [
                [
                    rows_for(s)[i] if batched[s] else shared[s]
                    for s in ins.slots
                ]
                for i in range(B)
            ]
            ins.orow = rows_for(ins.slot)
            ins.grow = (
                _lane_rows(self._gbufs[ins.slot])
                if carries[ins.slot] else None
            )
            ins.aux_rows = [None] * B
            # Per-target stacked-contribution scratch for lane-mode
            # backward (and its row views).
            ins.scratch = [
                np.empty((B,) + shape) for _k, _s, shape in ins.targets
            ]
            ins.srows = [_lane_rows(arr) for arr in ins.scratch]

        self._root = tape.root_slot
        self._input = tape.input_slot
        self._root_vals = (
            self._bufs[self._root] if batched[self._root]
            else shared[self._root]
        )
        self._in_buf = self._bufs[self._input]
        if carries[self._root]:
            # The backward seed. Nothing accumulates into the root's
            # adjoint (the root is no instruction's operand), so it is
            # written here and only ever read.
            self._gbufs[self._root].fill(1.0)

    # -- properties -----------------------------------------------------------

    @property
    def stable(self) -> bool:
        """Every probation served: vector mode runs unchecked from here."""
        return self._instr_probation == 0 and self._result_probation == 0

    @property
    def n_vector(self) -> int:
        return sum(1 for ins in self._instr if ins.vector)

    @property
    def n_lane(self) -> int:
        return sum(1 for ins in self._instr if not ins.vector)

    def _demote(self, ins: _Instr) -> None:
        if ins.vector:
            ins.vector = False
            self.demotions += 1

    # -- the replay -----------------------------------------------------------

    def evaluate(
        self, xs: Dict[int, np.ndarray]
    ) -> Dict[int, Tuple[float, np.ndarray]]:
        """Replay all lanes in ``xs`` (lane index → position) at once.

        Returns lane index → ``(logp, gradient)`` with exactly the solo
        ``Model.compiled_logp_and_grad`` semantics per lane: a lane whose
        replay raised ``LinAlgError`` or produced a non-finite value
        reports ``(-inf, zeros)``.
        """
        lanes = sorted(xs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self._instr_probation > 0:
                return self._calibrate(xs, lanes)
            if self._program is None:
                self._program = self._emit_program()
            results = self._program(xs, lanes)
            if self._result_probation > 0:
                self._validate(xs, lanes, results)
            return results

    def _calibrate(self, xs, lanes):
        """One instruction-probation call: every instruction in lane mode,
        every vector candidate beside it, compared; the lane-mode numbers
        are the answer."""
        in_buf = self._in_buf
        for i in lanes:
            in_buf[i] = xs[i]
        dead = set()

        # Forward sweep.
        vec_aux = {}  # ai -> aux of a vector forward that agreed
        for ins in self._instr:
            vec_value = aux = None
            if ins.vector:
                # The vector result first (the lane pass below overwrites
                # the shared buffer), compared against the lane-mode
                # reference afterwards.
                try:
                    aux = _vector_forward(ins)
                    vec_value = ins.buf.copy()
                except Exception:
                    pass
            _lane_forward(ins, lanes, dead)
            if ins.vector:
                if vec_value is not None and _lanes_agree(
                    vec_value, ins.buf, lanes, dead
                ):
                    vec_aux[ins.ai] = aux
                else:
                    self._demote(ins)

        # Backward sweep (adjoints of the carrying slots only — the same
        # pruning the solo emitted code applies).
        gbufs = self._gbufs
        seen = {self._root} if self._carries[self._root] else set()
        for ins in self._bwd:
            if ins.slot not in seen:
                continue
            contribs = _lane_backward(ins, lanes, dead)
            if ins.vector:
                # Compare the vector transform against the lane reference
                # before trusting it.
                try:
                    vec_contribs = _vector_backward(
                        ins, gbufs[ins.slot], vec_aux.get(ins.ai)
                    )
                except Exception:
                    vec_contribs = None
                if vec_contribs is None or not all(
                    _lanes_agree(v, c, lanes, dead)
                    for v, c in zip(vec_contribs, contribs)
                ):
                    self._demote(ins)
            for c, (_k, s, _shape) in zip(contribs, ins.targets):
                if s in seen:
                    np.add(gbufs[s], c, out=gbufs[s])
                else:
                    np.copyto(gbufs[s], c)
                    seen.add(s)

        # Collect per-lane results with solo fallback semantics.
        root_vals = self._root_vals
        root_batched = self._batched[self._root]
        in_shape = self.input_shape
        g_in = gbufs[self._input] if self._input in seen else None
        results: Dict[int, Tuple[float, np.ndarray]] = {}
        for i in lanes:
            value = float(root_vals[i]) if root_batched else float(root_vals)
            if i in dead or not np.isfinite(value):
                results[i] = verify.rejection(in_shape)
                continue
            grad = g_in[i].copy() if g_in is not None else np.zeros(in_shape)
            results[i] = (value, grad)
        self._instr_probation -= 1
        return results

    def _emit_program(self):
        """Generate straight-line source for the settled replay.

        What :meth:`_calibrate` interprets, unrolled the way
        ``CompiledTape`` unrolls the solo replay: forward over every
        instruction, backward over the carrying ones, per-lane collection —
        kernels, operand views, value buffers ``V``, adjoint buffers ``G``
        and static arguments bound as names. A vector instruction's forward
        is one inlined kernel call — the numpy call itself, on operand views
        bound one name each, where the kernel is declared by its call
        (:func:`repro.autodiff.ops.register_call`); a lane-mode one is one
        call of the lane pair.

        Backward, each adjoint that carries from a kernel that declares its
        adjoints is its expression on those names, ``g28 = g31 * V31``,
        with the per-lane unbroadcast its shape needs written out
        (:func:`repro.autodiff.compile._inline_adjoint`); ``getitem`` under
        a basic key is its scatter, zeros plus ``np.add`` into the key's
        view; ``reduce_sum``'s is a prebuilt view of ``G``; any other
        vector instruction calls calibration's ``_vector_backward``.
        Whether a slot's adjoint is set yet is known here: its first
        contribution is kept by reference (later ones sum into ``G``),
        except where the slot's own instruction reads the adjoint through
        prebuilt views of ``G`` — lane-mode rows, a ``reduce_sum``'s
        broadcast view: there it is copied into ``G``.
        """
        B = self.width
        env = {
            "_iadd": np.add, "_reduce": np.add.reduce, "_sum": np.add.reduce,
            "_copyto": np.copyto, "_zeros": np.zeros, "_finite": math.isfinite,
            "_copied": _copied, "_vbwd": _vector_backward,
            "_lfwd": _lane_forward, "_lbwd": _lane_backward,
            "_rejection": verify.rejection,
            "X": self._in_buf, "ROOT": self._root_vals,
            **ops.ADJOINT_GLOBALS,
        }
        env.update((f"V{s}", buf) for s, buf in self._bufs.items())
        env.update((f"G{s}", buf) for s, buf in self._gbufs.items())

        lines = [
            "def _program(xs, lanes):",
            "    for i in lanes: X[i] = xs[i]",
            "    dead = set()",
        ]
        in_place = set()  # slots whose adjoint is read through views of G
        for ins in self._instr:
            ai, slot = ins.ai, ins.slot
            if not ins.vector:
                env[f"I{ai}"] = ins
                in_place.add(slot)
                lines.append(f"    _lfwd(I{ai}, lanes, dead)")
            elif ins.red_axis is not None:
                env[f"R{ai}"] = ins.red_flat
                in_place.add(slot)
                lines.append(
                    f"    _reduce(R{ai}, axis={ins.red_axis!r}, out=V{slot})"
                )
            else:
                env[f"P{ai}"] = ins.vop
                env[f"S{ai}"] = ins.vstatic
                env.update((f"P{ai}_{k}", v) for k, v in enumerate(ins.vop))
                env.update(
                    (f"S{ai}_{i}", v) for i, v in enumerate(ins.vstatic)
                )
                call = ins.kernel.call
                if call is not None:
                    env[f"U{ai}"] = call
                    args = ins.kernel.inline_args(
                        [f"P{ai}_{k}" for k in range(len(ins.vop))],
                        [f"S{ai}_{i}" for i in range(len(ins.vstatic))],
                    )
                    lines.append(f"    U{ai}({args}, V{slot})")
                    continue
                env[f"F{ai}"] = ins.fwd
                if ins.out_safe:
                    lines.append(f"    _v, a{ai} = F{ai}(P{ai}, S{ai}, V{slot})")
                else:
                    lines.append(f"    _v, a{ai} = F{ai}(P{ai}, S{ai}, None)")
                    lines.append(f"    _copyto(V{slot}, _v)")

        # The root's adjoint is its buffer, which holds the seed.
        present = {self._root} if self._carries[self._root] else set()
        if present:
            lines.append(f"    g{self._root} = G{self._root}")
        for ins in self._bwd:
            if ins.slot in present:
                for line in self._emit_backward(ins, present, in_place, env):
                    lines.append("    " + line)

        in_shape = repr(self.input_shape)
        root = "ROOT[i]" if self._batched[self._root] else "ROOT"
        grad = (
            f"g{self._input}[i].copy()" if self._input in present
            else f"_zeros({in_shape})"
        )
        lines += [
            "    results = {}",
            "    for i in lanes:",
            f"        value = float({root})",
            "        if i in dead or not _finite(value):",
            f"            results[i] = _rejection({in_shape})",
            "        else:",
            f"            results[i] = (value, {grad})",
            "    return results",
        ]
        self._source = "\n".join(lines)
        exec(compile(self._source, "<batched-tape>", "exec"), env)
        # The function's globals are ``env``: leave no name in it that
        # points back at the function, or the buffers outlive the tape
        # until a cycle collection.
        return env.pop("_program")

    def _emit_backward(self, ins: _Instr, present, in_place, env) -> list:
        """One carrying instruction's backward lines."""
        ai, slot, B = ins.ai, ins.slot, self.width
        g = f"g{slot}"

        def add(s, c):
            first = f"_copied(G{s}, {c})" if s in in_place else c
            return _accumulate(present, s, c, first, f"G{s}")

        if not ins.vector:
            # Per target already: unbroadcast, stacked over the lanes.
            return [f"c = _lbwd(I{ai}, lanes, dead)"] + [
                add(s, f"c[{t}]") for t, (_k, s, _shape) in enumerate(ins.targets)
            ]
        if ins.red_axis is not None:
            env[f"W{ai}"] = ins.red_view
            return [add(s, f"W{ai}") for _k, s, _shape in ins.targets]
        adjoints = ins.kernel.adjoints
        if adjoints is not None:
            names = {"g": g, "y": f"V{slot}", "a": f"a{ai}"}
            sizes = {"g": ins.buf.shape, "y": ins.buf.shape}
            for k, v in enumerate(ins.vop):
                names[f"x{k}"], sizes[f"x{k}"] = f"P{ai}_{k}", np.shape(v)
            for i, v in enumerate(ins.vstatic):
                names[f"s{i}"], sizes[f"s{i}"] = f"S{ai}_{i}", np.shape(v)
            return [
                add(s, _inline_adjoint(adjoints[k], names, sizes, (B,) + shape, 1))
                for k, s, shape in ins.targets
            ]
        if ins.name == "getitem" and ops.basic_key(ins.static[0]):
            # The scatter: no lane key selects an element twice, and its
            # leading slice makes the selection a view.
            (_k, s, shape), = ins.targets
            env[f"K{ai}"] = ins.vstatic[0]
            return [
                f"_z = _zeros({(B,) + shape!r})",
                f"_t = _z[K{ai}]",
                f"_iadd(_t, {g}, out=_t)",
                add(s, "_z"),
            ]
        # Undeclared: calibration's vector pair, normalising at run time.
        env[f"I{ai}"] = ins
        aux = "None" if ins.kernel.call is not None else f"a{ai}"
        return [f"c = _vbwd(I{ai}, {g}, {aux})"] + [
            add(s, f"c[{t}]") for t, (_k, s, _shape) in enumerate(ins.targets)
        ]

    def _validate(self, xs, lanes, results) -> None:
        """Cross-check the generated program's replay against the solo tape.

        A lane that disagrees is handed the solo reference instead, and
        every remaining vector instruction drops to lane mode — the engine
        keeps working, on a program emitted afresh, just without
        vectorization.
        """
        mismatch = False
        for i in lanes:
            ref = verify.or_rejection(
                self.tape.value_and_grad, np.asarray(xs[i])
            )
            if verify.agreement(results[i], ref) == verify.MISMATCH:
                mismatch = True
                results[i] = ref
        if mismatch:
            for ins in self._instr:
                self._demote(ins)
            self._program = None
        self._result_probation -= 1


class BatchedEvaluator:
    """Model-facing batched evaluator with acquisition and solo fallback.

    The solo compiled path records its tape lazily on first call and puts
    it through probation against interpretation
    (:class:`~repro.autodiff.compile.CompiledFunction`); this wrapper
    drives that by answering its first round(s) per lane through the
    model's solo evaluator and promotes to a :class:`BatchedTape` only
    once ``model.proven_tape()`` hands one over. When compilation is
    disabled, broken, or the model has no compiled seam, every lane
    permanently takes the per-lane solo call — still bit-identical to the
    solo executor, just unbatched.
    """

    def __init__(self, model, width: int) -> None:
        from repro.inference.chain import SoloEvaluator

        self.model = model
        self.width = int(width)
        self._solo = SoloEvaluator(model)
        self._engine: Optional[BatchedTape] = None
        self._solo_only = False
        self.stats = {"solo_calls": 0, "batched_rounds": 0, "lane_evals": 0}

    @property
    def stable(self) -> bool:
        """True once batched replay is calibrated (every probation served)."""
        return self._engine is not None and self._engine.stable

    @property
    def engine(self) -> Optional[BatchedTape]:
        return self._engine

    def counters(self) -> Dict[str, float]:
        """This evaluator's cumulative counts, keyed as the ops payload
        names them (:func:`repro.telemetry.instrument.group_counters`):
        how a run reports them to a registry."""
        return {
            "batch_rounds": self.stats["batched_rounds"],
            "batch_lane_evals": self.stats["lane_evals"],
            "batch_solo_calls": self.stats["solo_calls"],
            "batch_demoted_instructions": (
                self._engine.demotions if self._engine is not None else 0
            ),
            "batch_width": self.width,
        }

    def _try_acquire(self) -> None:
        if self._solo_only or self._engine is not None:
            return
        proven_tape = getattr(self.model, "proven_tape", None)
        if proven_tape is None:
            # No compiled seam at all: solo per lane, permanently.
            self._solo_only = True
            return
        try:
            tape = proven_tape()
        except TapeUnsupportedError:
            # Switched off, or this model's graph gave up compiling.
            self._solo_only = True
            return
        if tape is not None:
            self._engine = BatchedTape(tape, self.width)

    def evaluate(
        self, xs: Dict[int, np.ndarray]
    ) -> Dict[int, Tuple[float, np.ndarray]]:
        """Evaluate lane → position; returns lane → ``(logp, grad)``."""
        if not xs:
            return {}
        self._try_acquire()
        engine = self._engine
        if engine is not None and all(
            np.shape(x) == engine.input_shape for x in xs.values()
        ):
            results = engine.evaluate(xs)
            self.stats["batched_rounds"] += 1
            self.stats["lane_evals"] += len(xs)
            return results
        results = self._solo.evaluate(xs)
        self.stats["solo_calls"] += len(xs)
        return results
