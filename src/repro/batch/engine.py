"""The batch-axis replay engine over a compiled tape.

:class:`BatchedTape` takes one :class:`~repro.autodiff.compile.CompiledTape`
and a lane count ``B`` and replays the tape's instruction list once per
*batch* instead of once per chain: every slot whose value depends on the
input gets a ``(B,) + solo_shape`` buffer, and each instruction executes in
one of two modes:

* **vector** — one numpy call over the whole batch. Only ops whose kernels
  are elementwise (plus ``where``, ``reduce_sum`` and ``getitem``) qualify:
  their per-element arithmetic is independent of array extent, so lane
  ``i`` of the batched result is computed by the same scalar operations as
  the solo replay. Operands are aligned with a leading-axis pad
  (``(B,) + (1,)*(out_ndim - op_ndim) + op_shape``) so numpy broadcasting
  within a lane matches solo broadcasting exactly and lanes never mix.
  ``getitem`` is the solo kernel itself under a key with a leading
  all-lanes slice. (``take`` stays out: ``np.add.at`` under a
  ``(slice, indices)`` key misses ``ufunc.at``'s 1-D fast path and costs
  more than the lane loop — ``docs/batching.md`` has the numbers.)
* **lane** — a Python loop over the active lanes calling the solo kernel on
  row views. Used for everything shape-dependent (BLAS ``dot``/``matvec``/
  ``matmul``, ``logsumexp``, linear algebra, shaping ops), where different
  array extents may legitimately take different code paths inside numpy.
  Trivially bit-identical to solo replay — it *is* the solo replay.

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
``reduce_sum`` only reduces within a lane. A lane whose lane-mode kernel
raises ``LinAlgError`` mid-forward is dead for the call (skipped by every
later lane-mode instruction) and reports ``(-inf, 0)``, exactly like the
solo path's exception handling in ``Model.compiled_logp_and_grad``.

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

from repro.autodiff import verify
from repro.autodiff.compile import TapeUnsupportedError
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
})


def _shift_axis(axis):
    """A solo reduction axis, moved past the leading batch axis."""
    if axis is None:
        return None
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
        "name", "fwd", "bwd", "slots", "static", "slot", "ai",
        "vector", "targets",
        "vop", "vstatic", "buf", "out_safe",
        "red_axis", "red_flat", "red_view",
        "lrows", "orow", "grow", "aux_rows", "scratch", "srows",
    )


# -- one instruction, either way ----------------------------------------------
# The lane pair is the whole of lane mode, for the calibration sweep and the
# generated program alike; the vector pair is what calibration compares with
# it (the program has the same calls inlined).


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
    """Per-target batched contributions of one vector instruction, whose
    adjoint ``g`` is the slot's ``G`` buffer."""
    if ins.red_axis is not None:
        contribs = (ins.red_view,)
    else:
        contribs = ins.bwd(g, ins.vop, ins.buf, aux, ins.vstatic)
    B = ins.buf.shape[0]
    out = []
    for k, _s, shape in ins.targets:
        c = contribs[k]
        if c is not None:
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
    rows of the slot's adjoint buffer.

    Rows of dead lanes are left unwritten (garbage); callers never
    read them. Returns a list parallel to ``ins.targets`` where an
    entry is None when the kernel contributed nothing (structural,
    identical across lanes).
    """
    bwd = ins.bwd
    static = ins.static
    lrows = ins.lrows
    orow = ins.orow
    grow = ins.grow
    aux_rows = ins.aux_rows
    used = [False] * len(ins.targets)
    for i in lanes:
        if i in dead:
            continue
        contribs = bwd(grow[i], lrows[i], orow[i], aux_rows[i], static)
        for t, (k, _s, shape) in enumerate(ins.targets):
            c = contribs[k]
            if c is None:
                continue
            if type(c) is not np.ndarray:
                c = np.asarray(c, dtype=float)
            if c.shape != shape:
                c = _unbroadcast(c, shape)
            np.copyto(ins.srows[t][i], c)
            used[t] = True
    return [
        ins.scratch[t] if used[t] else None
        for t in range(len(ins.targets))
    ]


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
            # as in solo replay). 'getitem' indexes its operand as it is.
            vop = []
            for s in ins.slots:
                if not batched[s]:
                    vop.append(shared[s])
                    continue
                arr = self._bufs[s]
                pad = max(0, out_nd - (arr.ndim - 1))
                if pad and ins.name != "getitem":
                    arr = arr.reshape(arr.shape[:1] + (1,) * pad + arr.shape[1:])
                vop.append(arr)
            ins.vop = vop
            # The solo kernel's own static arguments, except where one
            # names an axis position: 'getitem' over the whole batch is the
            # solo kernel (forward and backward) under a key with a leading
            # all-lanes slice.
            ins.vstatic = (
                (_lane_key(ins.static[0]),) if ins.name == "getitem"
                else ins.static
            )
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
                    ins.red_axis = _shift_axis(axis)
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
                    (v is None) == (c is None)
                    and (v is None or _lanes_agree(v, c, lanes, dead))
                    for v, c in zip(vec_contribs, contribs)
                ):
                    self._demote(ins)
            for c, (_k, s, _shape) in zip(contribs, ins.targets):
                if c is None:
                    continue
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
        and static shapes bound as names. A vector instruction is one
        inlined kernel call; a lane-mode one is one call of the lane pair.

        A slot's first adjoint contribution is kept by reference (later
        ones sum into ``G``), except where the slot's own instruction reads
        the adjoint through prebuilt views of ``G`` — lane-mode rows, a
        ``reduce_sum``'s broadcast view: there it is copied into ``G``.
        """
        B = self.width
        env = {
            "_nd": np.ndarray, "_as": np.asarray, "_iadd": np.add,
            "_reduce": np.add.reduce, "_copyto": np.copyto,
            "_zeros": np.zeros, "_finite": math.isfinite,
            "_unbl": _unbroadcast_lanes, "_copied": _copied,
            "_lfwd": _lane_forward, "_lbwd": _lane_backward,
            "_rejection": verify.rejection,
            "X": self._in_buf, "ROOT": self._root_vals,
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
                env[f"F{ai}"] = ins.fwd
                env[f"P{ai}"] = ins.vop
                env[f"S{ai}"] = ins.vstatic
                if ins.out_safe:
                    lines.append(f"    _v, a{ai} = F{ai}(P{ai}, S{ai}, V{slot})")
                else:
                    lines.append(f"    _v, a{ai} = F{ai}(P{ai}, S{ai}, None)")
                    lines.append(f"    _copyto(V{slot}, _v)")

        def accumulate(s: int, c: str) -> str:
            first = f"_copied(G{s}, {c})" if s in in_place else c
            return (
                f"g{s} = {first} if g{s} is None "
                f"else _iadd(g{s}, {c}, out=G{s})"
            )

        grad_names = {self._input}
        body = []
        for ins in self._bwd:
            ai, slot = ins.ai, ins.slot
            grad_names.add(slot)
            grad_names.update(s for _k, s, _shape in ins.targets)
            body.append(f"    if g{slot} is not None:")
            if ins.vector and ins.red_axis is not None:
                env[f"W{ai}"] = ins.red_view
                for _k, s, _shape in ins.targets:
                    body.append("        " + accumulate(s, f"W{ai}"))
                continue
            if ins.vector:
                env[f"B{ai}"] = ins.bwd
                body.append(
                    f"        c = B{ai}(g{slot}, P{ai}, V{slot}, a{ai}, S{ai})"
                )
            else:
                # Per target already: unbroadcast, stacked over the lanes.
                body.append(f"        c = _lbwd(I{ai}, lanes, dead)")
            for t, (k, s, shape) in enumerate(ins.targets):
                body.append(f"        _c = c[{k if ins.vector else t}]")
                body.append("        if _c is not None:")
                if ins.vector:
                    body.append(
                        "            if type(_c) is not _nd: "
                        "_c = _as(_c, float)"
                    )
                    body.append(
                        f"            if _c.shape != {(B,) + shape!r}: "
                        f"_c = _unbl(_c, {shape!r})"
                    )
                body.append("            " + accumulate(s, "_c"))
        # Every adjoint starts absent but the root's, whose buffer holds
        # the seed. (A root that does not reach the input names no adjoint.)
        lines.extend(
            f"    g{s} = {f'G{s}' if s == self._root else 'None'}"
            for s in sorted(grad_names)
        )
        lines.extend(body)

        in_shape = repr(self.input_shape)
        root = "ROOT[i]" if self._batched[self._root] else "ROOT"
        lines += [
            f"    g = g{self._input}",
            "    results = {}",
            "    for i in lanes:",
            f"        value = float({root})",
            "        if i in dead or not _finite(value):",
            f"            results[i] = _rejection({in_shape})",
            "        else:",
            "            results[i] = (value, g[i].copy() if g is not None "
            f"else _zeros({in_shape}))",
            "    return results",
        ]
        self._source = "\n".join(lines)
        exec(compile(self._source, "<batched-tape>", "exec"), env)
        # The function's globals are ``env``: leave no name in it that
        # points back at the function, or the buffers outlive the tape
        # until a cycle collection.
        return env.pop("_program")

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

    def __init__(self, model, width: int, registry=None,
                 labels: Optional[Dict[str, str]] = None) -> None:
        from repro.inference.chain import model_logp_and_grad

        self.model = model
        self.width = int(width)
        self._solo = model_logp_and_grad(model)
        self._engine: Optional[BatchedTape] = None
        self._solo_only = False
        self.stats = {"solo_calls": 0, "batched_rounds": 0, "lane_evals": 0}
        self._counters = None
        if registry is not None:
            from repro.telemetry import instrument as ins

            labels = labels or {}
            self._counters = {
                "solo": registry.counter(ins.BATCH_SOLO_CALLS, labels),
                "rounds": registry.counter(ins.BATCH_ROUNDS, labels),
                "lane_evals": registry.counter(ins.BATCH_LANE_EVALS, labels),
                "demotions": registry.counter(ins.BATCH_DEMOTIONS, labels),
            }
        self._demotions_seen = 0

    @property
    def stable(self) -> bool:
        """True once batched replay is calibrated (every probation served)."""
        return self._engine is not None and self._engine.stable

    @property
    def engine(self) -> Optional[BatchedTape]:
        return self._engine

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
            if self._counters is not None:
                self._counters["rounds"].inc()
                self._counters["lane_evals"].inc(len(xs))
                new = engine.demotions - self._demotions_seen
                if new:
                    self._counters["demotions"].inc(new)
                    self._demotions_seen = engine.demotions
            return results
        results = {i: self._solo(x) for i, x in xs.items()}
        self.stats["solo_calls"] += len(xs)
        if self._counters is not None:
            self._counters["solo"].inc(len(xs))
        return results
