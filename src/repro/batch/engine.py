"""The batch-axis replay engine over a compiled tape.

:class:`BatchedTape` takes one :class:`~repro.autodiff.compile.CompiledTape`
and a lane count ``B`` and replays the tape once per *batch* instead of once
per chain. Every slot whose value depends on the input (a slot the tape's
fold left without a value; the others are read as folded) gets a ``(B,) +
solo_shape`` buffer, and each instruction runs in one of two modes:

* **vector** — one numpy call over the whole batch, for the ops in
  :data:`VECTOR_OPS`: elementwise kernels (plus ``where``, ``reduce_sum``,
  ``getitem``, ``logsumexp`` and ``stack``), whose per-element arithmetic
  does not depend on array extent, so lane ``i`` gets the scalar operations
  of the solo replay. Operands are padded on the lane axis (``(B,) +
  (1,)*(out_ndim - op_ndim) + op_shape``), so broadcasting within a lane is
  solo broadcasting and lanes never mix; ``getitem``, ``logsumexp`` and
  ``stack`` are the solo kernels with their key or axis moved past the
  lanes. ``dot`` and ``matvec`` are vector candidates too, as one
  ``np.matmul`` over the lane axis
  (:data:`repro.autodiff.ops.LANE_PRODUCTS`), and so is every *gather*, a
  ``take`` or ``getitem`` keyed by one 1-D integer array: one ``np.take``
  along the lane rows forward, and backward one ``np.bincount`` over
  lane-offset indices, which adds each lane's contributions in the order
  the solo ``np.add.at`` does (:func:`_gather`).
* **lane** — the solo kernel on each active lane's row views, for the rest
  of what is shape-dependent (linear algebra, ``concat``, ``reshape``): it
  *is* the solo replay.

Buffers never move, so every operand view and row view is built once. Once
probation has settled which instructions are vector, the replay is
generated by the tape's own program generator given a lane axis
(:class:`_LaneEmitter`): the solo schedule, its SPD groups one stacked
factor over the live lanes, the solo forward block and backward sweep with
lane-axis names, so the per-call work is kernel calls and nothing else.
The instruction-by-instruction interpreter only calibrates. A value tape
(``gradient=False``, for MH and slice) is the forward block alone, as the
solo ``CompiledTape.value`` is.

Probation (:mod:`repro.autodiff.verify`; ``docs/performance.md``, "How a
fast path earns trust"): while the vector instructions serve theirs, every
candidate is computed both ways, forward values and (unless the tape is a
value tape) backward contributions, and one that differs anywhere from
lane mode drops to lane mode for good; then each lane of the generated
program's answers is cross-checked against ``CompiledTape.value_and_grad``
(``CompiledTape.value`` for a value tape), and a disagreement drops the
whole tape to lane mode (and the program is generated again). Only after
both is the engine ``stable``.

Masking: lanes are admitted per call (``evaluate`` takes a lane→position
mapping); inactive lanes keep stale rows that vector ops compute over and
discard, and nothing reduces across lanes. A lane whose lane-mode kernel
(or SPD factor) raises ``LinAlgError`` is dead for the call, skipped by
every later lane-mode step, and reports ``(-inf, 0)``, like the solo path
in ``Model.compiled_logp_and_grad`` (a value tape: ``-inf``, like
``Model.logp``). A tape that went through the sufficient-statistics
rewrite (:mod:`repro.autodiff.suffstats`) batches like any other; the
parameter-sized ``dot``/``matvec`` contractions it introduces are stacked
products.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autodiff import ops, verify
from repro.autodiff.compile import TapeUnsupportedError, _Emitter, _rhs
from repro.autodiff.tape import _unbroadcast

__all__ = ["BatchedTape", "BatchedEvaluator", "VECTOR_OPS"]

#: Ops whose kernels are elementwise maps (or lane-local selections): the
#: batched call runs the same per-element arithmetic as B solo calls.
#: Everything absent from this set and from ``ops.LANE_PRODUCTS`` always
#: runs in lane mode.
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


def _unbroadcast_lanes(grad, shape: Tuple[int, ...]) -> np.ndarray:
    """Per-lane :func:`repro.autodiff.tape._unbroadcast`: the lane axis kept."""
    return _unbroadcast(grad, shape, 1)


def _lanes_agree(got, ref, lanes, dead) -> bool:
    """Every live lane's row of ``got`` is bit for bit its row of ``ref``."""
    return all(
        verify.agreement(got[i], ref[i]) == verify.EXACT
        for i in lanes if i not in dead
    )


def _gather(key, src: np.ndarray):
    """A gather over the lanes of ``src``, a ``(B, n)`` buffer, for a solo
    ``take``/``getitem`` key: ``(src, index, flat)``, the index made
    non-negative and ``flat`` the lane-offset position in ``src`` of every
    element of the gathered ``(B, m)`` value, in C order. ``None`` unless
    the key is one 1-D integer array.

    Forward is ``np.take(src, index, axis=1, mode="wrap")``; backward,
    ``np.bincount(flat, weights=g.reshape(-1))``: per element of ``src``
    ``0.0`` plus each contribution in index order, the additions of the
    solo ``np.add.at`` lane by lane. Lanes never share a position. (Over
    rows of a 2-D source ``np.add.at`` adds whole rows, and where two NaNs
    meet the sign it keeps is not always ``np.bincount``'s.)
    """
    if isinstance(key, tuple) and len(key) == 1:
        key = key[0]
    if not (isinstance(key, np.ndarray) and key.ndim == 1 and src.ndim == 2
            and np.issubdtype(key.dtype, np.integer)):
        return None
    B, n = src.shape
    index = key.astype(np.intp) % n
    flat = (np.arange(B)[:, None] * n + index).reshape(-1)
    return src, index, flat


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
        "red_axis", "red_flat", "red_view", "product", "lane_adjoint", "gather",
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
    if ins.product is not None:
        a, b, out = ins.product
        np.matmul(a, b, out=out)
        return None
    if ins.gather is not None:
        src, index, _flat = ins.gather
        np.take(src, index, axis=1, out=ins.buf, mode="wrap")
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
    elif ins.product is not None:
        return [ins.lane_adjoint(g, ins.vop, k) for k, _s, _shape in ins.targets]
    elif ins.gather is not None:
        src, _index, flat = ins.gather
        scattered = np.bincount(flat, weights=g.reshape(-1), minlength=src.size)
        return [scattered.reshape(src.shape) for _target in ins.targets]
    else:
        contribs = ins.bwd(g, ins.vop, ins.buf, aux, ins.vstatic)
    return [_unbroadcast_lanes(contribs[k], shape) for k, _s, shape in ins.targets]


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


def _stacked(operand, live):
    """An SPD operand, ``(array, batched)``, for the ``live`` lanes, lane
    axis first."""
    array, batched = operand
    if not batched:
        return np.broadcast_to(array, (len(live),) + array.shape)
    return array[live]


def _row(operand, i):
    """An SPD operand, ``(array, batched)``, as lane ``i`` reads it."""
    array, batched = operand
    return array[i] if batched else array


def _lane_group(group, lanes, dead) -> None:
    """An SPD group's members for every live lane from one stacked factor
    (:func:`repro.autodiff.ops.spd_lanes_forward`). ``group`` is the
    members, their kernel names, the matrix and each member's right-hand
    side as ``(array, batched)`` (``None`` for a log-det). When the stacked
    factor raises ``LinAlgError`` some lane is not positive definite, and
    the group runs lane by lane (:func:`repro.autodiff.ops.spd_group_forward`):
    a lane whose own factor raises joins ``dead``."""
    members, names, matrix, rhs = group
    live = [i for i in lanes if i not in dead]
    if not live:
        return
    try:
        answers = ops.spd_lanes_forward(
            _stacked(matrix, live), names,
            [None if y is None else _stacked(y, live) for y in rhs],
        )
    except np.linalg.LinAlgError:
        for i in live:
            try:
                lane = ops.spd_group_forward(
                    _row(matrix, i), names,
                    [None if y is None else _row(y, i) for y in rhs],
                )
            except np.linalg.LinAlgError:
                dead.add(i)
                continue
            for ins, (value, aux) in zip(members, lane):
                np.copyto(ins.orow[i], value)
                ins.aux_rows[i] = aux
        return
    for ins, (value, aux) in zip(members, answers):
        ins.buf[live] = value
        for j, i in enumerate(live):
            ins.aux_rows[i] = aux[j]


class BatchedTape:
    """Replay ``B`` lanes of one compiled tape as batched numpy calls:
    value and gradient, or with ``gradient=False`` the value alone (the
    forward block only, as the solo ``CompiledTape.value``)."""

    def __init__(self, tape, width: int, gradient: bool = True) -> None:
        if width < 1:
            raise ValueError("a batched tape needs at least one lane")
        self.tape = tape
        self.width = B = int(width)
        self.gradient = gradient
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
        # A value program keeps no adjoints.
        adjoint = [c and gradient for c in carries]
        n = len(shapes)

        # A slot is batched when its value can differ across lanes: where
        # the tape's fold left no value. The others are shared, read as
        # the tape folded them.
        shared = tape.folded
        batched = self._batched = [value is None for value in shared]

        # Fixed buffers: forward values and adjoints, one row per lane.
        self._bufs: Dict[int, np.ndarray] = {
            s: np.empty((B,) + shapes[s]) for s in range(n) if batched[s]
        }
        self._gbufs: Dict[int, np.ndarray] = {
            s: np.empty((B,) + shapes[s]) for s in range(n) if adjoint[s]
        }

        self._instr: List[_Instr] = []
        for ai, rec in enumerate(tape.instructions):
            if not batched[rec.out]:
                continue
            kernel = rec.kernel
            ins = _Instr()
            ins.name = rec.op
            ins.kernel = kernel
            ins.fwd = kernel.forward
            ins.bwd = kernel.backward
            ins.slots = slots = rec.inputs
            ins.static = rec.static
            ins.slot = slot = rec.out
            ins.ai = ai
            ins.vector = rec.op in VECTOR_OPS or rec.op in ops.LANE_PRODUCTS
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

        # Backward order: the carrying suffix of the reversed instruction
        # list, mirroring the emitted solo code.
        self._bwd = [ins for ins in reversed(self._instr) if adjoint[ins.slot]]

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
                if adjoint[ins.slot]:
                    ins.red_view = np.broadcast_to(
                        self._gbufs[ins.slot].reshape(expanded), src.shape
                    )
            # 'dot' and 'matvec': the views of one stacked matmul.
            ins.product = ins.lane_adjoint = None
            if ins.name in ops.LANE_PRODUCTS:
                views, ins.lane_adjoint = ops.LANE_PRODUCTS[ins.name]
                ins.product = views(*ins.vop, ins.buf)
            ins.gather = None
            if ins.name in ("take", "getitem"):
                ins.gather = _gather(ins.static[0], self._bufs[ins.slots[0]])
                ins.vector = ins.vector or ins.gather is not None
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
                if adjoint[ins.slot] else None
            )
            ins.aux_rows = [None] * B
            # Per-target stacked-contribution scratch for lane-mode
            # backward (and its row views).
            ins.scratch = [
                np.empty((B,) + shape) for _k, _s, shape in ins.targets
            ] if adjoint[ins.slot] else []
            ins.srows = [_lane_rows(arr) for arr in ins.scratch]

        self._root = tape.root_slot
        self._input = tape.input_slot
        self._root_vals = (
            self._bufs[self._root] if batched[self._root]
            else shared[self._root]
        )
        self._in_buf = self._bufs[self._input]
        if adjoint[self._root]:
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
        reports ``(-inf, zeros)``. A value tape returns lane index →
        ``logp``, as ``Model.logp`` does: ``-inf`` for such a lane.
        """
        lanes = sorted(xs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self._instr_probation > 0:
                return self._calibrate(xs, lanes)
            if self._program is None:
                self._source, self._program = _LaneEmitter(self).emit()
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

        root_vals = self._root_vals
        root_batched = self._batched[self._root]
        self._instr_probation -= 1
        if not self.gradient:
            results = {}
            for i in lanes:
                value = float(root_vals[i]) if root_batched else float(root_vals)
                finite = i not in dead and np.isfinite(value)
                results[i] = value if finite else float("-inf")
            return results

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
        return results

    def _validate(self, xs, lanes, results) -> None:
        """Cross-check the generated program's replay against the solo
        tape's, ``value_and_grad`` or ``value``, bit for bit.

        A lane that disagrees is handed the solo reference instead, and
        every remaining vector instruction drops to lane mode — the engine
        keeps working, on a program emitted afresh, just without
        vectorization.
        """
        mismatch = False
        for i in lanes:
            x = np.asarray(xs[i])
            ref = (
                verify.or_rejection(self.tape.value_and_grad, x)
                if self.gradient
                else verify.value_or_rejection(self.tape.value, x)
            )
            if verify.agreement(results[i], ref) == verify.MISMATCH:
                mismatch = True
                results[i] = ref
        if mismatch:
            for ins in self._instr:
                self._demote(ins)
            self._program = None
        self._result_probation -= 1


class _LaneEmitter(_Emitter):
    """The tape's program generator over a lane axis: ``_program(xs,
    lanes)``, what :meth:`BatchedTape._calibrate` interprets, with operand
    views ``P``, value buffers ``V`` and adjoint buffers ``G`` bound as
    names. Lane-mode instructions and SPD groups are one call each over the
    live lanes, ``_lfwd(I7, lanes, dead)``, ``_spd(J7, lanes, dead)``;
    ``reduce_sum`` runs through prebuilt views, ``getitem`` under a basic
    key scatters into a view and a gather (:func:`_gather`) is one
    ``np.take`` forward and one ``np.bincount`` backward. A slot's first
    adjoint contribution is kept by reference, except where its own
    instruction reads the adjoint through views of ``G`` (lane rows, a
    ``reduce_sum``'s broadcast view): there it is copied in.
    """

    VALUE = "V{s}"
    ASSIGN, RESULT = "", "_v"
    SETTLE = "    _copyto(V{s}, _v)"
    STATIC = "S{ai}_{i}"

    def __init__(self, engine: BatchedTape) -> None:
        super().__init__(engine.tape)
        self.axis = (engine.width,)
        self.gradient = engine.gradient
        self.batched = engine._batched
        self.instr = {ins.ai: ins for ins in engine._instr}
        self.in_place = set()  # slots whose adjoint is read through views of G
        self.env.update(
            _reduce=np.add.reduce, _matmul=np.matmul, _copyto=np.copyto,
            _take=np.take, _bincount=np.bincount,
            _finite=math.isfinite,
            _copied=_copied, _vbwd=_vector_backward, _lfwd=_lane_forward,
            _lbwd=_lane_backward, _spd=_lane_group,
            _rejection=verify.rejection, _NINF=-math.inf, X=engine._in_buf,
            ROOT=engine._root_vals,
        )
        self.env.update((f"V{s}", buf) for s, buf in engine._bufs.items())
        self.env.update((f"G{s}", buf) for s, buf in engine._gbufs.items())

    def emit(self) -> Tuple[str, Callable]:
        tape = self.tape
        x, root = tape.input_slot, tape.root_slot
        lines = [
            "def _program(xs, lanes):",
            "    for i in lanes: X[i] = xs[i]",
            "    dead = set()",
            *self.forward(),
        ]
        value = "ROOT[i]" if tape.folded[root] is None else "ROOT"
        if not self.gradient:
            return self.run(lines + [
                "    results = {}",
                "    for i in lanes:",
                f"        value = float({value})",
                "        results[i] = value if i not in dead and _finite(value) else _NINF",
                "    return results",
            ], "<batched-tape>", "_program")
        if tape.carries[root]:
            # The root's adjoint is its buffer, which holds the seed.
            self.present = {root}
            lines.append(f"    g{root} = G{root}")
        lines += self.backward()
        in_shape = repr(tape.input_shape)
        grad = f"g{x}[i].copy()" if x in self.present else f"_zeros({in_shape})"
        return self.run(lines + [
            "    results = {}",
            "    for i in lanes:",
            f"        value = float({value})",
            "        if i in dead or not _finite(value):",
            f"            results[i] = _rejection({in_shape})",
            "        else:",
            f"            results[i] = (value, {grad})",
            "    return results",
        ], "<batched-tape>", "_program")

    def instruction(self, ai: int) -> List[str]:
        ins = self.instr[ai]
        if not ins.vector:
            self.env[f"I{ai}"] = ins
            self.in_place.add(ins.slot)
            return [f"    _lfwd(I{ai}, lanes, dead)"]
        if ins.red_axis is not None:
            self.env[f"R{ai}"] = ins.red_flat
            self.in_place.add(ins.slot)
            return [f"    _reduce(R{ai}, axis={ins.red_axis!r}, out=V{ins.slot})"]
        if ins.product is not None:
            self.env.update((f"M{ai}_{k}", v) for k, v in enumerate(ins.product))
            return [f"    _matmul(M{ai}_0, M{ai}_1, out=M{ai}_2)"]
        if ins.gather is not None:
            self.env[f"Q{ai}"], self.env[f"K{ai}"], _flat = ins.gather
            return [f"    _take(Q{ai}, K{ai}, axis=1, out=V{ins.slot}, mode='wrap')"]
        return super().instruction(ai)

    def operands(self, ai: int) -> tuple:
        ins = self.instr[ai]
        self.env[f"P{ai}"], self.env[f"S{ai}"] = ins.vop, ins.vstatic
        self.env.update((f"P{ai}_{k}", v) for k, v in enumerate(ins.vop))
        self.env.update((f"S{ai}_{i}", v) for i, v in enumerate(ins.vstatic))
        values = [f"P{ai}_{k}" for k in range(len(ins.vop))]
        return values, [np.shape(v) for v in ins.vop], ins.vstatic, f"P{ai}"

    def out(self, ai: int) -> str:
        ins = self.instr[ai]
        return f"V{ins.slot}" if ins.out_safe else "None"

    def group(self, step: Tuple[int, ...]) -> List[str]:
        members = [self.instr[ai] for ai in step]
        self.env.update((f"I{ai}", ins) for ai, ins in zip(step, members))
        self.in_place.update(ins.slot for ins in members)

        # Each operand unpadded (no SPD operand has a lower rank than its
        # output), with whether it has the lane axis; a static right-hand
        # side has not.
        operands = [
            [(ins.vop[k], self.batched[s]) for k, s in enumerate(ins.slots)]
            for ins in members
        ]
        self.env[f"J{step[0]}"] = (
            members,
            tuple(ins.name for ins in members),
            operands[0][0],
            [
                _rhs(ins.name, values, [(v, False) for v in ins.static])
                for ins, values in zip(members, operands)
            ],
        )
        return [f"    _spd(J{step[0]}, lanes, dead)"]

    def adjoints(self, ai: int) -> Optional[Tuple[str, ...]]:
        ins = self.instr[ai]
        return ins.kernel.adjoints if ins.vector and ins.product is None else None

    def kernel_backward(self, ai: int, targets: list) -> List[str]:
        ins = self.instr[ai]
        if ins.vector and ins.red_axis is not None:
            self.env[f"W{ai}"] = ins.red_view
            return ["    " + self.add(s, f"W{ai}") for _k, s in targets]
        if ins.vector and ins.gather is not None:
            (_k, s), = targets
            src, _index, self.env[f"Z{ai}"] = ins.gather
            return ["    " + self.add(s, (
                f"_bincount(Z{ai}, weights=g{ins.slot}.reshape(-1), "
                f"minlength={src.size}).reshape({src.shape!r})"
            ))]
        if ins.vector and ins.name == "getitem" and ops.basic_key(ins.static[0]):
            # No lane key selects an element twice, and its leading slice
            # makes the selection a view.
            (_k, s), = targets
            self.env[f"K{ai}"] = ins.vstatic[0]
            return [
                f"    _z = _zeros({self.axis + self.tape.shapes[s]!r})",
                f"    _t = _z[K{ai}]",
                f"    _iadd(_t, g{ins.slot}, out=_t)",
                "    " + self.add(s, "_z"),
            ]
        # Lane mode, per target and unbroadcast already; else calibration's
        # vector pair, normalising at run time.
        self.env[f"I{ai}"] = ins
        aux = (
            "None" if ins.kernel.call is not None or ins.product is not None
            else f"a{ai}"
        )
        call = (
            f"_vbwd(I{ai}, g{ins.slot}, {aux})" if ins.vector
            else f"_lbwd(I{ai}, lanes, dead)"
        )
        return [f"    c = {call}"] + [
            "    " + self.add(s, f"c[{t}]") for t, (_k, s) in enumerate(targets)
        ]

    def first(self, s: int, c: str) -> str:
        return f"_copied(G{s}, {c})" if s in self.in_place else c

    def buffer(self, s: int) -> str:
        return f"G{s}"


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
    solo executor, just unbatched. ``gradient`` is the engine's, as for
    :class:`~repro.inference.chain.SoloEvaluator`: with it off, a lane is
    answered ``logp`` alone, as ``model.logp`` answers it, by the tape's
    value program over the lanes.
    """

    def __init__(self, model, width: int, gradient: bool = True) -> None:
        from repro.inference.chain import SoloEvaluator

        self.model = model
        self.width = int(width)
        self.gradient = gradient
        self._solo = SoloEvaluator(model, gradient=gradient)
        self._engine: Optional[BatchedTape] = None
        self._solo_only = False
        #: ``prefetch_rows``: rows of chains' blocks evaluated beyond each
        #: block's first; ``prefetch_used``: those a chain went on to use
        #: (:class:`~repro.batch.driver.BatchedChainDriver` counts both).
        self.stats = {
            "solo_calls": 0, "batched_rounds": 0, "lane_evals": 0,
            "prefetch_rows": 0, "prefetch_used": 0,
        }

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
            "batch_prefetch_rows": self.stats["prefetch_rows"],
            "batch_prefetch_used": self.stats["prefetch_used"],
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
            self._engine = BatchedTape(tape, self.width, self.gradient)

    def evaluate(
        self, xs: Dict[int, np.ndarray]
    ) -> Dict[int, Tuple[float, np.ndarray]]:
        """Evaluate lane → position; returns lane → ``(logp, grad)``, or
        lane → ``logp`` without ``gradient``."""
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
