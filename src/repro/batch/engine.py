"""The batch-axis replay engine over a compiled tape.

:class:`BatchedTape` takes one :class:`~repro.autodiff.compile.CompiledTape`
and a lane count ``B`` and replays the tape's instruction list once per
*batch* instead of once per chain: every slot whose value depends on the
input gets a ``(B,) + solo_shape`` buffer, and each instruction executes in
one of two modes:

* **vector** — one numpy call over the whole batch. Only ops whose kernels
  are elementwise (plus ``where`` and ``reduce_sum``) qualify: their
  per-element arithmetic is independent of array extent, so lane ``i`` of
  the batched result is computed by the same scalar operations as the solo
  replay. Operands are aligned with a leading-axis pad
  (``(B,) + (1,)*(out_ndim - op_ndim) + op_shape``) so numpy broadcasting
  within a lane matches solo broadcasting exactly and lanes never mix.
* **lane** — a Python loop over the active lanes calling the solo kernel on
  row views. Used for everything shape-dependent (BLAS ``dot``/``matvec``/
  ``matmul``, ``logsumexp``, linear algebra, shaping ops), where different
  array extents may legitimately take different code paths inside numpy.
  Trivially bit-identical to solo replay — it *is* the solo replay.

Because every batched slot is backed by a fixed preallocated buffer, all
padded operand views and per-lane row views are constructed once at build
time; the per-call work is kernel calls and nothing else.

Whether a vector-eligible op really is bit-identical on this platform and
this data is not assumed but put on probation
(:mod:`repro.autodiff.verify`; ``docs/performance.md``, "How a fast path
earns trust"): while the vector instructions serve theirs, every candidate
is computed both ways — forward values and backward contributions — and
one that differs anywhere from lane mode drops to lane mode for good; the
calls after that cross-check each lane's final ``(value, gradient)``
against ``CompiledTape.value_and_grad``, and a disagreement drops the
whole tape to lane mode. Only after both is the engine ``stable``.

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
    "arctan", "clip_min", "where", "reduce_sum",
})


def _shift_axis(axis):
    """A solo reduction axis, moved past the leading batch axis."""
    if axis is None:
        return None
    if isinstance(axis, tuple):
        return tuple(a + 1 if a >= 0 else a for a in axis)
    return axis + 1 if axis >= 0 else axis


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


class _Instr:
    """One batched forward/backward instruction with prebuilt views."""

    __slots__ = (
        "name", "fwd", "bwd", "slots", "static", "slot", "ai",
        "vector", "out_shape", "targets",
        "vop", "buf", "out_safe", "red_axis", "red_flat",
        "lrows", "orow", "grow", "scratch", "srows",
    )


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
            ins.out_shape = shapes[slot]
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
            out_nd = len(ins.out_shape)
            # Vector operands: padded batched views (lane i broadcasts
            # against lane i only) or the shared array (trailing-aligned,
            # as in solo replay).
            vop = []
            for s in ins.slots:
                if not batched[s]:
                    vop.append(shared[s])
                    continue
                arr = self._bufs[s]
                pad = max(0, out_nd - (arr.ndim - 1))
                if pad:
                    arr = arr.reshape(arr.shape[:1] + (1,) * pad + arr.shape[1:])
                vop.append(arr)
            ins.vop = vop
            ins.red_axis = None
            ins.red_flat = None
            if ins.name == "reduce_sum":
                axis = ins.static[0]
                if axis is None:
                    ins.red_flat = self._bufs[ins.slots[0]].reshape(B, -1)
                    ins.red_axis = 1
                else:
                    ins.red_flat = self._bufs[ins.slots[0]]
                    ins.red_axis = _shift_axis(axis)
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
            # Per-target stacked-contribution scratch for lane-mode
            # backward (and its row views).
            ins.scratch = [
                np.empty((B,) + shape) for _k, _s, shape in ins.targets
            ]
            ins.srows = [_lane_rows(arr) for arr in ins.scratch]

        self._aux: List[object] = [None] * len(tape.instructions)
        self._root = tape.root_slot
        self._input = tape.input_slot
        self._root_vals = (
            self._bufs[self._root] if batched[self._root]
            else shared[self._root]
        )
        self._in_buf = self._bufs[self._input]

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

    # -- forward/backward pieces ----------------------------------------------

    def _vector_forward(self, ins: _Instr):
        """One batched forward call; returns (value_buffer, aux)."""
        if ins.red_axis is not None:
            return np.sum(ins.red_flat, axis=ins.red_axis, out=ins.buf), None
        if ins.out_safe:
            value, aux = ins.fwd(ins.vop, ins.static, ins.buf)
            return value, aux
        # 'where': no out= support; copy into the fixed buffer so every
        # consumer's prebuilt views stay valid. The copy is bit-preserving.
        value, aux = ins.fwd(ins.vop, ins.static, None)
        np.copyto(ins.buf, value)
        return ins.buf, aux

    def _lane_forward(self, ins: _Instr, lanes, dead, aux_rows) -> None:
        fwd = ins.fwd
        static = ins.static
        lrows = ins.lrows
        orow = ins.orow
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

    def _vector_backward(self, ins: _Instr, g, aux):
        """Per-target batched contributions of one vector instruction."""
        if ins.red_axis is not None:
            arr = ins.red_flat if ins.static[0] is not None else (
                self._bufs[ins.slots[0]]
            )
            if ins.static[0] is None:
                expanded = g.reshape((self.width,) + (1,) * (arr.ndim - 1))
            else:
                expanded = np.expand_dims(g, ins.red_axis)
            contribs = (np.broadcast_to(expanded, arr.shape),)
        else:
            contribs = ins.bwd(g, ins.vop, ins.buf, aux, ins.static)
        out = []
        for k, _s, shape in ins.targets:
            c = contribs[k]
            if c is None:
                out.append(None)
                continue
            if type(c) is not np.ndarray:
                c = np.asarray(c, dtype=float)
            if c.shape != (self.width,) + shape:
                c = _unbroadcast_lanes(c, shape)
            out.append(c)
        return out

    def _lane_backward(self, ins: _Instr, g_rows, aux_rows, lanes, dead):
        """Per-target stacked contributions, computed lane by lane.

        Rows of dead lanes are left unwritten (garbage); callers never
        read them. Returns a list parallel to ``ins.targets`` where an
        entry is None when the kernel contributed nothing (structural,
        identical across lanes).
        """
        bwd = ins.bwd
        static = ins.static
        lrows = ins.lrows
        orow = ins.orow
        used = [False] * len(ins.targets)
        for i in lanes:
            if i in dead:
                continue
            contribs = bwd(
                g_rows[i], lrows[i], orow[i],
                aux_rows[i] if aux_rows is not None else None, static,
            )
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._evaluate(xs)

    def _evaluate(self, xs):
        lanes = sorted(xs)
        calibrating = self._instr_probation > 0
        in_buf = self._in_buf
        for i in lanes:
            in_buf[i] = xs[i]
        dead = set()
        aux = self._aux

        # Forward sweep.
        vec_scratch = {}  # ai -> vector aux kept for calibration backward
        for ins in self._instr:
            if ins.vector and not calibrating:
                _value, aux[ins.ai] = self._vector_forward(ins)
                continue
            aux_rows: List[object] = [None] * self.width
            vec_value = vec_aux = None
            if ins.vector:
                # Calibration: vector result first (the lane pass below
                # overwrites the shared buffer), compared against the
                # lane-mode reference afterwards.
                try:
                    value, vec_aux = self._vector_forward(ins)
                    vec_value = np.array(value, copy=True)
                except Exception:
                    vec_value = None
            self._lane_forward(ins, lanes, dead, aux_rows)
            aux[ins.ai] = aux_rows
            if ins.vector:
                if vec_value is not None and _lanes_agree(
                    vec_value, ins.buf, lanes, dead
                ):
                    vec_scratch[ins.ai] = vec_aux
                else:
                    self._demote(ins)

        # Backward sweep (adjoints of the carrying slots only — the same
        # pruning the solo emitted code applies).
        grads: Dict[int, np.ndarray] = {}
        if self._carries[self._root]:
            root_buf = self._gbufs[self._root]
            np.copyto(root_buf, 1.0)
            grads[self._root] = root_buf
        for ins in self._bwd:
            g = grads.get(ins.slot)
            if g is None:
                continue
            if ins.vector and not calibrating:
                contribs = self._vector_backward(ins, g, aux[ins.ai])
            else:
                contribs = self._lane_backward(
                    ins, ins.grow, aux[ins.ai], lanes, dead
                )
                if ins.vector:
                    # Compare the vector transform against the lane
                    # reference before trusting it.
                    try:
                        vec_contribs = self._vector_backward(
                            ins, g, vec_scratch.get(ins.ai)
                        )
                    except Exception:
                        vec_contribs = None
                    if vec_contribs is None or not all(
                        (v is None) == (c is None)
                        and (v is None or _lanes_agree(v, c, lanes, dead))
                        for v, c in zip(vec_contribs, contribs)
                    ):
                        self._demote(ins)
            for t, (_k, s, _shape) in enumerate(ins.targets):
                c = contribs[t]
                if c is None:
                    continue
                buf = self._gbufs[s]
                if s in grads:
                    np.add(grads[s], c, out=buf)
                else:
                    np.copyto(buf, c)
                grads[s] = buf

        # Collect per-lane results with solo fallback semantics.
        root_vals = self._root_vals
        root_batched = self._batched[self._root]
        in_shape = self.input_shape
        g_in = grads.get(self._input)
        results: Dict[int, Tuple[float, np.ndarray]] = {}
        for i in lanes:
            value = float(root_vals[i]) if root_batched else float(root_vals)
            if i in dead or not np.isfinite(value):
                results[i] = verify.rejection(in_shape)
                continue
            grad = g_in[i].copy() if g_in is not None else np.zeros(in_shape)
            results[i] = (value, grad)

        if calibrating:
            self._instr_probation -= 1
        elif self._result_probation > 0:
            self._validate(xs, lanes, results)
        return results

    def _validate(self, xs, lanes, results) -> None:
        """Cross-check a full vector-mode replay against the solo tape.

        A lane that disagrees is handed the solo reference instead, and
        every remaining vector instruction drops to lane mode — the engine
        keeps working, just without vectorization.
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
