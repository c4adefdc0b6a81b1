"""The model API consumed by the samplers and the characterization tooling.

A concrete model declares:

* ``params`` — an ordered list of :class:`ParameterSpec` (name, size,
  constraint transform, initial value in constrained space);
* ``log_joint`` — the log joint density written against ``repro.autodiff``,
  receiving a dict of constrained parameter ``Var`` nodes.

The base class provides everything else: the flat unconstrained-vector
interface with automatic change-of-variable Jacobians (``logp``,
``logp_and_grad``), initial-point generation, posterior unpacking, and the
**static features** used by the paper's Section V predictor (modeled data
size) and the i-cache model (compiled code footprint).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops, verify
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tape import Var
from repro.models.transforms import Identity, Simplex, Transform


@dataclass
class ParameterSpec:
    """Declaration of one named model parameter block.

    ``size`` is the length of the *constrained* value (1 for scalars, which
    are exposed to the model as length-1 vectors). ``init`` is the center of
    the initial distribution in constrained space.
    """

    name: str
    size: int = 1
    transform: Transform = field(default_factory=Identity)
    init: Union[float, Sequence[float]] = 0.0

    @property
    def unconstrained_size(self) -> int:
        if isinstance(self.transform, Simplex):
            return self.transform.unconstrained_size
        return self.size

    def initial_constrained(self) -> np.ndarray:
        init = np.asarray(self.init, dtype=float)
        if init.ndim == 0:
            init = np.full(self.size, float(init))
        if init.shape != (self.size,):
            raise ValueError(
                f"Parameter {self.name!r}: init shape {init.shape} does not "
                f"match size {self.size}"
            )
        return init


class BayesianModel(abc.ABC):
    """Base class for all BayesSuite workload models."""

    #: short identifier used in tables and the registry
    name: str = "model"

    def __init__(self) -> None:
        self._data_arrays: Dict[str, np.ndarray] = {}
        self._compiled: "tape_compile.CompiledFunction | None" = None

    # -- to be provided by concrete models ----------------------------------

    @property
    @abc.abstractmethod
    def params(self) -> List[ParameterSpec]:
        """Ordered parameter declarations."""

    @abc.abstractmethod
    def log_joint(self, p: Dict[str, Var]) -> Var:
        """Log joint density (likelihood x priors) on constrained parameters."""

    # -- data registration and static features ------------------------------

    def add_data(self, **arrays: np.ndarray) -> None:
        """Register observed-data arrays.

        Registered arrays define the workload's *modeled data size*, the
        static feature the paper uses to predict LLC behaviour (Section V-A).
        """
        for name, arr in arrays.items():
            self._data_arrays[name] = np.asarray(arr)
        # New data invalidates any recorded tape: the graph constants changed.
        self._compiled = None

    def data(self, name: str) -> np.ndarray:
        return self._data_arrays[name]

    @property
    def data_arrays(self) -> Dict[str, np.ndarray]:
        return dict(self._data_arrays)

    @property
    def modeled_data_bytes(self) -> int:
        """Total bytes of observed data fed to the likelihood (Section V-A)."""
        return int(sum(arr.nbytes for arr in self._data_arrays.values()))

    @property
    def modeled_data_points(self) -> int:
        """Total number of observed scalar data values."""
        return int(sum(arr.size for arr in self._data_arrays.values()))

    @property
    def code_footprint_bytes(self) -> int:
        """Bytecode size of the model's log density, nested code included.

        A genuine static feature of the implementation, used by the machine
        model as an instruction-footprint proxy for the i-cache (the paper's
        `tickets` has both the largest model code and the worst i-cache
        behaviour).
        """
        def walk(code) -> int:
            total = len(code.co_code)
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    total += walk(const)
            return total

        return walk(type(self).log_joint.__code__)

    # -- packing between flat unconstrained vectors and named parameters ----

    @property
    def dim(self) -> int:
        """Dimension of the unconstrained sampling space."""
        return sum(spec.unconstrained_size for spec in self.params)

    def _split(self, z: Var) -> Tuple[Dict[str, Var], Var]:
        """Slice the flat unconstrained vector into constrained parameter
        Vars; also return the total log-Jacobian adjustment."""
        out: Dict[str, Var] = {}
        log_jac = ops.constant(0.0)
        offset = 0
        for spec in self.params:
            width = spec.unconstrained_size
            block = z[offset:offset + width]
            constrained, block_jac = spec.transform.constrain(block)
            out[spec.name] = constrained
            log_jac = log_jac + block_jac
            offset += width
        return out, log_jac

    def _logp_var(self, z: Var) -> Var:
        params, log_jac = self._split(z)
        return self.log_joint(params) + log_jac

    # -- numeric interface used by samplers ----------------------------------

    def logp(self, x: np.ndarray) -> float:
        """Log density (including Jacobians) at unconstrained ``x``.

        What the gradient-free engines call once per proposal:
        bit-identical to ``logp_and_grad_fn()(x)[0]``, with the same
        ``-inf`` rejection semantics, but no backward sweep is run — a
        proven compiled tape replays its forward-only program, and where
        the gradient call would interpret (tapes off, or this model's tape
        broken) the graph is traced forward only.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return verify.value_or_rejection(self._compiled_function().value, x)

    def logp_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """Log density and its gradient at unconstrained ``x``.

        Overflow during the forward pass is expected for far-out proposals
        (e.g. ``exp`` of a large unconstrained scale) and maps to a ``-inf``
        density, which the samplers treat as a rejection/divergence. The same
        goes for linear-algebra failures (a covariance matrix pushed out of
        the positive-definite cone): Stan rejects such proposals too.
        """
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, gradient = value_and_grad(self._logp_var, x)
        except np.linalg.LinAlgError:
            return float("-inf"), np.zeros_like(np.asarray(x, dtype=float))
        if not np.isfinite(value):
            return float("-inf"), np.zeros_like(np.asarray(x, dtype=float))
        return value, gradient

    def compiled_logp_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """:meth:`logp_and_grad` through the compiled-tape replay engine.

        Records the ``logp`` graph on first use (and whenever the graph
        structure or data changes) and replays it afterwards — bit-identical
        to the interpreted path, just without rebuilding the graph per call.
        Falls back to interpretation transparently when the graph cannot be
        compiled; the ``-inf`` rejection semantics are identical either way.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return verify.or_rejection(self._compiled_function(), x)

    def _compiled_function(self) -> "tape_compile.CompiledFunction":
        compiled = self._compiled
        if compiled is None:
            compiled = tape_compile.CompiledFunction(self._logp_var)
            self._compiled = compiled
        return compiled

    def logp_and_grad_fn(self):
        """The gradient evaluator the sampler hot path should call.

        Returns :meth:`compiled_logp_and_grad` when compiled tapes are
        enabled (the default) and plain :meth:`logp_and_grad` otherwise.
        """
        if tape_compile.enabled():
            return self.compiled_logp_and_grad
        return self.logp_and_grad

    def proven_tape(self) -> "tape_compile.CompiledTape | None":
        """The compiled tape once it has passed probation; ``None`` while
        there is none yet (nothing recorded, or still on probation).

        Raises :class:`~repro.autodiff.compile.TapeUnsupportedError` when
        there never will be one: compilation is switched off, or this
        model's graph fell back to interpretation for good.
        """
        if not tape_compile.enabled():
            raise tape_compile.TapeUnsupportedError("compiled tapes are off")
        compiled = self._compiled
        if compiled is None:
            return None
        if compiled.broken is not None:
            raise tape_compile.TapeUnsupportedError(compiled.broken)
        return compiled.proven_tape()

    def tape_stats(self) -> "Dict[str, float] | None":
        """Compiled-tape counters (records/replays/fallbacks/...), if any."""
        compiled = self._compiled
        if compiled is None:
            return None
        return dict(compiled.stats)

    def __getstate__(self):
        # Compiled tapes hold generated code and kernel closures; drop them
        # so models stay picklable (serve workers re-record after unpickling).
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    def constrain(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Map an unconstrained draw to named constrained parameter arrays."""
        x = np.asarray(x, dtype=float)
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for spec in self.params:
            width = spec.unconstrained_size
            out[spec.name] = spec.transform.constrain_np(x[offset:offset + width])
            offset += width
        return out

    def unconstrain(self, values: Dict[str, np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`constrain` for a full parameter dict."""
        parts = []
        for spec in self.params:
            parts.append(
                np.atleast_1d(spec.transform.unconstrain(np.asarray(values[spec.name])))
            )
        return np.concatenate(parts)

    def initial_position(
        self, rng: np.random.Generator, jitter: float = 1.0
    ) -> np.ndarray:
        """Random initial point: declared inits, jittered in unconstrained
        space (Stan initializes uniformly on [-2, 2] around zero; we jitter
        around the declared init instead so hard models start in-support)."""
        center = self.unconstrain(
            {spec.name: spec.initial_constrained() for spec in self.params}
        )
        return center + rng.uniform(-jitter, jitter, size=center.shape)

    # -- convenience ---------------------------------------------------------

    def param_names(self) -> List[str]:
        return [spec.name for spec in self.params]

    def flat_param_names(self) -> List[str]:
        """One name per constrained scalar, e.g. ``beta[0]``, ``beta[1]``."""
        names: List[str] = []
        for spec in self.params:
            if spec.size == 1:
                names.append(spec.name)
            else:
                names.extend(f"{spec.name}[{i}]" for i in range(spec.size))
        return names

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, dim={self.dim}, "
            f"data_bytes={self.modeled_data_bytes})"
        )
