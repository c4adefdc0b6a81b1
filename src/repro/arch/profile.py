"""Workload feature extraction for the architectural model.

Everything here is *measured from the real implementation*, not asserted:

* static features — modeled data bytes (the Section V-A predictor input),
  parameter dimension, compiled-code footprint;
* tape features — node count and total intermediate bytes of one
  log-density+gradient evaluation (the working set a chain streams per
  iteration);
* dynamic features — gradient evaluations per NUTS iteration, measured with
  a short calibration run (trajectory lengths are workload-dependent); only
  the per-iteration projections read them, so the serving path skips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autodiff.tape import Var, _toposort


@dataclass(frozen=True)
class WorkloadProfile:
    """Features of one workload consumed by :class:`repro.arch.machine.MachineModel`."""

    name: str
    modeled_data_bytes: int
    modeled_data_points: int
    dim: int
    code_footprint_bytes: int
    tape_nodes: int
    tape_bytes: int
    tape_intermediate_bytes: int
    tape_gather_bytes: int
    #: ``None`` on an uncalibrated profile (``calibration_iterations=0``).
    work_per_iteration: Optional[float]
    default_iterations: int
    default_warmup: int
    default_chains: int
    #: Provenance tag. Profiles are ``"static"``: model-based estimates fed
    #: to the analytical machine model (even the calibration-derived
    #: trajectory length parameterizes a formula). Numbers observed at run
    #: time live in :mod:`repro.telemetry` and are tagged ``"measured"`` —
    #: the two must never be conflated in reports.
    source: str = "static"

    #: Allocator-churn multiplier for intermediate tape values: across the
    #: leapfrog steps of one trajectory, freshly allocated forward values and
    #: adjoints cycle through several arena generations before reuse (Stan's
    #: autodiff arena behaves the same way), so a chain's resident set is a
    #: small multiple of one evaluation's intermediates.
    ARENA_GENERATIONS = 9.0

    @property
    def working_set_bytes(self) -> float:
        """Per-chain steady-state working set.

        One copy of the modeled data, several arena generations of
        intermediate values/adjoints, and sampler state (positions, momenta,
        mass matrix ~ 6 vectors of dim doubles) plus framework-resident
        state.
        """
        return (
            self.ARENA_GENERATIONS * self.tape_intermediate_bytes
            + self.modeled_data_bytes
            + 6.0 * 8.0 * self.dim
            + 100 * 1024  # runtime/framework-resident state
        )

    @property
    def instructions_per_work_unit(self) -> float:
        """Retired instructions per gradient evaluation (model).

        Stan-style tape autodiff costs a few tens of instructions per array
        element (forward value + adjoint arithmetic + vari bookkeeping);
        each tape node additionally pays a fixed dispatch overhead.
        """
        elements = self.tape_intermediate_bytes / 8.0
        return 40.0 * elements + 700.0 * self.tape_nodes

    @property
    def llc_accesses_per_work_unit(self) -> float:
        """Accesses reaching the LLC per gradient evaluation (model).

        Streamed element traffic is filtered ~8:1 by 64-byte lines; gather
        (indexed) traffic has no spatial locality and reaches the LLC per
        element.
        """
        elements = self.tape_intermediate_bytes / 8.0
        gathers = self.tape_gather_bytes / 8.0
        return 1.1 * elements + 3.0 * gathers

    @property
    def gather_fraction(self) -> float:
        """Fraction of intermediate traffic produced by indexed gathers."""
        if self.tape_intermediate_bytes == 0:
            return 0.0
        return self.tape_gather_bytes / self.tape_intermediate_bytes


def measure_tape(model, x: np.ndarray | None = None) -> tuple[int, int, int, int]:
    """(node count, total bytes, intermediate bytes, gather bytes) of one
    log-density graph. Intermediates exclude leaf nodes (data constants and
    the parameter vector), which are counted once via ``modeled_data_bytes``;
    gather bytes are outputs of indexed-gather ops (no spatial locality).
    """
    if x is None:
        x = model.initial_position(np.random.default_rng(0), jitter=0.1)
    root = model._logp_var(Var(np.asarray(x, dtype=float)))
    nodes = _toposort(root)
    total_bytes = sum(node.value.nbytes for node in nodes)
    intermediate = sum(node.value.nbytes for node in nodes if node.parents)
    gather = sum(node.value.nbytes for node in nodes if node.tag == "gather")
    return len(nodes), int(total_bytes), int(intermediate), int(gather)


def profile_workload(
    model,
    calibration_iterations: int = 40,
    n_chains: int = 2,
    seed: int = 0,
    sampler=None,
) -> WorkloadProfile:
    """Measure a workload's static and dynamic features.

    The calibration run is short (its only purpose is the mean trajectory
    length); the figures' full runs are driven by the core pipeline. With
    ``calibration_iterations=0`` no sampler runs: the profile is one graph
    trace plus the model's attributes, ``work_per_iteration=None``.
    """
    tape_nodes, tape_bytes, tape_intermediate, tape_gather = measure_tape(model)

    work_per_iteration = None
    if calibration_iterations > 0:
        from repro.inference import NUTS, run_chains

        if sampler is None:
            sampler = NUTS(max_tree_depth=7)
        result = run_chains(
            model, sampler, n_iterations=calibration_iterations,
            n_chains=n_chains, seed=seed,
        )
        # Post-warmup work is the steady-state cost; warmup has step-size churn.
        work_per_iteration = float(np.mean([
            chain.work_per_iteration[chain.n_warmup:].mean()
            for chain in result.chains
        ]))

    return WorkloadProfile(
        name=model.name,
        modeled_data_bytes=model.modeled_data_bytes,
        modeled_data_points=model.modeled_data_points,
        dim=model.dim,
        code_footprint_bytes=model.code_footprint_bytes,
        tape_nodes=tape_nodes,
        tape_bytes=tape_bytes,
        tape_intermediate_bytes=tape_intermediate,
        tape_gather_bytes=tape_gather,
        work_per_iteration=work_per_iteration,
        default_iterations=getattr(model, "default_iterations", 1000),
        default_warmup=getattr(model, "default_warmup", 500),
        default_chains=getattr(model, "default_chains", 4),
        source="static",
    )
