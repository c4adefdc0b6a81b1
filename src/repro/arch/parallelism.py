"""Fine-grained parallelism analysis of model computation graphs.

Section VII-A of the paper observes that beyond chain-level parallelism,
Bayesian inference exposes *computation parallelism* within one density
evaluation (independent likelihood terms, vector operations) and *variable
sampling parallelism* ("when presenting the models as graphs ... the
variables at the same layer can be sampled in parallel").

This module makes those observations quantitative on the reproduction's own
computation graphs: the autodiff tape of a model's log density *is* the
dependency graph the paper describes. We compute the classic work/span
decomposition:

* **work** — total cost of all graph nodes (weighted by element count);
* **span** — cost along the critical (longest dependency) path;
* **parallelism = work / span** — the speedup bound with unlimited
  functional units (Brent's bound), i.e. how much SIMD/spatial hardware a
  workload could usefully exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arch.profile import graph_nodes
from repro.autodiff.tape import Var

#: fixed per-node issue overhead (cycles) in the weight model
NODE_OVERHEAD = 4.0
#: per-element cost (cycles) of a vectorizable op on a scalar unit
ELEMENT_COST = 1.0


def _node_weight(node: Var) -> float:
    """Cost of one graph node for work/span accounting."""
    return NODE_OVERHEAD + ELEMENT_COST * float(node.value.size)


@dataclass(frozen=True)
class GraphParallelism:
    """Work/span decomposition of one model evaluation graph."""

    workload: str
    work: float
    span: float

    @property
    def parallelism(self) -> float:
        """Speedup bound with unlimited parallel units (work / span)."""
        return self.work / self.span if self.span > 0 else 1.0

    def speedup_bound(self, n_units: int) -> float:
        """Brent's bound: T_p >= work/p + span, so speedup is limited by
        both available units and the critical path."""
        if n_units < 1:
            raise ValueError("n_units must be >= 1")
        t_p = self.work / n_units + self.span
        return self.work / t_p


def analyze_graph(model) -> GraphParallelism:
    """Work/span analysis of ``model``'s log-density graph."""
    nodes = graph_nodes(model)  # reverse creation order (children first)

    # Longest weighted path ending at each node, computed in forward
    # (creation) order so parents are finished before children.
    depth: Dict[int, float] = {}
    for node in reversed(nodes):
        depth[id(node)] = _node_weight(node) + max(
            (depth[id(p)] for p in node.parents), default=0.0
        )

    return GraphParallelism(
        workload=getattr(model, "name", "model"),
        work=sum(_node_weight(node) for node in nodes),
        span=max(depth.values()),
    )
