"""Gradient-descent combinatorial scheduler for weighted DAGs.

Latency-constrained min-resource scheduling with difference constraints,
optimized by constrained Gumbel-Softmax sampling and verified against exact
and heuristic baselines.
"""

from .engine import RunConfig, RunResult, run, run_restarts
from .graph import (
    Edge,
    GraphError,
    InfeasibleError,
    Node,
    SchedGraph,
    check_legal,
    load_graph,
    min_feasible_latency,
    save_graph,
    topological_order,
    validate,
)
from .losses import DiscreteMetrics, discrete_metrics, normalized_progress

__all__ = [
    "DiscreteMetrics",
    "Edge",
    "GraphError",
    "InfeasibleError",
    "Node",
    "RunConfig",
    "RunResult",
    "SchedGraph",
    "check_legal",
    "discrete_metrics",
    "load_graph",
    "min_feasible_latency",
    "normalized_progress",
    "run",
    "run_restarts",
    "save_graph",
    "topological_order",
    "validate",
]
