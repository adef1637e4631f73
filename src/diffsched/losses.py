"""Exact evaluation of hard schedules.

``discrete_metrics`` scores a legal schedule by peak stage memory,
per-boundary communication and the LP objective; ``normalized_progress``
turns a run's objectives into its running best relative to the first.
The training loss and its gradient live in ``engine.loss_and_grad``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import SchedGraph, check_legal


@dataclass
class DiscreteMetrics:
    peak_mem: float
    boundary_comm: list[float]
    comm_total: float
    lp_objective: float
    ratio: float


def discrete_metrics(
    g: SchedGraph, stages: dict[str, int] | list[int], latency: int, ratio: float
) -> DiscreteMetrics:
    """Exact evaluation of peak memory, per-boundary communication, and the
    LP objective comm_total + ratio * peak_mem for a hard schedule."""
    if isinstance(stages, list):
        stages = {n.id: s for n, s in zip(g.nodes, stages)}
    violations = check_legal(g, stages, latency)
    if violations:
        raise ValueError("illegal schedule: " + "; ".join(violations))

    stage_mem = [0.0] * latency
    for n in g.nodes:
        stage_mem[stages[n.id]] += n.mem
    peak = max(stage_mem) if stage_mem else 0.0

    boundary = [0.0] * max(latency - 1, 0)
    for e in g.edges:
        a, b = stages[e.src], stages[e.dst]
        for i in range(a, b):
            boundary[i] += e.comm
    comm_total = float(sum(boundary))
    return DiscreteMetrics(
        peak_mem=peak,
        boundary_comm=boundary,
        comm_total=comm_total,
        lp_objective=comm_total + ratio * peak,
        ratio=ratio,
    )


def normalized_progress(objectives: list[float]) -> list[float]:
    """Running-best objective over the initial objective; starts at 1.0."""
    if not objectives:
        raise ValueError("normalized_progress: empty trajectory")
    first = objectives[0]
    if first <= 0:
        raise ValueError("normalized_progress: first objective must be positive")
    out = []
    best = first
    for obj in objectives:
        best = min(best, obj)
        out.append(best / first)
    return out
