"""Exact evaluation of hard schedules.

``discrete_metrics`` reports a legal schedule's peak stage memory,
per-boundary communication and LP objective, scored as a one-row block of
``engine.score_block``; ``normalized_progress`` turns a run's objectives
into its running best relative to the first. The training loss and its
gradient live in ``engine.loss_and_grad``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import compile_graph, score_block
from .graph import SchedGraph


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
    """Peak memory, per-boundary communication, and the LP objective
    comm_total + ratio * peak_mem of a hard schedule, given by node id or
    as a list in declaration order; ValueError if it is illegal."""
    if isinstance(stages, dict):
        stages = [stages[n.id] for n in g.nodes]
    block = np.array(stages, dtype=np.intp).reshape(1, g.n_nodes)
    peak, comm, boundary = score_block(g, compile_graph(g, max(latency, 0)), block, latency)
    peak_mem, comm_total = float(peak[0]), float(comm[0])
    return DiscreteMetrics(
        peak_mem=peak_mem,
        boundary_comm=boundary[0].tolist(),
        comm_total=comm_total,
        lp_objective=comm_total + ratio * peak_mem,
        ratio=ratio,
    )


def normalized_progress(objectives: list[float]) -> list[float]:
    """Running-best objective over the initial objective; starts at 1.0.

    A first objective of 0 is already optimal (objectives are nonnegative),
    so its progress reads 1.0 throughout.
    """
    if not objectives:
        raise ValueError("normalized_progress: empty trajectory")
    first = objectives[0]
    if first < 0:
        raise ValueError("normalized_progress: first objective must be nonnegative")
    if first == 0:
        return [1.0] * len(objectives)
    out = []
    best = first
    for obj in objectives:
        best = min(best, obj)
        out.append(best / first)
    return out
