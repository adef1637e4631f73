"""Shared fuzzing utilities for the test suite."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from diffsched.engine import compile_graph, loss_and_grad
from diffsched.graph import (
    Edge,
    Node,
    SchedGraph,
    _kahn_order,
    check_legal,
    latest_stages,
)


# JSON graphs with one bad value each, the loader's one-line message for it,
# and the test id: non-finite weights, a non-integer constant and entries that
# are not objects.
BAD_VALUE_GRAPHS = [
    pytest.param('{"nodes": [{"id": "a", "mem": NaN}], "edges": []}',
                 "non-finite weight: node 'a' mem=nan", id="nan-mem"),
    pytest.param('{"nodes": [{"id": "a"}, {"id": "b"}],'
                 ' "edges": [{"src": "a", "dst": "b", "comm": Infinity}]}',
                 "non-finite weight: edge ('a','b') comm=inf", id="inf-comm"),
    pytest.param('{"nodes": [{"id": "a"}, {"id": "b"}],'
                 ' "edges": [{"src": "a", "dst": "b", "c": -1.7}]}',
                 "non-integer constant: edge ('a','b') c=-1.7", id="fractional-c"),
    pytest.param('{"nodes": [1, 2], "edges": []}', "node 0 is not an object: 1",
                 id="non-object-node"),
    pytest.param('{"nodes": [{"id": "a"}], "edges": ["ab"]}', "edge 0 is not an object: 'ab'",
                 id="non-object-edge"),
]


class FixedUniformRng:
    """Stub exposing .uniform that returns preset values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def uniform(self, size=None):
        assert size == self.values.shape or size == len(self.values)
        return self.values.copy()


def random_dag(
    rng: np.random.Generator,
    n_nodes: int,
    edge_prob: float = 0.4,
    c_choices=(0,),
    comm_choices=(1.0,),
    mem_choices=(1.0,),
) -> SchedGraph:
    """Random DAG over declaration order: edges only go index-forward."""
    nodes = [Node(id=f"n{i}", mem=float(rng.choice(mem_choices))) for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.uniform() < edge_prob:
                edges.append(
                    Edge(
                        src=f"n{i}",
                        dst=f"n{j}",
                        comm=float(rng.choice(comm_choices)),
                        sdc_c=int(rng.choice(c_choices)),
                    )
                )
    return SchedGraph(nodes=nodes, edges=edges)


def enumerate_legal(g: SchedGraph, latency: int):
    """Naive full enumeration of legal schedules (no pruning): the slow,
    independent cross-check for the oracle and feasibility bounds."""
    for combo in product(range(latency), repeat=g.n_nodes):
        stages = {n.id: s for n, s in zip(g.nodes, combo)}
        if not check_legal(g, stages, latency):
            yield stages


def random_legal_schedule(
    g: SchedGraph, latency: int, rng: np.random.Generator
) -> dict[str, int]:
    """Uniform-ish random legal schedule: each node draws from its currently
    feasible stage window in topological order. Requires L >= L_min."""
    order = _kahn_order(g)
    assert order is not None
    preds = g.predecessors()
    hi = latest_stages(g, latency)
    stages = [0] * g.n_nodes
    for v in order:
        lo = 0
        for u, c in preds[v]:
            lo = max(lo, stages[u] - c)
        assert lo <= hi[v]
        stages[v] = int(rng.integers(lo, hi[v] + 1))
    return {n.id: s for n, s in zip(g.nodes, stages)}


def training_loss(g: SchedGraph, stages, latency: int, lam: float = 1.0):
    """(total, spread, comm) of the engine's training loss on a hard
    schedule, given as a stage list in declaration order or a dict."""
    if isinstance(stages, dict):
        stages = [stages[n.id] for n in g.nodes]
    hard = np.eye(latency)[list(stages)]
    lo = np.zeros(g.n_nodes, dtype=np.intp)
    total, spread, comm, _ = loss_and_grad(compile_graph(g, latency), hard, hard, lo, 1.0, lam)
    return total, spread, comm


def isolated_nodes(mems) -> SchedGraph:
    """A graph of unconnected nodes with the given memories."""
    return SchedGraph(nodes=[Node(id=f"n{i}", mem=float(m)) for i, m in enumerate(mems)])


def relaxed_loss(cg, weights, noise, lo, tau: float, lam: float):
    """``loss_and_grad`` at the relaxed schedule mask * softmax((w + noise) / tau),
    the mask being each node's window [lo, hi]."""
    cols = np.arange(weights.shape[1])
    mask = (cols >= lo[:, None]) & (cols <= cg.hi[:, None])
    z = (weights + noise) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return loss_and_grad(cg, mask * y, y, lo, tau, lam)


def reference_loss_and_grad(cg, s, y, lo, tau: float, lam: float):
    """``loss_and_grad`` with the comm adjoint scattered edge by edge: an
    ``np.add.at`` of every source's terms, then an ``np.subtract.at`` of
    every destination's. The engine's single bincount must give these bits."""
    n, latency = s.shape
    spread = 0.0
    if cg.total_mem > 0.0:
        inv_m = 1.0 / cg.total_mem
        q = np.bincount(
            cg.cell_stage, weights=(cg.mem[:, None] * s).ravel(), minlength=latency
        ) * inv_m
        q_floor = np.maximum(q, 1e-30)
        log_q = np.log(q_floor)
        spread = float((q * log_q).sum()) + math.log(latency)
        dq = lam * log_q + (lam * q) / q_floor * (q >= 1e-30)
        grad = cg.mem[:, None] * (dq * inv_m)
    else:
        grad = np.zeros((n, latency))
    comm = 0.0
    if cg.total_comm > 0.0:
        inv_c = 1.0 / cg.total_comm
        cum = s.cumsum(axis=1)
        before = cum[cg.src]
        after = 1.0 - cum[cg.dst]
        after[:, -1] = 0.0
        comm = float(cg.comm @ np.einsum("ij,ij->i", before, after)) * inv_c
        w = (cg.comm * inv_c)[:, None]
        after *= w
        before *= w
        before[:, -1] = 0.0
        g_cum = np.zeros((n, latency))
        np.add.at(g_cum, cg.src, after)
        np.subtract.at(g_cum, cg.dst, before)
        grad += g_cum[:, ::-1].cumsum(axis=1)[:, ::-1]
    cols = np.arange(latency)
    grad *= (cols >= lo[:, None]) & (cols <= cg.hi[:, None])
    inner = grad[:, None, :] @ y[:, :, None]
    grad = (grad - inner[:, 0]) * y / tau
    return spread * lam + comm, spread, comm, grad


def gradient_error(cg, weights, noise, lo, tau: float, lam: float, eps: float) -> float:
    """Largest |closed form - central difference| / max(1, |central
    difference|) of the relaxed loss's gradient over every logit."""
    grad = relaxed_loss(cg, weights, noise, lo, tau, lam)[3]
    fd = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        up, down = weights.copy(), weights.copy()
        up[idx] += eps
        down[idx] -= eps
        fd[idx] = (relaxed_loss(cg, up, noise, lo, tau, lam)[0]
                   - relaxed_loss(cg, down, noise, lo, tau, lam)[0]) / (2 * eps)
    return float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))
