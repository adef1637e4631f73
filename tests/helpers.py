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
    stage_bounds,
)
from diffsched.losses import DiscreteMetrics


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


def predecessors(g: SchedGraph) -> list[list[tuple[int, int]]]:
    """Per node (by index): (predecessor index, sdc_c) over its in-edges."""
    preds = [[] for _ in g.nodes]
    for e in g.edges:
        preds[g.node_index(e.dst)].append((g.node_index(e.src), e.sdc_c))
    return preds


def random_legal_schedule(
    g: SchedGraph, latency: int, rng: np.random.Generator
) -> dict[str, int]:
    """Uniform-ish random legal schedule: each node draws from its currently
    feasible stage window in topological order. Requires L >= L_min."""
    order = _kahn_order(g)
    assert order is not None
    preds = predecessors(g)
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
    t = np.array(stages, dtype=np.intp)
    lo = np.zeros(g.n_nodes, dtype=np.intp)
    total, spread, comm, _ = loss_and_grad(
        compile_graph(g, latency), t, np.eye(latency)[t], lo, 1.0, lam)
    return total, spread, comm


def isolated_nodes(mems) -> SchedGraph:
    """A graph of unconnected nodes with the given memories."""
    return SchedGraph(nodes=[Node(id=f"n{i}", mem=float(m)) for i, m in enumerate(mems)])


def relaxed_loss(cg, weights, noise, lo, tau: float, lam: float):
    """``reference_loss_and_grad`` at the relaxed schedule mask * softmax((w + noise) / tau),
    the mask being each node's window [lo, hi]."""
    cols = np.arange(weights.shape[1])
    mask = (cols >= lo[:, None]) & (cols <= cg.hi[:, None])
    z = (weights + noise) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return reference_loss_and_grad(cg, mask * y, y, lo, tau, lam)


def reference_loss_and_grad(cg, s, y, lo, tau: float, lam: float):
    """``engine.loss_and_grad`` for any |V| x L stage-probability matrix
    ``s``: an edge crosses boundary i < L - 1 by cumsum(s_src)[i] * (1 -
    cumsum(s_dst)[i]), and the comm adjoint is the reversed cumsum of those
    factors, scattered edge by edge onto the endpoints by an ``np.add.at``
    and an ``np.subtract.at``. At mask * y it is the exact gradient of the
    relaxed loss; at the one-hot rows of the engine's stages the engine must
    give the same loss bits and, within rounding, the same gradient."""
    n, latency = s.shape
    spread = 0.0
    if cg.total_mem > 0.0:
        inv_m = 1.0 / cg.total_mem
        # each stage summed over the nodes in index order, as a bincount of
        # the hard stages does
        q = np.bincount(
            np.tile(np.arange(latency), n), weights=(cg.mem[:, None] * s).ravel(),
            minlength=latency,
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


def reference_discrete_metrics(g: SchedGraph, stages, latency: int, ratio: float):
    """``losses.discrete_metrics`` by dicts and Python loops: stage memory
    and each boundary summed in node and edge order, the boundaries by a
    Python sum. The block scorer must give these bits."""
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
        for i in range(stages[e.src], stages[e.dst]):
            boundary[i] += e.comm
    comm_total = float(sum(boundary))
    return DiscreteMetrics(peak_mem=peak, boundary_comm=boundary, comm_total=comm_total,
                           lp_objective=comm_total + ratio * peak, ratio=ratio)


def reference_brute_force(g: SchedGraph, latency: int, ratio: float):
    """``baselines.brute_force`` as a DFS over stage assignments in
    topological order, each node over its window [lo, hi], scoring every
    leaf with ``reference_discrete_metrics``: a leaf wins if its objective
    is below the best by more than 1e-12, or within 1e-12 of it with a
    lexicographically smaller stage list in declaration order."""
    order, _, hi = stage_bounds(g, latency)
    preds = predecessors(g)
    n = g.n_nodes
    stages = [0] * n
    best_obj = float("inf")
    best = None

    def dfs(pos: int):
        nonlocal best_obj, best
        if pos == n:
            obj = reference_discrete_metrics(g, list(stages), latency, ratio).lp_objective
            decl = list(stages)
            if obj < best_obj - 1e-12 or (
                abs(obj - best_obj) <= 1e-12 and best is not None and decl < best
            ):
                best_obj = obj
                best = decl
            return
        v = order[pos]
        lo = max([stages[u] - c for u, c in preds[v]], default=0)
        for s in range(max(lo, 0), hi[v] + 1):
            stages[v] = s
            dfs(pos + 1)

    dfs(0)
    assert best is not None
    return {node.id: best[i] for i, node in enumerate(g.nodes)}, best_obj
