"""Weighted-DAG data model for latency-constrained scheduling.

Nodes carry memory weights, edges carry communication costs plus an integer
difference constant ``c``: a schedule is legal iff for every edge (u, v)
``stage(u) - stage(v) <= c``. With the default c = 0 a child may share its
parent's stage (chaining) but never run earlier.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple


class GraphError(ValueError):
    """Raised for malformed or invalid graph inputs."""


class InfeasibleError(ValueError):
    """Raised when no legal schedule exists for the requested latency."""


@dataclass(frozen=True)
class Node:
    id: str
    mem: float = 1.0


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    comm: float = 1.0
    sdc_c: int = 0


@dataclass
class SchedGraph:
    """Immutable-after-validation DAG. Parallel edges are allowed; their
    communication costs accumulate."""

    nodes: List[Node] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)

    def __post_init__(self):
        self._index: Dict[str, int] = {n.id: i for i, n in enumerate(self.nodes)}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_index(self, node_id: str) -> int:
        return self._index[node_id]

    def predecessors(self) -> List[List[Tuple[int, int]]]:
        """Per node (by index): list of (pred_index, sdc_c) over incoming edges."""
        preds: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for e in self.edges:
            preds[self._index[e.dst]].append((self._index[e.src], e.sdc_c))
        return preds

    def successors(self) -> List[List[Tuple[int, int]]]:
        succs: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for e in self.edges:
            succs[self._index[e.src]].append((self._index[e.dst], e.sdc_c))
        return succs


def validate(g: SchedGraph) -> List[str]:
    """Return a list of violations; empty list means the graph is valid.

    Never raises: callers decide whether a violation is fatal.
    """
    violations: List[str] = []
    seen = set()
    for n in g.nodes:
        if n.id in seen:
            violations.append(f"duplicate id: {n.id!r}")
        seen.add(n.id)
        if n.mem < 0:
            violations.append(f"negative weight: node {n.id!r} mem={n.mem}")
    for e in g.edges:
        if e.src not in seen:
            violations.append(f"unknown endpoint: edge src {e.src!r}")
        if e.dst not in seen:
            violations.append(f"unknown endpoint: edge dst {e.dst!r}")
        if e.src == e.dst:
            violations.append(f"self loop: {e.src!r}")
        if e.comm < 0:
            violations.append(f"negative weight: edge ({e.src!r},{e.dst!r}) comm={e.comm}")
    if not violations and _kahn_order(g) is None:
        violations.append("cycle detected")
    return violations


def _adjacency(g: SchedGraph) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
    """Per node (by index): (successor index, sdc_c) over outgoing edges in
    edge order, and the in-degree."""
    index = g._index
    succs: List[List[Tuple[int, int]]] = [[] for _ in g.nodes]
    indeg = [0] * g.n_nodes
    for e in g.edges:
        v = index[e.dst]
        succs[index[e.src]].append((v, e.sdc_c))
        indeg[v] += 1
    return succs, indeg


def _kahn(
    succs: List[List[Tuple[int, int]]], indeg: List[int]
) -> Tuple[List[int] | None, List[int]]:
    """Kahn's algorithm with declaration-order tie-break: (order, earliest
    stages); order is None if cyclic.

    A node's earliest legal stage is final when it is popped, so the ASAP
    propagation stage(v) >= stage(u) - c_uv, clamped at 0, rides along.
    Consumes ``indeg``.
    """
    n = len(succs)
    # The ready list starts sorted, hence a valid heap; popping the smallest
    # index keeps ties in declaration order.
    ready = [i for i in range(n) if indeg[i] == 0]
    lo = [0] * n
    order: List[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        t = lo[u]
        for v, c in succs[u]:
            if t - c > lo[v]:
                lo[v] = t - c
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        return None, lo
    return order, lo


def _kahn_order(g: SchedGraph) -> List[int] | None:
    """Kahn's algorithm with declaration-order tie-break; None if cyclic."""
    return _kahn(*_adjacency(g))[0]


def topological_order(g: SchedGraph) -> List[str]:
    """Deterministic topological order (ties broken by declaration order)."""
    order = _kahn_order(g)
    if order is None:
        raise GraphError("graph contains a cycle")
    return [g.nodes[i].id for i in order]


def stage_bounds(g: SchedGraph, latency: int) -> Tuple[List[int], List[int], List[int]]:
    """(topological order, earliest stages, latest stages) by node index,
    from one adjacency build and one Kahn pass.

    Earliest is the ASAP assignment; latest the ALAP one given ``latency``
    stages, whose entries may fall below the earliest stage when latency is
    below the minimum feasible latency, 1 + max(earliest).
    """
    succs, indeg = _adjacency(g)
    order, lo = _kahn(succs, indeg)
    if order is None:
        raise GraphError("graph contains a cycle")
    hi = [latency - 1] * g.n_nodes
    for v in reversed(order):
        for w, c in succs[v]:
            if hi[w] + c < hi[v]:
                hi[v] = hi[w] + c
    return order, lo, hi


def min_feasible_latency(g: SchedGraph) -> int:
    """Smallest L for which a legal schedule exists.

    Each node's earliest legal stage is propagated in topological order:
    stage(v) >= stage(u) - c_uv for every incoming edge, clamped at 0
    (positive constants give slack, they never force a later stage).
    """
    return 1 + max(earliest_stages(g), default=0)


def earliest_stages(g: SchedGraph) -> List[int]:
    """Per-node minimum legal stage (the ASAP assignment), by node index."""
    order, lo = _kahn(*_adjacency(g))
    if order is None:
        raise GraphError("graph contains a cycle")
    return lo


def latest_stages(g: SchedGraph, latency: int) -> List[int]:
    """Per-node maximum legal stage given ``latency`` stages (ALAP).

    Entries may fall below the earliest stage when latency < min feasible.
    """
    return stage_bounds(g, latency)[2]


def check_legal(g: SchedGraph, stages: Mapping[str, int], latency: int) -> List[str]:
    """Return violated-edge descriptions; empty means the schedule is legal."""
    violations: List[str] = []
    for n in g.nodes:
        s = stages[n.id]
        if not (0 <= s < latency):
            violations.append(f"node {n.id!r}: stage {s} outside [0,{latency - 1}]")
    for e in g.edges:
        if stages[e.src] - stages[e.dst] > e.sdc_c:
            violations.append(
                f"edge ({e.src!r},{e.dst!r}): {stages[e.src]} - {stages[e.dst]} > {e.sdc_c}"
            )
    return violations


def load_graph(source: str) -> SchedGraph:
    """Parse the JSON graph format, or the whitespace edge-list format as a
    fallback. Validates before returning."""
    text = source.strip()
    if text.startswith("{"):
        g = _from_json(text)
    else:
        g = _from_edge_list(text)
    violations = validate(g)
    if violations:
        raise GraphError("; ".join(violations))
    return g


def load_graph_file(path: str) -> SchedGraph:
    with open(path) as f:
        return load_graph(f.read())


def _from_json(text: str) -> SchedGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or "nodes" not in data:
        raise GraphError("expected object with 'nodes' and 'edges'")
    nodes = []
    for nd in data.get("nodes", []):
        if "id" not in nd:
            raise GraphError("node missing 'id'")
        nodes.append(Node(id=str(nd["id"]), mem=float(nd.get("mem", 1.0))))
    edges = []
    for ed in data.get("edges", []):
        if "src" not in ed or "dst" not in ed:
            raise GraphError("edge missing 'src'/'dst'")
        edges.append(
            Edge(
                src=str(ed["src"]),
                dst=str(ed["dst"]),
                comm=float(ed.get("comm", 1.0)),
                sdc_c=int(ed.get("c", 0)),
            )
        )
    return SchedGraph(nodes=nodes, edges=edges)


def _from_edge_list(text: str) -> SchedGraph:
    """One `src dst [comm] [c]` per line; nodes implied; '#' starts a comment."""
    node_ids: List[str] = []
    seen = set()
    edges: List[Edge] = []

    def add_node(nid: str):
        if nid not in seen:
            seen.add(nid)
            node_ids.append(nid)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2 or len(parts) > 4:
            raise GraphError(f"line {lineno}: expected 'src dst [comm] [c]'")
        src, dst = parts[0], parts[1]
        comm = float(parts[2]) if len(parts) >= 3 else 1.0
        c = int(parts[3]) if len(parts) == 4 else 0
        add_node(src)
        add_node(dst)
        edges.append(Edge(src=src, dst=dst, comm=comm, sdc_c=c))
    return SchedGraph(nodes=[Node(id=i) for i in node_ids], edges=edges)


def save_graph(g: SchedGraph) -> str:
    """Canonical JSON serialization; load_graph(save_graph(g)) round-trips."""
    data = {
        "nodes": [{"id": n.id, "mem": n.mem} for n in g.nodes],
        "edges": [
            {"src": e.src, "dst": e.dst, "comm": e.comm, "c": e.sdc_c} for e in g.edges
        ],
    }
    return json.dumps(data, indent=1)
