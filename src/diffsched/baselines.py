"""Exact and heuristic comparison machinery.

brute_force is the ground-truth oracle for small instances: it enumerates
the legal stage vectors in blocks and scores each block at once with
``engine.score_block``. asap/alap and greedy_balance are fast comparison
schedules; export_ilp emits the full 0/1 integer program (LP file format)
with the bilinear boundary-crossing terms linearized, for use with any
external solver.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .engine import CompiledGraph, compile_graph, score_block
from .graph import InfeasibleError, SchedGraph, earliest_stages, stage_bounds

_BRUTE_FORCE_LIMIT = 10**7
_BLOCK_ROWS = 1 << 12  # spreads numpy's cost per call, keeps a block small


def _require_feasible(latency: int, l_min: int) -> None:
    if latency < l_min:
        raise InfeasibleError(f"latency {latency} below minimum feasible {l_min}")


def asap(g: SchedGraph, latency: int) -> dict[str, int]:
    """Every node at its minimum legal stage."""
    lo = earliest_stages(g)
    _require_feasible(latency, 1 + max(lo, default=0))
    return {n.id: lo[i] for i, n in enumerate(g.nodes)}


def alap(g: SchedGraph, latency: int) -> dict[str, int]:
    """Every node at its maximum legal stage, working back from L-1."""
    _, earliest, hi = stage_bounds(g, latency)
    _require_feasible(latency, 1 + max(earliest, default=0))
    return {n.id: hi[i] for i, n in enumerate(g.nodes)}


def legal_blocks(cg: CompiledGraph) -> Iterator[np.ndarray]:
    """The legal stage vectors (by declaration index) of a feasible graph in
    (M, V) blocks of at most ``_BLOCK_ROWS`` rows, in the order of a DFS
    placing the nodes in topological order, each at the stages of its
    window ``[lo, hi]`` upward (never empty under the ALAP caps). A stack
    entry holds prefixes and the index of their next expansion to list."""
    n = len(cg.order)
    stack = [(np.zeros((1, n), dtype=np.intp), 0, 0)]
    while stack:
        rows, pos, start = stack.pop()
        if pos == n:
            yield rows
            continue
        v = cg.order[pos]
        into = cg.e_dst == v
        lo = np.maximum.reduce(rows.take(cg.e_src[into], axis=1) - cg.e_c[into], axis=1, initial=0)
        count = cg.hi[v] + 1 - lo
        end = count.cumsum()
        stop = min(start + _BLOCK_ROWS, int(end[-1]))
        if stop < end[-1]:
            stack.append((rows, pos, stop))
        leaf = np.arange(start, stop)
        parent = end.searchsorted(leaf, side="right")
        block = rows.take(parent, axis=0)
        block[:, v] = leaf - (end - count - lo)[parent]
        stack.append((block, pos + 1, 0))


def brute_force(
    g: SchedGraph, latency: int, ratio: float
) -> tuple[dict[str, int], float]:
    """Exhaustive search over ``legal_blocks``, each block scored at once.
    In enumeration order, a row wins if its objective is below the best by
    more than 1e-12, or within 1e-12 of it with a lexicographically smaller
    stage vector (node declaration order)."""
    if latency ** g.n_nodes > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for brute force: {latency}^{g.n_nodes} assignments"
        )
    cg = compile_graph(g, latency)
    _require_feasible(latency, cg.l_min)
    # Stages are digits below L, so the base-L value of a stage vector
    # orders the vectors lexicographically; the size guard keeps it exact.
    radix = latency ** np.arange(g.n_nodes - 1, -1, -1, dtype=np.int64)
    best_obj, best_key, best = float("inf"), 0, None
    for block in legal_blocks(cg):
        peak, comm, _ = score_block(g, cg, block, latency)
        obj = comm + ratio * peak
        key = block @ radix
        i = 0
        while i < len(obj):
            # The first row from i on that beats the best, which moves only
            # there; nothing ties the first best, inf.
            rest = obj[i:]
            wins = (rest < best_obj - 1e-12) | (
                (np.abs(rest - best_obj) <= 1e-12) & (key[i:] < best_key))
            hit = wins.argmax()
            if not wins[hit]:
                break
            i += hit
            best_obj, best_key, best = float(obj[i]), key[i], block[i]
            i += 1
    assert best is not None
    return dict(zip((n.id for n in g.nodes), best.tolist())), best_obj


def greedy_balance(g: SchedGraph, latency: int, ratio: float) -> dict[str, int]:
    """List-scheduling-style heuristic: place nodes in topological order,
    each at the legal stage minimizing the objective of the partial
    placement. Deterministic; ties go to the earliest stage.

    In topological order a node's parents are placed and its children are
    not, so placing it completes exactly its in-edges: a candidate stage
    costs the current boundaries plus those edges' crossings, and the peak
    of the current stage memories with the node added at that stage.
    """
    order, earliest, hi = stage_bounds(g, latency)
    _require_feasible(latency, 1 + max(earliest, default=0))
    in_edges: list[list[tuple[int, int, float]]] = [[] for _ in g.nodes]
    for e in g.edges:
        in_edges[g.node_index(e.dst)].append((g.node_index(e.src), e.sdc_c, e.comm))

    stages = [0] * g.n_nodes
    stage_mem = [0.0] * latency
    boundary = [0.0] * max(latency - 1, 0)
    for v in order:
        ins = in_edges[v]
        lo = 0
        for u, c, _ in ins:
            lo = max(lo, stages[u] - c)
        mem = g.nodes[v].mem
        peak = max(stage_mem)
        placed = sum(boundary)
        best_s, best_cost = lo, float("inf")
        for s in range(lo, hi[v] + 1):
            comm = placed
            for u, _, w in ins:
                comm += w * max(0, s - stages[u])
            cost = comm + ratio * max(peak, stage_mem[s] + mem, 0.0)
            if cost < best_cost - 1e-12:
                best_cost, best_s = cost, s
        stages[v] = best_s
        stage_mem[best_s] += mem
        for u, _, w in ins:
            for i in range(stages[u], best_s):
                boundary[i] += w
    return {n.id: stages[i] for i, n in enumerate(g.nodes)}


# --- ILP export -------------------------------------------------------------


@dataclass
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class IlpModel:
    variables: dict[str, str] = field(default_factory=dict)  # name -> binary|continuous
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)

    def add_var(self, name: str, kind: str):
        self.variables[name] = kind

    def add_constraint(self, name: str, coeffs: dict[str, float], sense: str, rhs: float):
        for var in coeffs:
            if var not in self.variables:
                raise KeyError(f"constraint {name}: undeclared variable {var}")
        self.constraints.append(Constraint(name, coeffs, sense, rhs))


def export_ilp(g: SchedGraph, latency: int, ratio: float) -> tuple[IlpModel, str]:
    """Build the exact 0/1 program and render it in LP file format.

    Binary s_<node>_<stage> pick one stage per node; dependency rows encode
    the difference constraints on the stage values; r_<stage> and r capture
    per-stage and peak memory; boundary crossings use one McCormick-
    linearized product binary y_<edge>_<boundary> per edge and boundary.
    Nodes and edges are named by index, so any id gives valid LP names; the
    file opens with a comment line per node that maps its index to its id.
    """
    model = IlpModel()

    def svar(v: int, j: int) -> str:
        return f"s_{v}_{j}"

    for v in range(g.n_nodes):
        for j in range(latency):
            model.add_var(svar(v, j), "binary")
    model.add_var("r", "continuous")
    for j in range(latency):
        model.add_var(f"r_{j}", "continuous")
    if g.edges:
        for i in range(latency - 1):
            model.add_var(f"m_{i}", "continuous")
        for b in range(len(g.edges)):
            for i in range(latency - 1):
                model.add_var(f"y_{b}_{i}", "binary")

    # one stage per node
    for v in range(g.n_nodes):
        model.add_constraint(f"sel_{v}", {svar(v, j): 1.0 for j in range(latency)}, "=", 1.0)
    ends = [(g.node_index(e.src), g.node_index(e.dst)) for e in g.edges]
    # dependency rows on the stage values sum(j * s_ij)
    for b, ((u, v), e) in enumerate(zip(ends, g.edges)):
        coeffs: dict[str, float] = {}
        for j in range(1, latency):
            coeffs[svar(u, j)] = coeffs.get(svar(u, j), 0.0) + float(j)
            coeffs[svar(v, j)] = coeffs.get(svar(v, j), 0.0) - float(j)
        model.add_constraint(f"dep_{b}", coeffs, "<=", float(e.sdc_c))
    # stage memory and peak
    for j in range(latency):
        coeffs = {svar(v, j): node.mem for v, node in enumerate(g.nodes) if node.mem != 0.0}
        coeffs[f"r_{j}"] = -1.0
        model.add_constraint(f"mem_{j}", coeffs, "=", 0.0)
        model.add_constraint(f"peak_{j}", {f"r_{j}": 1.0, "r": -1.0}, "<=", 0.0)
    # boundary crossings: y >= A + B - 1, y <= A, y <= B
    for i in range(latency - 1 if g.edges else 0):
        comm_coeffs: dict[str, float] = {f"m_{i}": 1.0}
        for b, ((u, v), e) in enumerate(zip(ends, g.edges)):
            y = f"y_{b}_{i}"
            a_coeffs = {svar(u, a): 1.0 for a in range(i + 1)}
            b_coeffs = {svar(v, h): 1.0 for h in range(i + 1, latency)}
            model.add_constraint(
                f"lin1_{b}_{i}", {**a_coeffs, **b_coeffs, y: -1.0}, "<=", 1.0
            )
            model.add_constraint(
                f"lin2_{b}_{i}", {y: 1.0, **{k: -v for k, v in a_coeffs.items()}}, "<=", 0.0
            )
            model.add_constraint(
                f"lin3_{b}_{i}", {y: 1.0, **{k: -v for k, v in b_coeffs.items()}}, "<=", 0.0
            )
            if e.comm != 0.0:
                comm_coeffs[y] = comm_coeffs.get(y, 0.0) - e.comm
        model.add_constraint(f"comm_{i}", comm_coeffs, "=", 0.0)

    model.objective = {"r": ratio}
    for i in range(latency - 1 if g.edges else 0):
        model.objective[f"m_{i}"] = 1.0
    legend = "".join(f"\\ node {v}: {json.dumps(node.id)}\n" for v, node in enumerate(g.nodes))
    return model, legend + render_lp(model)


def _num(x: float) -> str:
    """Decimal rendering without exponent notation, for bit-stable files."""
    if x == int(x):
        return str(int(x))
    return f"{x:.12f}".rstrip("0")


def _render_expr(coeffs: dict[str, float]) -> str:
    parts = []
    for var, coef in coeffs.items():
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        term = var if mag == 1.0 else f"{_num(mag)} {var}"
        if not parts:
            parts.append(term if sign == "+" else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def render_lp(model: IlpModel) -> str:
    lines = ["Minimize", f" obj: {_render_expr(model.objective)}", "Subject To"]
    for con in model.constraints:
        lines.append(f" {con.name}: {_render_expr(con.coeffs)} {con.sense} {_num(con.rhs)}")
    lines.append("Bounds")
    for name, kind in model.variables.items():
        if kind == "continuous":
            lines.append(f" 0 <= {name}")
    binaries = [name for name, kind in model.variables.items() if kind == "binary"]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def check_ilp_assignment(
    model: IlpModel, assignment: dict[str, float], tol: float = 1e-9
) -> tuple[bool, list[str], float]:
    """Evaluate every constraint and the objective exactly.

    Returns (feasible, violated row names, objective value)."""
    for name in model.variables:
        if name not in assignment:
            raise KeyError(f"assignment missing variable {name}")
    violated = []
    for con in model.constraints:
        lhs = sum(coef * assignment[var] for var, coef in con.coeffs.items())
        ok = (
            lhs <= con.rhs + tol
            if con.sense == "<="
            else lhs >= con.rhs - tol
            if con.sense == ">="
            else abs(lhs - con.rhs) <= tol
        )
        if not ok:
            violated.append(con.name)
    obj = sum(coef * assignment[var] for var, coef in model.objective.items())
    return (not violated), violated, obj


def ilp_assignment_from_schedule(
    g: SchedGraph, latency: int, stages: dict[str, int]
) -> dict[str, float]:
    """Full variable assignment (selection, memory, boundary products)
    consistent with a hard schedule, for injection into the exported ILP."""
    assignment: dict[str, float] = {}
    for v, node in enumerate(g.nodes):
        for j in range(latency):
            assignment[f"s_{v}_{j}"] = 1.0 if stages[node.id] == j else 0.0
    stage_mem = [0.0] * latency
    for node in g.nodes:
        stage_mem[stages[node.id]] += node.mem
    for j in range(latency):
        assignment[f"r_{j}"] = stage_mem[j]
    assignment["r"] = max(stage_mem) if stage_mem else 0.0
    if g.edges:
        for i in range(latency - 1):
            m_i = 0.0
            for b, e in enumerate(g.edges):
                crossing = 1.0 if stages[e.src] <= i < stages[e.dst] else 0.0
                assignment[f"y_{b}_{i}"] = crossing
                m_i += e.comm * crossing
            assignment[f"m_{i}"] = m_i
    return assignment
