"""Exact and heuristic comparison machinery.

brute_force is the ground-truth oracle for small instances; asap/alap and
greedy_balance are fast comparison schedules; export_ilp emits the full
0/1 integer program (LP file format) with the bilinear boundary-crossing
terms linearized, for use with any external solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import InfeasibleError, SchedGraph, earliest_stages, stage_bounds
from .losses import discrete_metrics

_BRUTE_FORCE_LIMIT = 10**7


def _require_feasible(latency: int, earliest: list[int]) -> None:
    l_min = 1 + max(earliest, default=0)
    if latency < l_min:
        raise InfeasibleError(f"latency {latency} below minimum feasible {l_min}")


def asap(g: SchedGraph, latency: int) -> dict[str, int]:
    """Every node at its minimum legal stage."""
    lo = earliest_stages(g)
    _require_feasible(latency, lo)
    return {n.id: lo[i] for i, n in enumerate(g.nodes)}


def alap(g: SchedGraph, latency: int) -> dict[str, int]:
    """Every node at its maximum legal stage, working back from L-1."""
    _, earliest, hi = stage_bounds(g, latency)
    _require_feasible(latency, earliest)
    return {n.id: hi[i] for i, n in enumerate(g.nodes)}


def brute_force(
    g: SchedGraph, latency: int, ratio: float
) -> tuple[dict[str, int], float]:
    """Exhaustive DFS over stage assignments in topological order, pruning
    branches that violate a difference constraint or strand a successor.
    Ties resolve to the lexicographically smallest stage tuple (node
    declaration order)."""
    if latency ** g.n_nodes > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for brute force: {latency}^{g.n_nodes} assignments"
        )
    order, earliest, hi = stage_bounds(g, latency)
    _require_feasible(latency, earliest)
    preds = g.predecessors()
    n = g.n_nodes

    stages = [0] * n
    best_obj = float("inf")
    best: list[int] | None = None

    def evaluate() -> float:
        return discrete_metrics(g, list(stages), latency, ratio).lp_objective

    def dfs(pos: int):
        nonlocal best_obj, best
        if pos == n:
            obj = evaluate()
            decl = list(stages)
            if obj < best_obj - 1e-12 or (
                abs(obj - best_obj) <= 1e-12 and best is not None and decl < best
            ):
                best_obj = obj
                best = decl
            return
        v = order[pos]
        lo = 0
        for u, c in preds[v]:
            lo = max(lo, stages[u] - c)
        for s in range(lo, hi[v] + 1):
            stages[v] = s
            dfs(pos + 1)

    dfs(0)
    assert best is not None
    return {node.id: best[i] for i, node in enumerate(g.nodes)}, best_obj


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
    _require_feasible(latency, earliest)
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
    """
    model = IlpModel()

    def svar(node_id: str, j: int) -> str:
        return f"s_{node_id}_{j}"

    for node in g.nodes:
        for j in range(latency):
            model.add_var(svar(node.id, j), "binary")
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
    for node in g.nodes:
        model.add_constraint(
            f"sel_{node.id}",
            {svar(node.id, j): 1.0 for j in range(latency)},
            "=",
            1.0,
        )
    # dependency rows on the stage values sum(j * s_ij)
    for b, e in enumerate(g.edges):
        coeffs: dict[str, float] = {}
        for j in range(1, latency):
            coeffs[svar(e.src, j)] = coeffs.get(svar(e.src, j), 0.0) + float(j)
            coeffs[svar(e.dst, j)] = coeffs.get(svar(e.dst, j), 0.0) - float(j)
        model.add_constraint(f"dep_{b}", coeffs, "<=", float(e.sdc_c))
    # stage memory and peak
    for j in range(latency):
        coeffs = {svar(node.id, j): node.mem for node in g.nodes if node.mem != 0.0}
        coeffs[f"r_{j}"] = -1.0
        model.add_constraint(f"mem_{j}", coeffs, "=", 0.0)
        model.add_constraint(f"peak_{j}", {f"r_{j}": 1.0, "r": -1.0}, "<=", 0.0)
    # boundary crossings: y >= A + B - 1, y <= A, y <= B
    for i in range(latency - 1 if g.edges else 0):
        comm_coeffs: dict[str, float] = {f"m_{i}": 1.0}
        for b, e in enumerate(g.edges):
            y = f"y_{b}_{i}"
            a_coeffs = {svar(e.src, a): 1.0 for a in range(i + 1)}
            b_coeffs = {svar(e.dst, h): 1.0 for h in range(i + 1, latency)}
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
    return model, render_lp(model)


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
    sense_txt = {"<=": "<=", ">=": ">=", "=": "="}
    for con in model.constraints:
        lines.append(
            f" {con.name}: {_render_expr(con.coeffs)} {sense_txt[con.sense]} {_num(con.rhs)}"
        )
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
    for node in g.nodes:
        for j in range(latency):
            assignment[f"s_{node.id}_{j}"] = 1.0 if stages[node.id] == j else 0.0
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
