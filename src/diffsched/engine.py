"""Gradient-descent scheduling loop.

The graph is compiled once per run into arrays: topological order,
predecessor lists, ALAP caps, the memory vector, and the endpoints and costs
of the edges that carry communication. Each epoch is then whole-matrix work
on the |V| x L logit matrix:

- draw the Gumbel noise as one block (row k goes to the k-th node in
  topological order);
- walk the nodes in topological order and take each one's stage as the
  argmax of (logits + noise) / tau inside the window its placed
  predecessors and its ALAP cap allow, so every hard schedule is legal;
- evaluate the training loss lam * spread + comm on the hard one-hots and
  form its straight-through gradient in closed form (Bengio et al.,
  arXiv:1308.3432): the adjoint of the one-hots, masked to each node's
  window and pulled back through the row-wise tempered softmax Y of logits
  plus noise;
- take an Adam/AdamW step on the logits.

``loss_and_grad`` accepts any stage-probability matrix. At mask * Y it
returns the exact gradient of the relaxed loss, which is what the tests
check against central finite differences.

The best schedule is tracked by the discrete LP objective
(comm_total + ratio * peak_mem), not by the training loss, since the loss is
a surrogate.

The entropy term is trained in its spread-seeking form (ln L minus the
stage-memory entropy): driving memory toward an even split is what lowers
peak memory, which a large ratio/lambda prioritizes.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import (
    InfeasibleError,
    SchedGraph,
    _kahn_order,
    latest_stages,
    min_feasible_latency,
)
from .losses import discrete_metrics

# Uniform draws are clamped away from {0, 1} before the double-log transform.
_U_CLAMP = 1e-12
# Memory shares that round to exactly zero are clamped before the log so
# that 0*log(0) terms contribute 0 (error < 1e-28, below every tolerance).
_LOG_FLOOR = 1e-30


@dataclass
class RunConfig:
    L: int
    epochs: int = 500
    lr: float = 0.05
    lam: float = 10.0
    ratio: float = 10.0
    tau_start: float = 1.0
    tau_end: float = 0.1
    optimizer: str = "adam"  # "adam" | "adamw"
    weight_decay: float = 0.01
    seed: int = 0
    init_bias: float = 3.0
    timeout_ms: int | None = None

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (self.tau_start >= self.tau_end > 0):
            raise ValueError("need tau_start >= tau_end > 0")
        if self.optimizer not in ("adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lam < 0 or self.ratio < 0:
            raise ValueError("lambda and ratio must be nonnegative")


@dataclass
class TrajectoryPoint:
    epoch: int
    wall_ms: int
    loss_total: float
    loss_entropy: float
    loss_comm: float
    peak_mem: float
    comm_total: float
    lp_objective: float
    best_so_far: float


@dataclass
class RunResult:
    best_schedule: dict[str, int]
    best_objective: float
    trajectory: list[TrajectoryPoint] = field(default_factory=list)
    config: RunConfig | None = None


def tau_schedule(epoch: int, epochs: int, tau_start: float, tau_end: float) -> float:
    """Exponential interpolation from tau_start to tau_end over all epochs."""
    if epochs <= 1:
        return tau_start
    return tau_start * (tau_end / tau_start) ** (epoch / (epochs - 1))


def init_params(g: SchedGraph, config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Logit matrix |V| x L. Source nodes get a bias toward stage 0; all
    other rows start as small uniform noise."""
    n = g.n_nodes
    weights = rng.uniform(-0.5, 0.5, size=(n, config.L))
    has_pred = [False] * n
    for e in g.edges:
        has_pred[g.node_index(e.dst)] = True
    for v in range(n):
        if not has_pred[v]:
            weights[v] = 0.0
            weights[v, 0] = config.init_bias
    return weights


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(
    weights: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """One Adam step with bias correction; nonzero weight_decay applies the
    decoupled (AdamW) decay before the Adam delta."""
    if weight_decay:
        weights = weights * (1.0 - lr * weight_decay)
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    return weights - lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass(frozen=True)
class CompiledGraph:
    """Array form of a graph at one latency; nodes by declaration index."""

    order: list[int]  # topological order
    preds: list[list[tuple[int, int]]]  # (pred index, sdc c) per node
    hi: np.ndarray  # ALAP cap per node
    mem: np.ndarray
    total_mem: float
    src: np.ndarray  # endpoints and costs of the comm != 0 edges
    dst: np.ndarray
    comm: np.ndarray
    total_comm: float


def compile_graph(g: SchedGraph, latency: int) -> CompiledGraph:
    order = _kahn_order(g)
    if order is None:
        raise ValueError("graph contains a cycle")
    live = [e for e in g.edges if e.comm != 0.0]
    return CompiledGraph(
        order=order,
        preds=g.predecessors(),
        hi=np.array(latest_stages(g, latency), dtype=np.intp),
        mem=np.array([n.mem for n in g.nodes], dtype=np.float64),
        total_mem=float(sum(n.mem for n in g.nodes)),
        src=np.array([g.node_index(e.src) for e in live], dtype=np.intp),
        dst=np.array([g.node_index(e.dst) for e in live], dtype=np.intp),
        comm=np.array([e.comm for e in live], dtype=np.float64),
        total_comm=float(sum(e.comm for e in g.edges)),
    )


def gumbel_noise(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """i.i.d. standard Gumbel(0,1) draws via -log(-log(U)) of the given shape.

    One (V, L) draw consumes the stream exactly as V draws of length L do,
    row by row.
    """
    u = rng.uniform(size=size)
    u = np.clip(u, _U_CLAMP, 1.0 - _U_CLAMP)
    return -np.log(-np.log(u))


def sample_stages(
    cg: CompiledGraph, weights: np.ndarray, tau: float, rng: np.random.Generator
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Draw one legal hard schedule; returns (stages, y, lo).

    Each node's stage is the argmax (first on ties) of (logits + noise) / tau
    over its window ``[lo, hi]``: ``lo`` is the lowest stage its placed
    predecessors allow, ``hi`` its ALAP cap. ``y`` is the row-wise tempered
    softmax of logits plus noise, kept for the gradient only. Raises
    InfeasibleError for an empty window and ValueError for a non-finite row.
    """
    n, latency = weights.shape
    if n != len(cg.order):
        raise ValueError("weight matrix row count does not match node count")
    noise = np.empty_like(weights)
    noise[cg.order] = gumbel_noise(rng, (n, latency))
    z = (weights + noise) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)

    rows = z.tolist()
    finite = np.isfinite(y).all(axis=1).tolist()
    hi = cg.hi.tolist()
    stages = [0] * n
    lo = [0] * n
    for v in cg.order:
        low = 0
        for u, c in cg.preds[v]:
            t = stages[u] - c
            if t >= latency:
                raise InfeasibleError(
                    f"constraint needs stage {t} but only {latency} stages exist"
                )
            if t > low:
                low = t
        if low > hi[v]:
            raise InfeasibleError("combined constraint mask has no feasible stage")
        if not finite[v]:
            raise ValueError("straight_through_onehot: non-finite input")
        window = rows[v][low : hi[v] + 1]
        stages[v] = low + window.index(max(window))
        lo[v] = low
    return stages, y, np.array(lo, dtype=np.intp)


def loss_and_grad(
    cg: CompiledGraph,
    s: np.ndarray,
    y: np.ndarray,
    lo: np.ndarray,
    tau: float,
    lam: float,
) -> tuple[float, float, float, np.ndarray]:
    """Training loss lam * spread + comm of the |V| x L stage-probability
    matrix ``s`` and its gradient w.r.t. the logits.

    Returns (total, spread, comm, grad). spread = ln L + sum q log q over the
    per-stage memory shares q, and 0 on a graph without memory. comm is the
    cost of the crossed boundaries over the total edge cost; an edge crosses
    boundary i < L - 1 by cumsum(s_src)[i] * (1 - cumsum(s_dst)[i]), so the
    adjoint of ``s`` is a reversed cumsum of per-boundary terms scattered
    onto the endpoints. That adjoint is masked to each node's window
    ``[lo, hi]`` and pulled back through the tempered softmax ``y``: for
    s = mask * y the result is the exact gradient, for the hard one-hots the
    straight-through one.
    """
    n, latency = s.shape
    cols = np.arange(latency)

    spread = 0.0
    if cg.total_mem > 0.0:
        inv_m = 1.0 / cg.total_mem
        # Sums each stage over the nodes in index order, as a bincount of
        # the hard stages does, so one-hot rows give the same bits.
        q = np.bincount(
            np.tile(cols, n), weights=(cg.mem[:, None] * s).ravel(), minlength=latency
        ) * inv_m
        q_floor = np.maximum(q, _LOG_FLOOR)
        log_q = np.log(q_floor)
        spread = float((q * log_q).sum()) + math.log(latency)
        dq = lam * log_q + (lam * q) / q_floor * (q >= _LOG_FLOOR)
        grad = cg.mem[:, None] * (dq * inv_m)
    else:
        grad = np.zeros((n, latency))

    comm = 0.0
    if cg.total_comm > 0.0:
        inv_c = 1.0 / cg.total_comm
        cum = s.cumsum(axis=1)
        before = cum[cg.src]  # edge source at or before boundary i
        after = 1.0 - cum[cg.dst]  # edge destination after boundary i
        after[:, -1] = 0.0  # the boundaries are 0..L-2
        comm = float(cg.comm @ np.einsum("ij,ij->i", before, after)) * inv_c
        # Adjoints of cum at the edge ends, formed in place: w * after at
        # the source, -w * before at the destination.
        w = (cg.comm * inv_c)[:, None]
        after *= w
        before *= w
        before[:, -1] = 0.0
        g_cum = np.zeros((n, latency))
        np.add.at(g_cum, cg.src, after)
        np.subtract.at(g_cum, cg.dst, before)
        grad += g_cum[:, ::-1].cumsum(axis=1)[:, ::-1]

    grad *= (cols >= lo[:, None]) & (cols <= cg.hi[:, None])
    inner = grad[:, None, :] @ y[:, :, None]  # row-wise <grad, y>, as 1-D dots
    grad = (grad - inner[:, 0]) * y / tau
    return spread * lam + comm, spread, comm, grad


def run(g: SchedGraph, config: RunConfig, on_epoch=None) -> RunResult:
    """Full optimization run; deterministic given (graph, config, seed)
    apart from the recorded wall-clock times.

    ``on_epoch``, if given, is called with (epoch, stages) after every
    epoch's hard schedule is drawn; stages are indexed by declaration order.
    """
    config.validate()
    l_min = min_feasible_latency(g)
    if config.L < l_min:
        raise InfeasibleError(
            f"latency {config.L} below minimum feasible latency {l_min}"
        )

    cg = compile_graph(g, config.L)
    rng = np.random.default_rng(config.seed)
    weights = init_params(g, config, rng)
    state = AdamState(m=np.zeros_like(weights), v=np.zeros_like(weights))
    wd = config.weight_decay if config.optimizer == "adamw" else 0.0
    onehot = np.eye(config.L)

    best_obj = float("inf")
    best_stages: dict[str, int] = {}
    trajectory: list[TrajectoryPoint] = []
    t0 = time.monotonic()

    for epoch in range(config.epochs):
        if config.timeout_ms is not None:
            if (time.monotonic() - t0) * 1000.0 > config.timeout_ms:
                break
        tau = tau_schedule(epoch, config.epochs, config.tau_start, config.tau_end)
        stages, y, lo = sample_stages(cg, weights, tau, rng)
        if on_epoch is not None:
            on_epoch(epoch, stages)
        total, l_spread, l_comm, grad = loss_and_grad(
            cg, onehot[stages], y, lo, tau, config.lam
        )
        weights = adam_step(weights, grad, state, config.lr, weight_decay=wd)

        metrics = discrete_metrics(g, stages, config.L, config.ratio)
        if metrics.lp_objective < best_obj:
            best_obj = metrics.lp_objective
            best_stages = {n.id: s for n, s in zip(g.nodes, stages)}
        trajectory.append(
            TrajectoryPoint(
                epoch=epoch,
                wall_ms=int((time.monotonic() - t0) * 1000.0),
                loss_total=total,
                loss_entropy=l_spread,
                loss_comm=l_comm,
                peak_mem=metrics.peak_mem,
                comm_total=metrics.comm_total,
                lp_objective=metrics.lp_objective,
                best_so_far=best_obj,
            )
        )
    return RunResult(
        best_schedule=best_stages,
        best_objective=best_obj,
        trajectory=trajectory,
        config=config,
    )


def run_restarts(g: SchedGraph, config: RunConfig, n_seeds: int) -> RunResult:
    """Independent restarts with derived seeds; best objective wins."""
    best: RunResult | None = None
    for i in range(n_seeds):
        result = run(g, replace(config, seed=config.seed + i))
        if best is None or result.best_objective < best.best_objective:
            best = result
    assert best is not None
    return best
