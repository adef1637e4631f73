"""Gradient-descent scheduling loop.

The graph is compiled once per run into arrays, from one topological pass:
the order, the minimum feasible latency, ALAP caps, the memory vector, and
the endpoints, constants and costs of the edges. Each epoch is then
whole-matrix work on the |V| x L logit matrix:

- draw the Gumbel noise as one block (row k goes to the k-th node in
  topological order);
- take each node's stage as the argmax of (logits + noise) / tau inside the
  window its parents' stages and its ALAP cap allow (the Gumbel-max trick,
  Jang et al., arXiv:1611.01144, restricted to the window), so every hard
  schedule is legal. Whole-graph sweeps re-place the nodes whose window
  floor rose until none does; the result is what a walk in topological
  order gives;
- evaluate the training loss lam * spread + comm on the hard one-hots and
  form its straight-through gradient in closed form (Bengio et al.,
  arXiv:1308.3432): the adjoint of the one-hots, masked to each node's
  window and pulled back through the row-wise tempered softmax Y of logits
  plus noise. The comm adjoint reaches the edge endpoints by one
  ``np.bincount`` over a flat cell index compiled with the graph, in the
  order an ``np.add.at`` over the sources and an ``np.subtract.at`` over the
  destinations would add it, so with the same bits;
- take an Adam/AdamW step on the logits;
- score the hard schedule (peak memory, boundary communication, LP
  objective) on the compiled edge arrays, with the bits of
  ``losses.discrete_metrics``.

The |V| x L temporaries (the Gumbel transform, the softmax, the windowed
logits, the gradient's pull-back and Adam's moments and step) are written in
place in the operation order of the textbook formulas, so an epoch
allocates few large arrays and every result keeps its bits. The sampler
returns the stages as an intp array, which ``run`` turns into a list once
per epoch.

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
from functools import lru_cache

import numpy as np

from .graph import InfeasibleError, SchedGraph, check_legal, stage_bounds

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


def init_params(cg: CompiledGraph, config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Logit matrix |V| x L. Source nodes get a bias toward stage 0; all
    other rows start as small uniform noise."""
    weights = rng.uniform(-0.5, 0.5, size=(len(cg.order), config.L))
    source = np.ones(len(cg.order), dtype=bool)
    source[cg.e_dst] = False
    weights[source] = 0.0
    weights[source, 0] = config.init_bias
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
    decoupled (AdamW) decay before the Adam delta. Returns the new weights;
    ``state.m`` and ``state.v`` are updated in place.

    Computes weights - lr * m_hat / (sqrt(v_hat) + eps) with the textbook
    operation order, so each element has the bits of the out-of-place form.
    """
    if weight_decay:
        weights = weights * (1.0 - lr * weight_decay)
    state.t += 1
    m, v = state.m, state.v
    buf = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += buf
    np.multiply(grad, 1.0 - beta2, out=buf)
    buf *= grad
    v *= beta2
    v += buf
    np.divide(v, 1.0 - beta2 ** state.t, out=buf)  # v_hat
    np.sqrt(buf, out=buf)
    buf += eps
    step = np.divide(m, 1.0 - beta1 ** state.t)  # m_hat
    step *= lr
    step /= buf
    return np.subtract(weights, step, out=step)


@dataclass(frozen=True)
class CompiledGraph:
    """Array form of a graph at one latency; nodes by declaration index."""

    order: np.ndarray  # topological order
    l_min: int  # minimum feasible latency
    hi: np.ndarray  # ALAP cap per node
    mem: np.ndarray
    total_mem: float
    e_src: np.ndarray  # endpoints, sdc constants and costs of every edge, in edge order
    e_dst: np.ndarray
    e_c: np.ndarray
    e_comm: np.ndarray
    src: np.ndarray  # endpoints and costs of the comm != 0 edges
    dst: np.ndarray
    comm: np.ndarray
    total_comm: float
    cell_stage: np.ndarray  # stage of each cell of a flattened |V| x L matrix
    window_penalty: tuple[np.ndarray, np.ndarray]  # (cap, floor), see sample_stages
    # The comm adjoint's scatter, see loss_and_grad: the flat cells v * L + i
    # of every comm != 0 edge's source, then of its destination, edge-major;
    # the weights +comm, -comm of the two halves, shape (2, E, 1); and the
    # (2, E, L) block that every call overwrites. Reusing the block keeps a
    # large graph's epoch from mapping fresh pages for it on each call.
    comm_cells: np.ndarray
    signed_comm: np.ndarray
    comm_block: np.ndarray


@lru_cache(maxsize=16)
def _window_penalty(latency: int) -> tuple[np.ndarray, np.ndarray]:
    """(cap, floor) of ``sample_stages``: row k is -inf past stage k, resp.
    before it, and 0 elsewhere. Read-only, since every graph at this latency
    shares them."""
    stage = np.arange(latency)
    tables = (np.where(stage > stage[:, None], -np.inf, 0.0),
              np.where(stage < stage[:, None], -np.inf, 0.0))
    for t in tables:
        t.setflags(write=False)
    return tables


def compile_graph(g: SchedGraph, latency: int) -> CompiledGraph:
    order, earliest, hi = stage_bounds(g, latency)
    index = g.node_index
    e_src = np.array([index(e.src) for e in g.edges], dtype=np.intp)
    e_dst = np.array([index(e.dst) for e in g.edges], dtype=np.intp)
    comm = np.array([e.comm for e in g.edges], dtype=np.float64)
    live = comm != 0.0
    src, dst, live_comm = e_src[live], e_dst[live], comm[live]
    stage = np.arange(latency)
    return CompiledGraph(
        order=np.array(order, dtype=np.intp),
        l_min=1 + max(earliest, default=0),
        hi=np.array(hi, dtype=np.intp),
        mem=np.array([n.mem for n in g.nodes], dtype=np.float64),
        total_mem=float(sum(n.mem for n in g.nodes)),
        e_src=e_src,
        e_dst=e_dst,
        e_c=np.array([e.sdc_c for e in g.edges], dtype=np.intp),
        e_comm=comm,
        src=src,
        dst=dst,
        comm=live_comm,
        total_comm=float(sum(e.comm for e in g.edges)),
        cell_stage=np.tile(stage, g.n_nodes),
        window_penalty=_window_penalty(latency),
        comm_cells=(np.concatenate([src, dst])[:, None] * latency + stage).ravel(),
        signed_comm=np.stack([live_comm, -live_comm])[:, :, None],
        comm_block=np.empty((2, len(live_comm), latency)),
    )


def gumbel_noise(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """i.i.d. standard Gumbel(0,1) draws via -log(-log(U)) of the given shape.

    One (V, L) draw consumes the stream exactly as V draws of length L do,
    row by row.
    """
    u = rng.uniform(size=size)
    np.clip(u, _U_CLAMP, 1.0 - _U_CLAMP, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def sample_stages(
    cg: CompiledGraph, weights: np.ndarray, tau: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one legal hard schedule; returns (stages, y, lo), stages as an
    intp array by declaration index.

    Each node's stage is the argmax (first on ties) of (logits + noise) / tau
    over its window ``[lo, hi]``: ``lo`` is the lowest stage its parents'
    stages allow, ``hi`` its ALAP cap. ``y`` is the row-wise tempered softmax
    of logits plus noise, kept for the gradient only.

    The stages are the fixed point of whole-graph sweeps: the first places
    every node over ``[0, hi]``; each later one recomputes ``lo`` over all
    edges and re-places only the nodes below it. A stage only rises, and the
    first argmax over a window with a higher floor is never earlier, so no
    stage passes the one a walk in topological order would give; at the
    fixed point every stage is the first argmax over its final window, which
    is that walk's recurrence. A DAG settles within depth + 1 sweeps.
    Raises, as that walk would at the first node in topological order that
    fails, InfeasibleError for an empty window and ValueError for a
    non-finite row.
    """
    n, latency = weights.shape
    if n != len(cg.order):
        raise ValueError("weight matrix row count does not match node count")
    # z = (logits + noise) / tau, written over the noise block
    z = np.empty_like(weights)
    z[cg.order] = gumbel_noise(rng, (n, latency))
    z += weights
    z /= tau
    y = np.subtract(z, z.max(axis=1, keepdims=True))
    np.exp(y, out=y)
    row_sum = y.sum(axis=1, keepdims=True)  # finite iff the row of y is
    y /= row_sum

    # cap[k] is -inf past stage k and floor[k] before it, so rows hi and lo
    # added to z leave the window. Clipping keeps a cap below 0 or a floor
    # past the last stage in range; such a window is empty, and its node
    # fails below.
    cap, floor = cg.window_penalty
    capped = z
    capped += cap.take(cg.hi, axis=0, mode="clip")
    stages = capped.argmax(axis=1)
    while True:
        lo = np.zeros(n, dtype=np.intp)
        np.maximum.at(lo, cg.e_dst, stages[cg.e_src] - cg.e_c)
        moved = (lo > stages).nonzero()[0]
        if not moved.size:
            break
        low = lo[moved]
        window = capped[moved]
        window += floor.take(low, axis=0, mode="clip")
        # An empty window leaves the node at lo, so that stages still rise
        # and the sweeps settle; the error is raised once they have.
        stages[moved] = np.maximum(window.argmax(axis=1), low)
    bad = lo > cg.hi
    if bad.any() or not np.isfinite(row_sum).all():
        raise _first_failure(cg, stages, lo, bad, y, latency)
    return stages, y, lo


def _first_failure(
    cg: CompiledGraph, stages: np.ndarray, lo: np.ndarray, bad: np.ndarray,
    y: np.ndarray, latency: int,
) -> ValueError:
    """The error of the first node in topological order with an empty window
    or a non-finite row. Its ancestors are free of both, so their stages and
    its ``lo`` are the walk's; the window is checked before the row, and the
    first in-edge needing a stage past the last is named."""
    failing = bad | ~np.isfinite(y).all(axis=1)
    position = np.empty(len(stages), dtype=np.intp)
    position[cg.order] = np.arange(len(stages))
    candidates = np.flatnonzero(failing)
    v = candidates[position[candidates].argmin()]
    if not bad[v]:
        return ValueError("sample_stages: non-finite input (logits or noise)")
    into = cg.e_dst == v
    need = stages[cg.e_src[into]] - cg.e_c[into]
    past = need[need >= latency]
    if past.size:
        return InfeasibleError(
            f"constraint needs stage {int(past[0])} but only {latency} stages exist"
        )
    return InfeasibleError("combined constraint mask has no feasible stage")


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
    straight-through one. Overwrites ``cg.comm_block``, so calls on one
    compiled graph must not overlap.
    """
    n, latency = s.shape

    spread = 0.0
    if cg.total_mem > 0.0:
        inv_m = 1.0 / cg.total_mem
        # Sums each stage over the nodes in index order, as a bincount of
        # the hard stages does, so one-hot rows give the same bits.
        q = np.bincount(
            cg.cell_stage, weights=(cg.mem[:, None] * s).ravel(), minlength=latency
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
        # One (2, E, L) block: "after" = 1 - cum[dst], the edge destination
        # after boundary i, then "before" = cum[src], the source at or
        # before it. The endpoints are in range; mode="clip" only lets take
        # write into the block without a buffer.
        buf = cg.comm_block
        after, before = buf
        np.take(cum, cg.dst, axis=0, out=after, mode="clip")
        np.subtract(1.0, after, out=after)
        after[:, -1] = 0.0  # the boundaries are 0..L-2
        np.take(cum, cg.src, axis=0, out=before, mode="clip")
        comm = float(cg.comm @ np.einsum("ij,ij->i", before, after)) * inv_c
        # Adjoints of cum at the edge ends: w * after at the source, -w *
        # before at the destination, w = comm / total comm. One bincount
        # over the source cells, then the destination cells, adds each
        # cell's terms in that order, starting from 0.
        buf *= cg.signed_comm * inv_c
        before[:, -1] = 0.0
        g_cum = np.bincount(cg.comm_cells, weights=buf.ravel(), minlength=n * latency)
        g_cum = g_cum.reshape(n, latency)
        grad += g_cum[:, ::-1].cumsum(axis=1)[:, ::-1]

    cols = np.arange(latency)
    grad *= (cols >= lo[:, None]) & (cols <= cg.hi[:, None])
    inner = grad[:, None, :] @ y[:, :, None]  # row-wise <grad, y>, as 1-D dots
    grad -= inner[:, 0]
    grad *= y
    grad /= tau
    return spread * lam + comm, spread, comm, grad


def _score(
    g: SchedGraph, cg: CompiledGraph, stages: np.ndarray, latency: int
) -> tuple[float, float]:
    """(peak_mem, comm_total) of a hard schedule, with the bits of
    ``losses.discrete_metrics``: stage memory and each boundary are summed
    in node and edge order, and the boundaries by a Python sum."""
    a = stages[cg.e_src]
    rise = stages[cg.e_dst] - a
    if stages.size and (
        (rise + cg.e_c < 0).any() or stages.min() < 0 or stages.max() >= latency
    ):
        named = {n.id: s for n, s in zip(g.nodes, stages.tolist())}
        raise ValueError("illegal schedule: " + "; ".join(check_legal(g, named, latency)))
    # float(): a bincount over no nodes is integer
    peak_mem = float(max(np.bincount(stages, weights=cg.mem, minlength=latency).tolist()))
    # Edge k crosses boundaries a_k .. a_k + span_k - 1; listed edge-major,
    # each boundary adds its edges in edge order. Edges without cost add
    # +0.0, which leaves every sum's bits as they are.
    span = np.maximum(rise, 0)
    end = np.cumsum(span)
    crossed = np.arange(end[-1] if end.size else 0) - np.repeat(end - span - a, span)
    comm = np.bincount(crossed, weights=np.repeat(cg.e_comm, span), minlength=latency - 1)
    return peak_mem, float(sum(comm.tolist()))


def run(g: SchedGraph, config: RunConfig, on_epoch=None) -> RunResult:
    """Full optimization run; deterministic given (graph, config, seed)
    apart from the recorded wall-clock times.

    ``on_epoch``, if given, is called with (epoch, stages) after every
    epoch's hard schedule is drawn; stages are indexed by declaration order.
    """
    config.validate()
    cg = compile_graph(g, config.L)
    if config.L < cg.l_min:
        raise InfeasibleError(
            f"latency {config.L} below minimum feasible latency {cg.l_min}"
        )

    rng = np.random.default_rng(config.seed)
    weights = init_params(cg, config, rng)
    state = AdamState(m=np.zeros_like(weights), v=np.zeros_like(weights))
    wd = config.weight_decay if config.optimizer == "adamw" else 0.0
    onehot = np.eye(config.L)

    best_obj = float("inf")
    best_stages: list[int] = []
    trajectory: list[TrajectoryPoint] = []
    t0 = time.monotonic()

    for epoch in range(config.epochs):
        if config.timeout_ms is not None:
            if (time.monotonic() - t0) * 1000.0 > config.timeout_ms:
                break
        tau = tau_schedule(epoch, config.epochs, config.tau_start, config.tau_end)
        hard, y, lo = sample_stages(cg, weights, tau, rng)
        stages = hard.tolist()
        if on_epoch is not None:
            on_epoch(epoch, stages)
        total, l_spread, l_comm, grad = loss_and_grad(
            cg, onehot[hard], y, lo, tau, config.lam
        )
        weights = adam_step(weights, grad, state, config.lr, weight_decay=wd)

        peak_mem, comm_total = _score(g, cg, hard, config.L)
        lp_objective = comm_total + config.ratio * peak_mem
        if lp_objective < best_obj:
            best_obj = lp_objective
            best_stages = stages
        trajectory.append(
            TrajectoryPoint(
                epoch=epoch,
                wall_ms=int((time.monotonic() - t0) * 1000.0),
                loss_total=total,
                loss_entropy=l_spread,
                loss_comm=l_comm,
                peak_mem=peak_mem,
                comm_total=comm_total,
                lp_objective=lp_objective,
                best_so_far=best_obj,
            )
        )
    return RunResult(
        best_schedule={n.id: s for n, s in zip(g.nodes, best_stages)},
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
