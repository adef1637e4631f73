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
- evaluate the training loss lam * spread + comm on the hard stages and
  form its straight-through gradient in closed form (Bengio et al.,
  arXiv:1308.3432): the adjoint of the one-hot rows, masked to each node's
  window and pulled back through the row-wise tempered softmax Y of logits
  plus noise. At one-hot rows the comm adjoint needs only, per node, the
  cost of the edges whose other end sits at each stage: one ``np.bincount``
  of 2E terms and one (V, L) x (L, L) product with a table cached per
  latency;
- take an Adam/AdamW step on the logits;
- score the hard schedule (peak memory, boundary communication, LP
  objective) as a one-row block of ``score_block``, the one scorer of hard
  schedules, which ``losses`` and ``baselines.brute_force`` call too.

A run owns six |V| x L arrays: the logits, Adam's moments and the three
``EpochBuffers``, which the epoch's temporaries share in turn (the Gumbel
draw, then the gradient; the softmax, then Adam's step; the windowed logits,
then the comm product, the window mask and Adam's denominator). They are
written in the operation order of the textbook formulas, so an epoch
allocates no |V| x L array but the comm adjoint's bincount, and every result
keeps its bits. ``sample_stages``, ``loss_and_grad`` and ``adam_step`` take
the buffers as an optional argument; called without them they allocate new
arrays and leave their inputs alone, so calls may overlap. The sampler
returns the stages as an intp array, which ``run`` passes to
``loss_and_grad`` and turns into a list once per epoch. The relaxed loss of
any stage-probability matrix, whose gradient the tests check against
central finite differences, is the tests' reference.

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
from typing import NamedTuple

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
    buffers: EpochBuffers | None = None,
) -> np.ndarray:
    """One Adam step with bias correction; nonzero weight_decay applies the
    decoupled (AdamW) decay before the Adam delta. ``state.m`` and
    ``state.v`` are updated in place. Returns new weights, or, given
    ``buffers``, ``weights`` itself, updated in place, with the step's
    temporaries in ``buffers.work`` and ``buffers.soft``.

    Computes weights - lr * m_hat / (sqrt(v_hat) + eps) with the textbook
    operation order, so each element has the bits of the out-of-place form.
    """
    if buffers is None:
        buf, step = np.empty_like(weights), np.empty_like(weights)
        out = step
    else:
        buf, step, out = buffers.work, buffers.soft, weights
    state.t += 1
    m, v = state.m, state.v
    np.multiply(grad, 1.0 - beta1, out=buf)
    m *= beta1
    m += buf
    np.multiply(grad, 1.0 - beta2, out=buf)
    buf *= grad
    v *= beta2
    v += buf
    np.divide(v, 1.0 - beta2 ** state.t, out=buf)  # v_hat
    np.sqrt(buf, out=buf)
    buf += eps
    np.divide(m, 1.0 - beta1 ** state.t, out=step)  # m_hat
    step *= lr
    step /= buf
    if weight_decay:
        weights = np.multiply(weights, 1.0 - lr * weight_decay, out=buf)
    return np.subtract(weights, step, out=out)


@dataclass(frozen=True)
class EpochBuffers:
    """The |V| x L arrays an epoch writes, besides the logits and Adam's
    moments: ``run`` makes one set and passes it to every epoch's
    ``sample_stages``, ``loss_and_grad`` and ``adam_step``, so an epoch
    allocates no |V| x L array but the comm adjoint's bincount. Each buffer
    holds in turn values whose lifetimes do not overlap:

    - ``noise``: log(-log U) of the Gumbel draw, then the gradient;
    - ``soft``: the tempered softmax y, then Adam's step;
    - ``work``: z = (logits + noise) / tau and its capped form, then the
      comm adjoint's product with the crossings table, then the window
      mask, then Adam's denominator and the decayed weights.
    """

    noise: np.ndarray
    soft: np.ndarray
    work: np.ndarray

    @classmethod
    def like(cls, weights: np.ndarray) -> EpochBuffers:
        return cls(*(np.empty_like(weights) for _ in range(3)))


@dataclass(frozen=True)
class ScoreArrays:
    """What ``score_block`` reads of a graph at one latency: the memory
    vector, and the endpoints, clamped sdc constants and costs of every
    edge, in edge order; nodes by declaration index."""

    mem: np.ndarray
    e_src: np.ndarray
    e_dst: np.ndarray
    e_c: np.ndarray
    e_comm: np.ndarray


def score_arrays(g: SchedGraph, latency: int) -> ScoreArrays:
    """Stage differences lie in [-(L-1), L-1], so clamping the constants to
    [-L, L] keeps the legal set and fits any input into intp."""
    index = g.node_index
    return ScoreArrays(
        mem=np.array([n.mem for n in g.nodes], dtype=np.float64),
        e_src=np.array([index(e.src) for e in g.edges], dtype=np.intp),
        e_dst=np.array([index(e.dst) for e in g.edges], dtype=np.intp),
        e_c=np.array([e.sdc_c for e in g.edges], dtype=np.float64)
        .clip(-latency, latency).astype(np.intp),
        e_comm=np.array([e.comm for e in g.edges], dtype=np.float64),
    )


@dataclass(frozen=True)
class CompiledGraph(ScoreArrays):
    """Array form of a graph at one latency; nodes by declaration index."""

    order: np.ndarray  # topological order
    l_min: int  # minimum feasible latency
    hi: np.ndarray  # ALAP cap per node
    capped: np.ndarray  # the nodes whose cap is below the last stage
    total_mem: float
    src: np.ndarray  # endpoints and costs of the comm != 0 edges
    dst: np.ndarray
    comm: np.ndarray
    total_comm: float
    # The comm adjoint, see loss_and_grad: the cost of the comm != 0 edges
    # leaving each node over C; and for its bincount, the first cell v * L of
    # each comm != 0 edge's source row, then of its destination row, the node
    # at the other end, and the negated costs over C, both halves.
    out_comm: np.ndarray
    end_cell: np.ndarray
    other_end: np.ndarray
    end_comm: np.ndarray


class StageTables(NamedTuple):
    """Tables at one latency L, read-only, since every graph at this latency
    shares them. ``sample_stages`` adds rows of cap and floor to z to leave
    each node's window; ``loss_and_grad`` multiplies the gradient by rows
    of above and below to mask it to the window."""

    cap: np.ndarray  # row k: -inf past stage k, 0 elsewhere
    floor: np.ndarray  # row k: -inf before stage k, 0 elsewhere
    # [k, j] = max(0, L - 1 - max(j, k)), the boundaries i <= L - 2 at or
    # past both j and k, see loss_and_grad
    crossings: np.ndarray
    above: np.ndarray  # row k <= L: 1 at the stages >= k, 0 elsewhere
    below: np.ndarray  # row k <= L: 1 at the stages < k, 0 elsewhere


@lru_cache(maxsize=16)
def _stage_tables(latency: int) -> StageTables:
    stage = np.arange(latency)
    tables = StageTables(
        cap=np.where(stage > stage[:, None], -np.inf, 0.0),
        floor=np.where(stage < stage[:, None], -np.inf, 0.0),
        crossings=(latency - 1.0 - np.maximum(stage, stage[:, None])).clip(0.0),
        above=(stage >= np.arange(latency + 1)[:, None]).astype(np.float64),
        below=(stage < np.arange(latency + 1)[:, None]).astype(np.float64),
    )
    for t in tables:
        t.setflags(write=False)
    return tables


def compile_graph(g: SchedGraph, latency: int) -> CompiledGraph:
    """Clamping the caps (below 0 only if L < L_min) to -1 keeps the legal
    set and fits any input into intp, as ``score_arrays`` does for the
    constants."""
    order, earliest, hi = stage_bounds(g, latency)
    base = score_arrays(g, latency)
    live = base.e_comm != 0.0
    src, dst, live_comm = base.e_src[live], base.e_dst[live], base.e_comm[live]
    hi = np.array(hi, dtype=np.float64).clip(-1, None).astype(np.intp)
    total_comm = float(sum(e.comm for e in g.edges))
    inv_c = 1.0 / total_comm if total_comm > 0.0 else 0.0
    return CompiledGraph(
        **vars(base),
        order=np.array(order, dtype=np.intp),
        l_min=1 + max(earliest, default=0),
        hi=hi,
        capped=np.flatnonzero(hi < latency - 1),
        total_mem=float(sum(n.mem for n in g.nodes)),
        src=src,
        dst=dst,
        comm=live_comm,
        total_comm=total_comm,
        out_comm=np.bincount(src, weights=live_comm, minlength=g.n_nodes) * inv_c,
        end_cell=np.concatenate([src, dst]) * latency,
        other_end=np.concatenate([dst, src]),
        end_comm=-np.concatenate([live_comm, live_comm]) * inv_c,
    )


def _log_neg_log_uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """log(-log U) of uniform draws U that fill ``out`` in row-major
    order, i.e. minus i.i.d. standard Gumbel(0,1) draws; returns ``out``."""
    rng.random(out=out)
    np.clip(out, _U_CLAMP, 1.0 - _U_CLAMP, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    return np.log(out, out=out)


def gumbel_noise(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """i.i.d. standard Gumbel(0,1) draws via -log(-log(U)) of the given shape.

    One (V, L) draw consumes the stream exactly as V draws of length L do,
    row by row, and as ``sample_stages`` does.
    """
    return np.negative(_log_neg_log_uniform(rng, np.empty(size)))


def sample_stages(
    cg: CompiledGraph, weights: np.ndarray, tau: float, rng: np.random.Generator,
    buffers: EpochBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one legal hard schedule; returns (stages, y, lo), stages as an
    intp array by declaration index.

    Each node's stage is the argmax (first on ties) of (logits + noise) / tau
    over its window ``[lo, hi]``: ``lo`` is the lowest stage its parents'
    stages allow, ``hi`` its ALAP cap. ``y`` is the row-wise tempered softmax
    of logits plus noise, kept for the gradient only. Given ``buffers``, the
    noise and z are written into them and ``y`` is ``buffers.soft``;
    otherwise every array is new.

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
    if buffers is None:
        buffers = EpochBuffers.like(weights)
    # z = (logits + noise) / tau, the noise's rows in topological order;
    # logits - log(-log U) has the bits of logits + -log(-log U)
    z, y = buffers.work, buffers.soft
    z[cg.order] = _log_neg_log_uniform(rng, buffers.noise)
    np.subtract(weights, z, out=z)
    z /= tau
    # The row maximum column by column: a maximum is exact in any order, and
    # L column calls beat one row-wise reduction of V rows of L.
    peak = z.max(axis=1) if latency < 2 else np.maximum(z[:, 0], z[:, 1])
    for j in range(2, latency):
        np.maximum(peak, z[:, j], out=peak)
    np.subtract(z, peak[:, None], out=y)
    np.exp(y, out=y)
    row_sum = y.sum(axis=1, keepdims=True)  # finite iff the row of y is
    y /= row_sum

    # Row k of cap is -inf past stage k and of floor before it, so rows hi
    # and lo added to z leave the window; a node without a cap below the
    # last stage needs no row. Clipping keeps a cap below 0 or a floor past
    # the last stage in range; such a window is empty, and its node fails
    # below.
    tables = _stage_tables(latency)
    capped = z
    if cg.capped.size:
        capped[cg.capped] += tables.cap.take(cg.hi.take(cg.capped), axis=0, mode="clip")
    stages = capped.argmax(axis=1)
    while True:
        lo = np.zeros(n, dtype=np.intp)
        np.maximum.at(lo, cg.e_dst, stages[cg.e_src] - cg.e_c)
        moved = (lo > stages).nonzero()[0]
        if not moved.size:
            break
        low = lo[moved]
        window = capped[moved]
        window += tables.floor.take(low, axis=0, mode="clip")
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
    t: np.ndarray,
    y: np.ndarray,
    lo: np.ndarray,
    tau: float,
    lam: float,
    buffers: EpochBuffers | None = None,
) -> tuple[float, float, float, np.ndarray]:
    """Training loss lam * spread + comm of the hard stages ``t`` (intp, by
    declaration index) and its straight-through gradient w.r.t. the logits.

    Returns (total, spread, comm, grad). spread = ln L + sum q log q over the
    per-stage memory shares q, and 0 on a graph without memory. comm is the
    cost of the crossed boundaries, sum comm * max(0, t_dst - t_src), over
    the total edge cost C.

    The gradient is the relaxed loss's at the one-hot rows s of ``t``: there
    an edge crosses boundary i < L - 1 by cumsum(s_src)[i] * (1 -
    cumsum(s_dst)[i]), so the adjoint of s[v, j] sums the factor of the other
    end over the boundaries i >= j. An edge from v to stage k gives comm *
    max(0, k - j) = comm * (B[0, j] - B[k, j]), an edge into v from stage k
    gives -comm * B[k, j], with B the crossings table of ``_stage_tables``.
    So the adjoint is (W_out x e_0 - R) @ B / C, W_out being each node's
    outgoing cost and R[v, k] the cost of the edges from or into v whose
    other end is at stage k. It is masked to each node's window [lo, hi] and
    pulled back through the tempered softmax ``y``. Given ``buffers``, the
    gradient is ``buffers.noise`` and ``buffers.work`` its scratch, so ``y``
    may be ``buffers.soft`` but neither of those; otherwise it is new.
    """
    n, latency = y.shape
    if buffers is None:
        grad, work = np.empty_like(y), np.empty_like(y)
    else:
        grad, work = buffers.noise, buffers.work
    tables = _stage_tables(latency)

    spread = 0.0
    if cg.total_mem > 0.0:
        inv_m = 1.0 / cg.total_mem
        q = np.bincount(t, weights=cg.mem, minlength=latency) * inv_m
        q_floor = np.maximum(q, _LOG_FLOOR)
        log_q = np.log(q_floor)
        spread = float((q * log_q).sum()) + math.log(latency)
        dq = lam * log_q + (lam * q) / q_floor * (q >= _LOG_FLOOR)
        np.multiply(cg.mem[:, None], dq * inv_m, out=grad)
    else:
        grad.fill(0.0)

    comm = 0.0
    if cg.total_comm > 0.0:
        inv_c = 1.0 / cg.total_comm
        rise = t.take(cg.dst) - t.take(cg.src)
        comm = float(cg.comm @ np.maximum(rise, 0).astype(np.float64)) * inv_c
        cells = t.take(cg.other_end)
        cells += cg.end_cell
        adj = np.bincount(cells, weights=cg.end_comm, minlength=n * latency)
        adj = adj.reshape(n, latency)  # -R / C
        adj[:, 0] += cg.out_comm
        grad += np.matmul(adj, tables.crossings, out=work)

    # The window mask as 0/1 rows: 1 at the stages >= lo, and at the stages
    # <= hi for the nodes capped below the last stage. A product of 0/1
    # factors has the bits of a product by the boolean mask.
    grad *= tables.above.take(lo, axis=0, mode="clip", out=work)
    if cg.capped.size:
        grad[cg.capped] *= tables.below.take(cg.hi.take(cg.capped) + 1, axis=0)
    inner = grad[:, None, :] @ y[:, :, None]  # row-wise <grad, y>, as 1-D dots
    grad -= inner[:, 0]
    grad *= y
    grad /= tau
    return spread * lam + comm, spread, comm, grad


def score_block(
    g: SchedGraph, cg: ScoreArrays, stages: np.ndarray, latency: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peak_mem, comm_total, boundary_comm) of each row of an (M, V) block
    of stage vectors by declaration index; ValueError for the first illegal
    row. Stage memory adds nodes in index order, a boundary its edges in
    edge order, comm_total the boundaries left to right, as loops would.
    """
    m = len(stages)
    # Row r owns cells r * L .. r * L + L - 1 of both bincounts, whose terms
    # come node- (edge-) major, so each cell adds them in index order.
    width = max(latency, 1)  # an empty graph is legal at any latency
    cell = stages.T + np.arange(0, m * width, width)  # (V, M)
    a = cell.take(cg.e_src, axis=0)  # (E, M)
    rise = cell.take(cg.e_dst, axis=0) - a
    if stages.size and (
        np.minimum.reduce(rise + cg.e_c[:, None], axis=None, initial=0) < 0
        or np.minimum.reduce(stages, axis=None) < 0
        or np.maximum.reduce(stages, axis=None) >= latency
    ):
        for row in stages.tolist():
            violations = check_legal(g, dict(zip((n.id for n in g.nodes), row)), latency)
            if violations:
                raise ValueError("illegal schedule: " + "; ".join(violations))
    # a bincount over nothing is integer, hence the casts
    stage_mem = np.bincount(cell.ravel(), weights=cg.mem.repeat(m), minlength=m * width)
    peak = np.maximum.reduce(stage_mem.reshape(m, width), axis=1).astype(np.float64, copy=False)
    # Edge k crosses boundaries a .. a + span - 1, boundary i of row r being
    # cell r * L + i; a row's last cell stays 0.0, so its cumsum ends in the
    # boundaries' sum. Costless edges add +0.0, which keeps every sum's bits.
    span = np.maximum(rise, 0).ravel()
    end = span.cumsum()
    crossed = np.arange(end[-1] if end.size else 0) - (end - span - a.ravel()).repeat(span)
    cells = np.bincount(
        crossed, weights=cg.e_comm.repeat(m).repeat(span), minlength=m * width
    ).astype(np.float64, copy=False).reshape(m, width)
    return peak, np.add.accumulate(cells, axis=1)[:, -1], cells[:, :-1]


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
    buffers = EpochBuffers.like(weights)
    wd = config.weight_decay if config.optimizer == "adamw" else 0.0

    best_obj = float("inf")
    best_stages: list[int] = []
    trajectory: list[TrajectoryPoint] = []
    t0 = time.monotonic()

    for epoch in range(config.epochs):
        if config.timeout_ms is not None:
            if (time.monotonic() - t0) * 1000.0 > config.timeout_ms:
                break
        tau = tau_schedule(epoch, config.epochs, config.tau_start, config.tau_end)
        hard, y, lo = sample_stages(cg, weights, tau, rng, buffers=buffers)
        stages = hard.tolist()
        if on_epoch is not None:
            on_epoch(epoch, stages)
        total, l_spread, l_comm, grad = loss_and_grad(
            cg, hard, y, lo, tau, config.lam, buffers=buffers)
        weights = adam_step(weights, grad, state, config.lr, weight_decay=wd, buffers=buffers)

        peak, comm, _ = score_block(g, cg, hard[None], config.L)
        peak_mem, comm_total = float(peak[0]), float(comm[0])
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
