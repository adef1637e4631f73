"""The benchmark's own evaluator of schedules.

It reads a graph from its JSON text into edge arrays and judges schedules
with array arithmetic of its own, so that no check of the benchmark rests on
the code it measures:

- legality: ``s[src] - s[dst] <= c`` on every edge and ``0 <= s < L``;
- LP objective: ``ratio * max(bincount(s, mem)) + sum(comm * max(0, s[dst] - s[src]))``;
- a lower bound on every objective: ``ratio * max(max mem, total mem / L)``;
- the exact optimum of a small instance, by enumerating all ``L**n`` stage
  vectors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Rows of stage vectors judged at once by the enumeration.
_CHUNK = 1 << 12


@dataclass(frozen=True)
class Instance:
    """A graph as arrays; nodes in declaration order."""

    ids: tuple[str, ...]
    mem: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    comm: np.ndarray
    c: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)


def parse(text: str) -> Instance:
    """Read the JSON graph format (``{"nodes": [...], "edges": [...]}``)."""
    data = json.loads(text)
    ids = tuple(str(nd["id"]) for nd in data["nodes"])
    index = {nid: i for i, nid in enumerate(ids)}
    edges = data["edges"]
    return Instance(
        ids=ids,
        mem=np.array([float(nd.get("mem", 1.0)) for nd in data["nodes"]]),
        src=np.array([index[str(e["src"])] for e in edges], dtype=np.int64),
        dst=np.array([index[str(e["dst"])] for e in edges], dtype=np.int64),
        comm=np.array([float(e.get("comm", 1.0)) for e in edges]),
        c=np.array([int(e.get("c", 0)) for e in edges], dtype=np.int64),
    )


def stage_vector(inst: Instance, schedule: dict[str, int]) -> np.ndarray:
    """The schedule's stages in declaration order; it must name every node
    and nothing else."""
    if set(schedule) != set(inst.ids):
        raise ValueError("schedule does not name exactly the graph's nodes")
    return np.array([schedule[nid] for nid in inst.ids], dtype=np.int64)


def legal_rows(inst: Instance, stages: np.ndarray, latency: int) -> np.ndarray:
    """Legality of each row of a (k, n) block of stage vectors."""
    s = np.atleast_2d(stages)
    ok = ((s >= 0) & (s < latency)).all(axis=1)
    if len(inst.src):
        ok &= (s[:, inst.src] - s[:, inst.dst] <= inst.c).all(axis=1)
    return ok


def is_legal(inst: Instance, stages: np.ndarray, latency: int) -> bool:
    return bool(legal_rows(inst, stages, latency)[0])


def objective_rows(
    inst: Instance, stages: np.ndarray, latency: int, ratio: float
) -> np.ndarray:
    """LP objective of each row of a (k, n) block of in-range stage vectors."""
    s = np.atleast_2d(stages)
    stage_mem = np.stack([(s == j) @ inst.mem for j in range(latency)], axis=1)
    comm = np.maximum(s[:, inst.dst] - s[:, inst.src], 0) @ inst.comm
    return comm + ratio * stage_mem.max(axis=1)


def objective(inst: Instance, stages: np.ndarray, latency: int, ratio: float) -> float:
    return float(objective_rows(inst, stages, latency, ratio)[0])


def lower_bound(inst: Instance, latency: int, ratio: float) -> float:
    """No schedule's objective is below this: some stage holds the largest
    node and at least an L-th of the total memory, and comm is never
    negative."""
    if inst.n == 0:
        return 0.0
    return ratio * max(float(inst.mem.max()), float(inst.mem.sum()) / latency)


def earliest(inst: Instance) -> np.ndarray:
    """Each node's earliest legal stage (the ASAP schedule): the largest
    ``s[u] - c`` over its incoming edges, and at least 0, propagated until
    nothing moves (the graph is acyclic, so n passes suffice)."""
    lo = np.zeros(inst.n, dtype=np.int64)
    for _ in range(inst.n):
        need = np.zeros(inst.n, dtype=np.int64)
        np.maximum.at(need, inst.dst, lo[inst.src] - inst.c)
        if (need <= lo).all():
            break
        lo = np.maximum(lo, need)
    return lo


def min_latency(inst: Instance) -> int:
    """Fewest stages that admit a legal schedule."""
    return 1 + int(earliest(inst).max(initial=0))


def exact_optimum(inst: Instance, latency: int, ratio: float) -> float:
    """Lowest objective over every legal stage vector, found by judging all
    ``latency ** n`` of them."""
    total = latency**inst.n
    weights = latency ** np.arange(inst.n, dtype=np.int64)
    best = np.inf
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        block = (codes[:, None] // weights) % latency
        block = block[legal_rows(inst, block, latency)]
        if len(block):
            best = min(best, float(objective_rows(inst, block, latency, ratio).min()))
    if not np.isfinite(best):
        raise ValueError("no legal schedule")
    return best


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal within ``rel`` of the larger magnitude (exactly, for zeros)."""
    return abs(a - b) <= rel * max(abs(a), abs(b))
