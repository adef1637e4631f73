"""Inputs of the benchmark's workloads, as graph JSON text.

The two layered graphs come from the program's own generator
(``generator.gen_random_workload``), fixed at generator seed 0. The small
graphs of ``small_mix`` are drawn here from the workload seed. The benchmark
seed also picks the engine seeds; the same seed always gives the same
inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import bench_eval

RATIO = 10.0
LAM = 10.0


@dataclass(frozen=True)
class Case:
    """One graph and the runs made on it."""

    name: str
    text: str
    latency: int
    engine_seeds: tuple[int, ...]
    epochs: int
    tau_end: float = 0.1
    baselines: tuple[str, ...] = ()
    # Fraction of the ASAP objective that every engine seed must reach;
    # None means the target is the exact optimum (small graphs).
    target_of_asap: float | None = None


def graph_text(nodes, edges) -> str:
    """JSON text of a graph given (id, mem) nodes and (src, dst, comm, c)
    edges."""
    return json.dumps(
        {
            "nodes": [{"id": i, "mem": m} for i, m in nodes],
            "edges": [{"src": s, "dst": d, "comm": w, "c": c} for s, d, w, c in edges],
        }
    )


def _layered(n_nodes: int, depth: int, density: float) -> str:
    from diffsched.generator import GenSpec, gen_random_workload

    g = gen_random_workload(GenSpec(n_nodes=n_nodes, depth=depth, density=density, seed=0))
    return graph_text(
        [(n.id, n.mem) for n in g.nodes],
        [(e.src, e.dst, e.comm, e.sdc_c) for e in g.edges],
    )


def _engine_seeds(seed: int, count: int) -> tuple[int, ...]:
    rng = np.random.default_rng([seed, 7])
    return tuple(int(x) for x in rng.integers(0, 2**31, size=count))


def paper949(seed: int) -> list[Case]:
    return [
        Case(
            name="paper949",
            text=_layered(949, 15, 0.01),
            latency=10,
            engine_seeds=_engine_seeds(seed, 10),
            epochs=200,
            baselines=("asap", "greedy_balance", "export_ilp"),
            target_of_asap=0.75,
        )
    ]


def wide10k(seed: int) -> list[Case]:
    return [
        Case(
            name="wide10k",
            text=_layered(10_000, 40, 0.001),
            latency=20,
            engine_seeds=_engine_seeds(seed, 3),
            epochs=60,
            baselines=("asap",),
            target_of_asap=0.97,
        )
    ]


# small_mix: a few hundred small random DAGs.
SMALL_COUNT = 480
SMALL_EPOCHS = 60
# Largest L**n drawn. It bounds the benchmark's enumeration and keeps the
# brute-force cost of a mix from hanging on its few largest graphs.
_SMALL_ENUM_LIMIT = 20_000
_C_CHOICES = (-1, 0, 0, 0, 0, 1)
_COMM_CHOICES = (0.0, 0.5, 1.0, 2.0, 3.0)
_MEM_CHOICES = (0.5, 1.0, 1.5, 2.0, 3.0)


def _small_graph(rng: np.random.Generator) -> tuple[str, int]:
    while True:
        n = int(rng.integers(4, 10))
        nodes = [(f"v{i}", float(rng.choice(_MEM_CHOICES))) for i in range(n)]
        edges = [
            (f"v{i}", f"v{j}", float(rng.choice(_COMM_CHOICES)), int(rng.choice(_C_CHOICES)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < 0.35
        ]
        text = graph_text(nodes, edges)
        latency = bench_eval.min_latency(bench_eval.parse(text)) + int(rng.integers(0, 3))
        if latency**n <= _SMALL_ENUM_LIMIT:
            return text, latency


def _chain(n: int, mem: float, c: int) -> str:
    return graph_text(
        [(f"v{i}", mem) for i in range(n)],
        [(f"v{i}", f"v{i + 1}", 1.0, c) for i in range(n - 1)],
    )


# Runs that fail every time today, on inputs that do not depend on the seed.
# Zero total memory, the empty graph included: entropy_loss refuses it.
_ZERO_MEMORY = (
    ("zero_mem_empty", graph_text([], []), 2),
    ("zero_mem_chain3", _chain(3, 0.0, 0), 2),
    (
        "zero_mem_dag4",
        graph_text(
            [(f"v{i}", 0.0) for i in range(4)],
            [("v0", "v1", 2.0, 0), ("v0", "v2", 1.0, -1), ("v1", "v3", 1.0, 0), ("v2", "v3", 3.0, 0)],
        ),
        3,
    ),
)
# Low temperature on c = -1 chains: the softmax over all L stages underflows
# inside the window (straight_through_onehot: no strictly positive entry).
_LOW_TEMPERATURE = (
    ("cold_chain2_L3", _chain(2, 1.0, -1), 3, 3),
    ("cold_chain3_L3", _chain(3, 1.0, -1), 3, 0),
    ("cold_chain3_L4", _chain(3, 1.0, -1), 4, 5),
)


def small_mix(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 11])
    cases = []
    for k in range(SMALL_COUNT):
        text, latency = _small_graph(rng)
        cases.append(
            Case(
                name=f"small{k}",
                text=text,
                latency=latency,
                engine_seeds=(int(rng.integers(0, 2**31)),),
                epochs=SMALL_EPOCHS,
                baselines=("brute_force", "greedy_balance"),
            )
        )
    for name, text, latency in _ZERO_MEMORY:
        cases.append(
            Case(name, text, latency, (0,), SMALL_EPOCHS, baselines=("brute_force", "greedy_balance"))
        )
    for name, text, latency, engine_seed in _LOW_TEMPERATURE:
        cases.append(Case(name, text, latency, (engine_seed,), 50, tau_end=1e-4))
    return cases


WORKLOADS = {"paper949": paper949, "wide10k": wide10k, "small_mix": small_mix}
