"""Spans around the program's layer boundaries, recorded from outside.

The program's modules import each other's functions by name, so a call is
traced by replacing that name in the module that makes the call
(``engine.discrete_metrics``, ``losses.check_legal``, ...). Each call
records a span (name, parent span, start, end) in flat arrays kept in
memory; ``save`` writes them out at the end. A name that a later version of
the program no longer has is reported as missing, not fatal.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute replaced in it, span name). A function that several
# modules import gets one span name for all of them.
TARGETS = (
    ("graph", "load_graph", "graph.load_graph"),
    ("engine", "min_feasible_latency", "graph.min_feasible_latency"),
    ("baselines", "min_feasible_latency", "graph.min_feasible_latency"),
    ("engine", "latest_stages", "graph.latest_stages"),
    ("baselines", "latest_stages", "graph.latest_stages"),
    ("losses", "check_legal", "graph.check_legal"),
    ("engine", "run", "engine.run"),
    ("engine", "compile_graph", "engine.compile_graph"),
    ("engine", "init_params", "engine.init_params"),
    ("engine", "sample_stages", "engine.sample_stages"),
    ("engine", "loss_and_grad", "engine.loss_and_grad"),
    ("engine", "adam_step", "engine.adam_step"),
    ("engine", "discrete_metrics", "losses.discrete_metrics"),
    ("baselines", "discrete_metrics", "losses.discrete_metrics"),
    ("baselines", "asap", "baselines.asap"),
    ("baselines", "greedy_balance", "baselines.greedy_balance"),
    ("baselines", "brute_force", "baselines.brute_force"),
    ("baselines", "export_ilp", "baselines.export_ilp"),
)


class Tracer:
    def __init__(self, package: str = "diffsched"):
        self.package = package
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        stack, parent, start, end, name_id = (
            self._stack, self.parent, self.start, self.end, self.name_id
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every target name that exists; note the ones that do not."""
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(f"{self.package}.{module_name}")
            if module is None or not callable(getattr(module, attr, None)):
                label = f"{module_name}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name, and per (name, calling span name) as ``name<-caller``:
    calls, total self time, and the self time of spans rooted in
    ``engine.run`` under the key ``"engine_path_self_s"``.

    A span's self time is its duration minus that of its child spans, which
    never overlap in a single thread.
    """
    a = tracer.arrays()
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child

    root = np.arange(len(nid))
    while True:
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            break
        root = up
    names = tracer.names
    k = len(names)
    caller = np.where(has_parent, nid[np.maximum(parent, 0)], k)
    calls = np.bincount(nid * (k + 1) + caller, minlength=k * (k + 1))
    total = np.bincount(nid * (k + 1) + caller, weights=self_s, minlength=k * (k + 1))
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        row = slice(i * (k + 1), (i + 1) * (k + 1))
        out[name] = {"calls": int(calls[row].sum()), "self_s": float(total[row].sum())}
        for j, by in enumerate(names):
            if calls[i * (k + 1) + j]:
                out[f"{name}<-{by}"] = {
                    "calls": int(calls[i * (k + 1) + j]),
                    "self_s": float(total[i * (k + 1) + j]),
                }
    run_id = names.index("engine.run") if "engine.run" in names else -1
    out["engine_path_self_s"] = {"self_s": float(self_s[nid[root] == run_id].sum())}
    return out
