"""Command-line front end and experiment orchestration.

Subcommands: schedule (gradient-descent run), oracle (brute force),
baseline (asap/alap/greedy), eval (metrics of a schedule file), gen
(random layered workload), export-ilp, and compare (multi-method
normalized-progress report).

Exit codes: 0 success, 2 validation/input error, 3 infeasible latency.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, astuple, replace

from . import baselines, engine, generator, losses
from .graph import (
    GraphError,
    InfeasibleError,
    SchedGraph,
    check_legal,
    load_graph_file,
    min_feasible_latency,
    save_graph,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

TRAJECTORY_HEADER = [
    "epoch",
    "wall_ms",
    "loss_total",
    "loss_entropy",
    "loss_comm",
    "peak_mem",
    "comm_total",
    "lp_objective",
    "best_objective",
]

COMPARE_HEADER = ["method", "sample_ms", "normalized", "best_objective"]

# The reference comparisons in this harness are local heuristics plus the
# exact oracle on small instances; no external solver is invoked.
BASELINE_NOTE = "baselines are local heuristics and the exact oracle (no external solvers)"

# Comparison schedules by name, each called as (graph, L, ratio). `compare`
# takes any of them, `baseline --method` all but the oracle, which is `oracle`.
METHODS = {
    "asap": lambda g, latency, ratio: baselines.asap(g, latency),
    "alap": lambda g, latency, ratio: baselines.alap(g, latency),
    "greedy": baselines.greedy_balance,
    "oracle": lambda g, latency, ratio: baselines.brute_force(g, latency, ratio)[0],
}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DIFFSCHED_SEED")
    return int(env) if env else 0


def _load(args) -> SchedGraph:
    return load_graph_file(args.graph)


def _config_from_args(args) -> engine.RunConfig:
    return engine.RunConfig(
        L=args.L,
        epochs=args.epochs,
        lr=args.lr,
        lam=getattr(args, "lam"),
        ratio=args.ratio,
        tau_start=args.tau_start,
        tau_end=args.tau_end,
        optimizer=args.optimizer,
        weight_decay=args.weight_decay,
        seed=_resolve_seed(args),
        timeout_ms=args.timeout_ms,
    )


def write_trajectory_csv(path: str, trajectory: list[engine.TrajectoryPoint]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_HEADER)
        for p in trajectory:  # the columns are TrajectoryPoint's fields
            epoch, wall_ms, *values = astuple(p)
            writer.writerow([epoch, wall_ms, *map(repr, values)])


def schedule_to_json(
    g: SchedGraph, stages: dict[str, int], latency: int, ratio: float
) -> dict:
    metrics = asdict(losses.discrete_metrics(g, stages, latency, ratio))
    del metrics["boundary_comm"]
    return {"L": latency, "stages": stages, "metrics": metrics}


def _write_schedule(args, g, stages, latency, ratio) -> dict:
    """Write schedule.json under --out; returns what it wrote."""
    os.makedirs(args.out, exist_ok=True)
    doc = schedule_to_json(g, stages, latency, ratio)
    with open(os.path.join(args.out, "schedule.json"), "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def cmd_schedule(args) -> int:
    g = _load(args)
    config = _config_from_args(args)
    result = (
        engine.run_restarts(g, config, args.seeds)
        if args.seeds > 1
        else engine.run(g, config)
    )
    _write_schedule(args, g, result.best_schedule, config.L, config.ratio)
    write_trajectory_csv(
        os.path.join(args.out, "trajectory.csv"), result.trajectory
    )
    print(f"best objective: {result.best_objective}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    """`baseline`, and `oracle` as the method "oracle"."""
    g = _load(args)
    stages = METHODS[args.method](g, args.L, args.ratio)
    doc = _write_schedule(args, g, stages, args.L, args.ratio)
    label = "optimal" if args.method == "oracle" else args.method
    print(f"{label} objective: {doc['metrics']['lp_objective']}")
    return EXIT_OK


def _read_schedule(path: str, g: SchedGraph) -> tuple[dict[str, int], int]:
    """(stages by node id, L) of a schedule file; GraphError unless it holds
    an integer 'L' and an integer stage for every node."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("stages"), dict) or "L" not in data:
        raise GraphError("schedule file: expected an object with 'L' and 'stages'")
    try:
        return {n.id: int(data["stages"][n.id]) for n in g.nodes}, int(data["L"])
    except KeyError as exc:
        raise GraphError(f"schedule file: no stage for node {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GraphError(f"schedule file: {exc}") from None


def cmd_eval(args) -> int:
    g = _load(args)
    stages, latency = _read_schedule(args.schedule, g)
    violations = check_legal(g, stages, latency)
    if violations:
        print("illegal schedule: " + "; ".join(violations), file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(asdict(losses.discrete_metrics(g, stages, latency, args.ratio))))
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = generator.GenSpec(
        n_nodes=args.n_nodes,
        depth=args.depth,
        density=args.density,
        comm_range=(args.comm_min, args.comm_max),
        mem_range=(args.mem_min, args.mem_max),
        seed=_resolve_seed(args),
    )
    g = generator.gen_random_workload(spec)
    with open(args.out, "w") as f:
        f.write(save_graph(g))
    print(json.dumps(generator.shape_stats(g)))
    return EXIT_OK


def cmd_export_ilp(args) -> int:
    g = _load(args)
    _, text = baselines.export_ilp(g, args.L, args.ratio)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def _series_from_trajectory(
    trajectory: list[engine.TrajectoryPoint], sample_points: list[int]
) -> list[float]:
    """Best objective at each wall-clock sampling point (carry last known)."""
    series = []
    best = None
    idx = 0
    for t in sample_points:
        while idx < len(trajectory) and trajectory[idx].wall_ms <= t:
            best = trajectory[idx].best_so_far
            idx += 1
        series.append(best if best is not None else trajectory[0].best_so_far)
    return series


def cmd_compare(args) -> int:
    g = _load(args)
    interval = args.sample_interval_ms or 1000
    budget = args.timeout_ms if args.timeout_ms is not None else 60_000
    sample_points = list(range(0, budget + 1, interval)) if budget > 0 else [0]

    names = [method.strip() for method in args.methods.split(",")]
    for method in names:
        if method != "diff" and method not in METHODS:
            print(f"unknown method: {method}", file=sys.stderr)
            return EXIT_INVALID

    methods = {}
    for method in names:
        if method == "diff":
            config = _config_from_args(args)
            config = replace(config, timeout_ms=budget)
            best_result = None
            trajectory: list[engine.TrajectoryPoint] = []
            t0 = time.monotonic()
            for i in range(args.seeds):
                remaining = budget - int((time.monotonic() - t0) * 1000)
                if remaining <= 0 and i > 0:
                    break
                result = engine.run(
                    g, replace(config, seed=config.seed + i, timeout_ms=max(remaining, 1))
                )
                offset = int((time.monotonic() - t0) * 1000) - (
                    result.trajectory[-1].wall_ms if result.trajectory else 0
                )
                for p in result.trajectory:
                    trajectory.append(replace(p, wall_ms=p.wall_ms + max(offset, 0)))
                if best_result is None or result.best_objective < best_result.best_objective:
                    best_result = result
            assert best_result is not None
            running_best = float("inf")
            for p in trajectory:
                running_best = min(running_best, p.lp_objective)
                p.best_so_far = running_best
            raw = _series_from_trajectory(trajectory, sample_points)
            methods["diff"] = {
                "objective": best_result.best_objective,
                "schedule": best_result.best_schedule,
                "normalized": losses.normalized_progress(raw),
            }
        else:
            stages = METHODS[method](g, args.L, args.ratio)
            metrics = losses.discrete_metrics(g, stages, args.L, args.ratio)
            methods[method] = {
                "objective": metrics.lp_objective,
                "schedule": stages,
                "normalized": [1.0] * len(sample_points),
            }

    os.makedirs(args.out, exist_ok=True)
    report = {
        "note": BASELINE_NOTE,
        "graph": args.graph,
        "L": args.L,
        "ratio": args.ratio,
        "sample_points_ms": sample_points,
        "methods": methods,
    }
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(COMPARE_HEADER)
        for name, info in methods.items():
            for t, norm in zip(sample_points, info["normalized"]):
                writer.writerow([name, t, repr(norm), repr(info["objective"])])
    for name, info in methods.items():
        print(f"{name}: objective {info['objective']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffsched")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, latency=True, ratio=True):
        p.add_argument("-g", "--graph", required=True)
        if latency:
            p.add_argument("-L", type=int, required=True)
        if ratio:
            p.add_argument("--ratio", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")

    def engine_flags(p):
        p.add_argument("--lambda", dest="lam", type=float, default=10.0)
        p.add_argument("--epochs", type=int, default=500)
        p.add_argument("--lr", type=float, default=0.05)
        p.add_argument("--tau-start", type=float, default=1.0)
        p.add_argument("--tau-end", type=float, default=0.1)
        p.add_argument("--optimizer", choices=["adam", "adamw"], default="adam")
        p.add_argument("--weight-decay", type=float, default=0.01)
        p.add_argument("--seeds", type=int, default=1)
        p.add_argument("--timeout-ms", type=int, default=None)

    p = sub.add_parser("schedule", help="gradient-descent scheduling run")
    common(p)
    engine_flags(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("oracle", help="exact brute-force optimum (small graphs)")
    common(p)
    p.set_defaults(func=cmd_baseline, method="oracle")

    p = sub.add_parser("baseline", help="heuristic schedules")
    common(p)
    p.add_argument("--method", choices=[m for m in METHODS if m != "oracle"], default="greedy")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="evaluate a schedule JSON file")
    common(p, latency=False)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a random layered workload")
    p.add_argument("--n-nodes", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--mem-min", type=float, default=1.0)
    p.add_argument("--mem-max", type=float, default=1.0)
    p.add_argument("--comm-min", type=float, default=1.0)
    p.add_argument("--comm-max", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-ilp", help="write the LP-format integer program")
    common(p)
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser("compare", help="multi-method normalized-progress report")
    common(p)
    engine_flags(p)
    p.add_argument("--methods", default="diff,greedy")
    p.add_argument("--sample-interval-ms", type=int, default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
