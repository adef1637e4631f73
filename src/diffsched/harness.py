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
from dataclasses import replace

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
        for p in trajectory:
            writer.writerow(
                [
                    p.epoch,
                    p.wall_ms,
                    repr(p.loss_total),
                    repr(p.loss_entropy),
                    repr(p.loss_comm),
                    repr(p.peak_mem),
                    repr(p.comm_total),
                    repr(p.lp_objective),
                    repr(p.best_so_far),
                ]
            )


def schedule_to_json(
    g: SchedGraph, stages: dict[str, int], latency: int, ratio: float
) -> dict:
    metrics = losses.discrete_metrics(g, stages, latency, ratio)
    return {
        "L": latency,
        "stages": stages,
        "metrics": {
            "peak_mem": metrics.peak_mem,
            "comm_total": metrics.comm_total,
            "lp_objective": metrics.lp_objective,
            "ratio": ratio,
        },
    }


def _write_schedule(args, g, stages, latency, ratio) -> None:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "schedule.json")
    with open(path, "w") as f:
        json.dump(schedule_to_json(g, stages, latency, ratio), f, indent=1)


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


def cmd_oracle(args) -> int:
    g = _load(args)
    stages, objective = baselines.brute_force(g, args.L, args.ratio)
    _write_schedule(args, g, stages, args.L, args.ratio)
    print(f"optimal objective: {objective}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    g = _load(args)
    if args.method == "asap":
        stages = baselines.asap(g, args.L)
    elif args.method == "alap":
        stages = baselines.alap(g, args.L)
    else:
        stages = baselines.greedy_balance(g, args.L, args.ratio)
    metrics = losses.discrete_metrics(g, stages, args.L, args.ratio)
    _write_schedule(args, g, stages, args.L, args.ratio)
    print(f"{args.method} objective: {metrics.lp_objective}")
    return EXIT_OK


def cmd_eval(args) -> int:
    g = _load(args)
    with open(args.schedule) as f:
        data = json.load(f)
    stages = {k: int(v) for k, v in data["stages"].items()}
    latency = int(data["L"])
    violations = check_legal(g, stages, latency)
    if violations:
        print("illegal schedule: " + "; ".join(violations), file=sys.stderr)
        return EXIT_INVALID
    metrics = losses.discrete_metrics(g, stages, latency, args.ratio)
    print(
        json.dumps(
            {
                "peak_mem": metrics.peak_mem,
                "boundary_comm": metrics.boundary_comm,
                "comm_total": metrics.comm_total,
                "lp_objective": metrics.lp_objective,
                "ratio": args.ratio,
            }
        )
    )
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

    methods = {}
    for method in args.methods.split(","):
        method = method.strip()
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
            if method == "oracle":
                stages, _ = baselines.brute_force(g, args.L, args.ratio)
            elif method == "asap":
                stages = baselines.asap(g, args.L)
            elif method == "alap":
                stages = baselines.alap(g, args.L)
            elif method == "greedy":
                stages = baselines.greedy_balance(g, args.L, args.ratio)
            else:
                print(f"unknown method: {method}", file=sys.stderr)
                return EXIT_INVALID
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
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("baseline", help="heuristic schedules")
    common(p)
    p.add_argument("--method", choices=["asap", "alap", "greedy"], default="greedy")
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
    except (GraphError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
