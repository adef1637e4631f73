"""Benchmark of diffsched: one workload in one process.

    python3 perfbench/run.py --workload paper949 --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree and imports the program from ``src/``.
It repeats rounds of the workload's operations (engine runs and baselines,
see ``bench_inputs``) until ``--seconds`` have passed, checks every output
with the benchmark's own evaluator (``bench_eval``), and prints one JSON
object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes every call of the later rounds
twice, untraced and traced, and reports the per-module metrics
(``bench_trace``). The full record of the run goes to ``perfbench/results/``.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: the epoch's matrix work is small
# and memory-bound, and a fixed thread count keeps runs comparable on a
# shared 2-vCPU machine.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in BLAS_THREADS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
clock = time.perf_counter


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import diffsched
        from diffsched import baselines, engine, graph
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import diffsched from {SRC}: {exc}")
    if Path(diffsched.__file__).resolve().parent != SRC / "diffsched":
        raise SystemExit(f"run.py: diffsched imported from {diffsched.__file__}, not {SRC}")
    return engine, graph, baselines


engine, graph, baselines = import_program()
IMPORT_S = clock() - _T0

import numpy as np  # noqa: E402

import bench_eval  # noqa: E402
import bench_trace  # noqa: E402
from bench_inputs import LAM, RATIO, WORKLOADS, Case  # noqa: E402

TOL = 1e-9


@dataclass
class Prepared:
    """What the benchmark knows of a case before the program runs."""

    inst: bench_eval.Instance
    lower: float  # ratio * max(max mem, total mem / L)
    optimum: float | None  # by enumeration, for small graphs
    target: float  # objective the engine runs aim at
    asap: np.ndarray | None

    @property
    def bound(self) -> float:
        """The best lower bound the benchmark knows."""
        return self.lower if self.optimum is None else self.optimum


def prepare(case: Case, exact: bool) -> Prepared:
    inst = bench_eval.parse(case.text)
    lower = bench_eval.lower_bound(inst, case.latency, RATIO)
    if exact:
        optimum = bench_eval.exact_optimum(inst, case.latency, RATIO)
        return Prepared(inst, lower, optimum, optimum, None)
    asap = bench_eval.earliest(inst)
    target = case.target_of_asap * bench_eval.objective(inst, asap, case.latency, RATIO)
    return Prepared(inst, lower, None, target, asap)


@dataclass
class EngineRun:
    case: int
    seed: int
    t_call: float
    t_end: float
    epoch_times: list[float]
    result: object | None
    error: str | None


@dataclass
class BaselineCall:
    case: int
    name: str
    seconds: float
    output: object | None
    error: str | None


@dataclass
class Round:
    traced: bool
    load_s: float = 0.0
    engine: list[EngineRun] = field(default_factory=list)
    baselines: list[BaselineCall] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time spent inside the program's calls."""
        return (
            self.load_s
            + sum(r.t_end - r.t_call for r in self.engine)
            + sum(b.seconds for b in self.baselines)
        )

    @property
    def attempted(self) -> int:
        return len(self.engine) + len(self.baselines)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.engine) + sum(
            b.error is not None for b in self.baselines
        )


def call_baseline(name: str, g, latency: int):
    if name == "asap":
        return baselines.asap(g, latency)
    if name == "greedy_balance":
        return baselines.greedy_balance(g, latency, RATIO)
    if name == "brute_force":
        return baselines.brute_force(g, latency, RATIO)
    if name == "export_ilp":
        return baselines.export_ilp(g, latency, RATIO)
    raise ValueError(f"unknown baseline {name}")


def ilp_summary(g, case: Case, model, text: str, best_schedule, prep: Prepared) -> dict:
    """Size of the exported program and, given a schedule, whether the
    program's own assignment of it is feasible at the benchmark's objective."""
    out = {
        "vars": len(model.variables),
        "rows": len(model.constraints),
        "bytes": len(text.encode()),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if best_schedule is not None:
        assignment = baselines.ilp_assignment_from_schedule(g, case.latency, best_schedule)
        feasible, violated, obj = baselines.check_ilp_assignment(model, assignment)
        s = bench_eval.stage_vector(prep.inst, best_schedule)
        expected = bench_eval.objective(prep.inst, s, case.latency, RATIO)
        out["check"] = feasible and bench_eval.close(obj, expected, TOL)
        out["check_detail"] = f"feasible={feasible} violated={violated[:3]} obj={obj} expected={expected}"
    return out


def run_engine(g, case: Case, ci: int, seed: int) -> EngineRun:
    cfg = engine.RunConfig(
        L=case.latency, epochs=case.epochs, lam=LAM, ratio=RATIO, seed=seed, tau_end=case.tau_end
    )
    times: list[float] = []
    result = error = None
    t_call = clock()
    try:
        result = engine.run(g, cfg, on_epoch=lambda e, s: times.append(clock()))
    except Exception as exc:  # counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return EngineRun(ci, seed, t_call, clock(), times, result, error)


def run_baseline(g, case: Case, ci: int, name: str) -> BaselineCall:
    output = error = None
    t = clock()
    try:
        output = call_baseline(name, g, case.latency)
    except Exception as exc:  # counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return BaselineCall(ci, name, clock() - t, output, error)


def run_round(
    cases: list[Case], preps: list[Prepared], first: bool, tracer: bench_trace.Tracer | None = None
) -> list[Round]:
    """One pass over every case: load its graph, run the engine on each of
    its seeds, then run its baselines. Only the program's calls are timed.

    With a tracer, every call is made twice in a row, untraced and traced,
    in alternating order, so that the two timings see the same machine;
    the result is then an untraced and a traced round.
    """
    rounds = [Round(traced=False)] + ([Round(traced=True)] if tracer else [])
    turn = 0

    def each(call) -> None:
        nonlocal turn
        order = range(len(rounds)) if turn % 2 == 0 else reversed(range(len(rounds)))
        turn += 1
        for i in order:
            if rounds[i].traced:
                tracer.install()
            try:
                call(i, rounds[i])
            finally:
                if rounds[i].traced:
                    tracer.uninstall()

    for ci, case in enumerate(cases):
        graphs: list = [None] * len(rounds)

        def load(i: int, rnd: Round) -> None:
            t = clock()
            graphs[i] = graph.load_graph(case.text)
            rnd.load_s += clock() - t

        each(load)
        for seed in case.engine_seeds:
            each(lambda i, rnd: rnd.engine.append(run_engine(graphs[i], case, ci, seed)))
        best = min(
            (r.result for r in rounds[0].engine if r.case == ci and r.result is not None),
            key=lambda result: result.best_objective,
            default=None,
        )
        for name in case.baselines:
            each(lambda i, rnd: rnd.baselines.append(run_baseline(graphs[i], case, ci, name)))
            for i, rnd in enumerate(rounds):
                call = rnd.baselines[-1]
                if name == "export_ilp" and call.output is not None:
                    model, text = call.output
                    schedule = best.best_schedule if first and best is not None else None
                    call.output = ilp_summary(graphs[i], case, model, text, schedule, preps[ci])
    return rounds


def epochs_to_target(run: EngineRun, prep: Prepared) -> int | None:
    """Epochs run until the trajectory's best reaches the target."""
    for k, point in enumerate(run.result.trajectory):
        if point.best_so_far <= prep.target * (1 + TOL):
            return k + 1
    return None


def time_to_target(run: EngineRun, prep: Prepared) -> float:
    """From the run call to the epoch that reached the target; a run that
    never reaches it counts its whole length."""
    k = epochs_to_target(run, prep)
    return (run.epoch_times[k - 1] if k else run.t_end) - run.t_call


def round_stats(rnd: Round, preps: list[Prepared]) -> dict:
    """A round's timings. Every round makes the same operations in the same
    order, so list entries line up across rounds."""
    ok = [r for r in rnd.engine if r.error is None]
    return {
        "traced": rnd.traced,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "wall_s": rnd.wall_s,
        "solve_s": sum(r.t_end - r.t_call for r in rnd.engine),
        "setup_s": rnd.load_s + sum(r.epoch_times[0] - r.t_call for r in ok),
        "epoch_s": [np.diff(r.epoch_times) for r in ok],
        "to_target_s": [time_to_target(r, preps[r.case]) for r in ok],
        "baseline_s": [b.seconds for b in rnd.baselines],
    }


# --- checks ---------------------------------------------------------------


def outputs(rnd: Round) -> list:
    """What a round returned, for comparison between rounds."""
    out = []
    for r in rnd.engine:
        res = r.result
        out.append(
            ("engine", r.case, r.seed, r.error)
            if res is None
            else ("engine", r.case, r.seed, res.best_objective, res.best_schedule,
                  [p.lp_objective for p in res.trajectory])
        )
    for b in rnd.baselines:
        value = b.output
        if isinstance(value, dict) and "sha256" in value:
            value = (value["vars"], value["rows"], value["sha256"])
        out.append((b.name, b.case, value, b.error))
    return out


def check_round(cases: list[Case], preps: list[Prepared], rnd: Round) -> list[str]:
    """Every output of a round against the benchmark's own evaluator."""
    problems: list[str] = []

    def judge(ci: int, label: str, schedule, claimed=None) -> float | None:
        case, prep = cases[ci], preps[ci]
        where = f"{case.name} {label}"
        try:
            s = bench_eval.stage_vector(prep.inst, schedule)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            return None
        if not bench_eval.is_legal(prep.inst, s, case.latency):
            problems.append(f"{where}: illegal schedule")
            return None
        obj = bench_eval.objective(prep.inst, s, case.latency, RATIO)
        if claimed is not None and not bench_eval.close(claimed, obj, TOL):
            problems.append(f"{where}: reported objective {claimed!r}, recomputed {obj!r}")
        if obj < prep.lower * (1 - TOL):
            problems.append(f"{where}: objective {obj} below the lower bound {prep.lower}")
        if prep.optimum is not None and obj < prep.optimum * (1 - TOL):
            problems.append(f"{where}: objective {obj} below the optimum {prep.optimum}")
        return obj

    for r in rnd.engine:
        if r.result is None:
            continue
        res, prep, label = r.result, preps[r.case], f"engine seed {r.seed}"
        judge(r.case, label, res.best_schedule, res.best_objective)
        where = f"{cases[r.case].name} {label}"
        lp = [p.lp_objective for p in res.trajectory]
        if len(lp) != cases[r.case].epochs:
            problems.append(f"{where}: {len(lp)} trajectory points for {cases[r.case].epochs} epochs")
            continue
        if [p.best_so_far for p in res.trajectory] != list(itertools.accumulate(lp, min)):
            problems.append(f"{where}: best_so_far is not the running minimum")
        if res.best_objective != min(lp):
            problems.append(f"{where}: best objective is not the trajectory's minimum")
        if min(lp) < prep.lower * (1 - TOL):
            problems.append(f"{where}: an epoch's objective is below the lower bound")
        if prep.optimum is not None and min(lp) < prep.optimum * (1 - TOL):
            problems.append(f"{where}: an epoch's objective is below the optimum")
        if cases[r.case].target_of_asap is not None and epochs_to_target(r, prep) is None:
            problems.append(f"{where}: never reached the target {prep.target}")
    for b in rnd.baselines:
        if b.output is None:
            continue
        prep = preps[b.case]
        if b.name == "asap":
            if judge(b.case, "asap", b.output) is not None and not np.array_equal(
                bench_eval.stage_vector(prep.inst, b.output), prep.asap
            ):
                problems.append(f"{cases[b.case].name} asap: not every node at its earliest stage")
        elif b.name == "greedy_balance":
            judge(b.case, "greedy_balance", b.output)
        elif b.name == "brute_force":
            schedule, claimed = b.output
            obj = judge(b.case, "brute_force", schedule, claimed)
            if obj is not None and not bench_eval.close(obj, prep.optimum, TOL):
                problems.append(f"{cases[b.case].name} brute_force: {obj} is not the optimum {prep.optimum}")
        elif b.name == "export_ilp" and "check" in b.output and not b.output["check"]:
            problems.append(f"{cases[b.case].name} export_ilp: {b.output['check_detail']}")
    return problems


# --- metrics ----------------------------------------------------------------


def end_to_end(ref: Round, stats: list[dict], preps: list[Prepared]) -> dict[str, tuple[float, str]]:
    """Taken so that a busy shared machine moves the figures least: the
    rate from the median epoch of every run in every round, and each
    operation at the fastest of its repeats (every round repeats the same
    work, so a slower repeat measures the machine, not the program)."""
    best: dict[int, float] = {}
    for r in ref.engine:
        if r.result is not None:
            best[r.case] = min(best.get(r.case, np.inf), r.result.best_objective)
    def fastest(key: str) -> np.ndarray:
        return np.min([s[key] for s in stats], axis=0)

    epoch_s = np.concatenate([e for s in stats for e in s["epoch_s"]])

    return {
        "setup_s": (IMPORT_S + stats[0]["setup_s"], "s"),
        "epochs_per_s": (1.0 / float(np.median(epoch_s)), "1/s"),
        "time_to_target_s": (float(np.mean(fastest("to_target_s"))), "s"),
        "objective_over_bound": (
            sum(best.values()) / sum(preps[ci].bound for ci in best),
            "ratio",
        ),
        "baselines_s": (float(np.sum(fastest("baseline_s"))), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(
    summary: dict, n_traced: int, ref: Round, cases: list[Case], preps: list[Prepared],
    untraced: list[dict], traced: list[dict],
) -> dict[str, tuple[float, str]]:
    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0) / n_traced

    def secs(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) / n_traced

    def ms_per_call(name: str) -> float:
        n = summary.get(name, {}).get("calls", 0)
        return 1000.0 * summary[name]["self_s"] / n if n else 0.0

    reached = [
        epochs_to_target(r, preps[r.case]) or cases[r.case].epochs
        for r in ref.engine
        if r.result is not None
    ]
    greedy_obj = 0.0
    ilp = {"vars": 0, "rows": 0, "bytes": 0}
    for b in ref.baselines:
        if b.output is None:
            continue
        if b.name == "greedy_balance":
            s = bench_eval.stage_vector(preps[b.case].inst, b.output)
            greedy_obj += bench_eval.objective(preps[b.case].inst, s, cases[b.case].latency, RATIO)
        elif b.name == "export_ilp":
            ilp = b.output
    by_run, by_brute = "<-engine.run", "<-baselines.brute_force"
    return {
        "graph.load_graph.s": (secs("graph.load_graph"), "s"),
        "graph.min_feasible_latency.calls": (calls("graph.min_feasible_latency"), "count"),
        "graph.min_feasible_latency.s": (secs("graph.min_feasible_latency"), "s"),
        "graph.latest_stages.calls": (calls("graph.latest_stages"), "count"),
        "graph.latest_stages.s": (secs("graph.latest_stages"), "s"),
        "graph.check_legal.calls": (calls("graph.check_legal"), "count"),
        "graph.check_legal.s": (secs("graph.check_legal"), "s"),
        "engine.compile_graph.s": (secs("engine.compile_graph"), "s"),
        "engine.init_params.s": (secs("engine.init_params"), "s"),
        "engine.sample_stages.calls": (calls("engine.sample_stages"), "count"),
        "engine.sample_stages.ms_per_call": (ms_per_call("engine.sample_stages"), "ms"),
        "engine.loss_and_grad.ms_per_call": (ms_per_call("engine.loss_and_grad"), "ms"),
        "engine.adam_step.ms_per_call": (ms_per_call("engine.adam_step"), "ms"),
        "engine.run.self_s": (secs("engine.run"), "s"),
        "engine.epochs_to_target": (statistics.fmean(reached) if reached else 0.0, "count"),
        "losses.discrete_metrics.engine.calls": (calls("losses.discrete_metrics" + by_run), "count"),
        "losses.discrete_metrics.engine.ms_per_call": (
            ms_per_call("losses.discrete_metrics" + by_run), "ms"),
        "losses.discrete_metrics.brute_force.calls": (
            calls("losses.discrete_metrics" + by_brute), "count"),
        "losses.discrete_metrics.brute_force.ms_per_call": (
            ms_per_call("losses.discrete_metrics" + by_brute), "ms"),
        "baselines.asap.s": (secs("baselines.asap"), "s"),
        "baselines.greedy_balance.s": (secs("baselines.greedy_balance"), "s"),
        "baselines.greedy_balance.objective": (greedy_obj, "obj"),
        "baselines.brute_force.s": (secs("baselines.brute_force"), "s"),
        "baselines.brute_force.leaves": (calls("losses.discrete_metrics" + by_brute), "count"),
        "baselines.export_ilp.s": (secs("baselines.export_ilp"), "s"),
        "baselines.export_ilp.vars": (float(ilp["vars"]), "count"),
        "baselines.export_ilp.rows": (float(ilp["rows"]), "count"),
        "baselines.export_ilp.mb": (ilp["bytes"] / 1e6, "MB"),
        "trace.overhead_s": (
            statistics.fmean(s["wall_s"] for s in traced)
            - statistics.fmean(s["wall_s"] for s in untraced), "s"),
        "trace.untraced_solve_s": (statistics.fmean(s["solve_s"] for s in untraced), "s"),
        "trace.traced_solve_s": (statistics.fmean(s["solve_s"] for s in traced), "s"),
        "trace.engine_path_self_s": (summary["engine_path_self_s"]["self_s"] / n_traced, "s"),
    }


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cases = WORKLOADS[args.workload](args.seed)
    exact = args.workload == "small_mix"
    preps = [prepare(case, exact) for case in cases]

    tracer = bench_trace.Tracer() if args.trace else None
    stats: list[dict] = []  # per round; only the first round's outputs are kept
    errors: collections.Counter = collections.Counter()
    problems: list[str] = []
    reference = None
    t_start = clock()
    while True:
        for rnd in run_round(cases, preps, first=reference is None, tracer=tracer):
            if reference is None:
                reference = rnd
                problems += check_round(cases, preps, rnd)
            elif outputs(rnd) != outputs(reference):
                problems.append(f"round {len(stats)} returned other outputs than round 0")
            stats.append(round_stats(rnd, preps))
            errors.update(item.error for item in rnd.engine + rnd.baselines if item.error)
            if rnd is not reference:
                rnd.engine.clear()
                rnd.baselines.clear()
        if clock() - t_start >= args.seconds:
            break

    untraced = [s for s in stats if not s["traced"]]
    RESULTS.mkdir(exist_ok=True)
    if tracer:
        summary = bench_trace.summarize(tracer)
        traced = [s for s in stats if s["traced"]]
        metrics = per_layer(summary, len(traced), reference, cases, preps, untraced, traced)
        tracer.save(RESULTS / f"{args.workload}-spans.npz")
        untraced_s, traced_s, path, over = (metrics[f"trace.{k}"][0] for k in (
            "untraced_solve_s", "traced_solve_s", "engine_path_self_s", "overhead_s"))
        print(f"trace: per round, engine.run takes {untraced_s:.4f} s untraced and {traced_s:.4f} s "
              f"traced; its spans' self times sum to {path:.4f} s; tracing costs {over:.4f} s. "
              f"Untraced time {'within' if abs(untraced_s - path) <= over else 'OUTSIDE'} the "
              f"overhead of the span sum; span sum {100 * path / traced_s:.2f}% of the traced time.",
              file=sys.stderr)
        for name in tracer.missing:
            print(f"trace: {name} is missing; its metrics read 0", file=sys.stderr)
    else:
        metrics = end_to_end(reference, untraced, preps)

    for message, count in sorted(errors.items()):
        print(f"failed {count}x: {message}", file=sys.stderr)
    for message in problems[:20]:
        print(f"check: {message}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in stats),
        "failed": sum(s["failed"] for s in stats),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        },
        "rounds": [
            {
                "traced": s["traced"],
                "wall_s": s["wall_s"],
                "solve_s": s["solve_s"],
                "setup_s": s["setup_s"],
                "epochs_per_s": 1.0 / float(np.median(np.concatenate(s["epoch_s"]))),
                "mean_to_target_s": statistics.fmean(s["to_target_s"]) if s["to_target_s"] else None,
                "baselines_s": sum(s["baseline_s"]),
            }
            for s in stats
        ],
        "problems": problems,
        "failures": dict(errors),
        "missing_spans": tracer.missing if tracer else [],
        "result": result,
    }
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
