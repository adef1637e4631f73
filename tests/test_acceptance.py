"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, prints a single
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them),
and enforces the stated tolerance and runtime budget.
"""
import math
import time

import numpy as np

from diffsched.baselines import (
    asap,
    brute_force,
    check_ilp_assignment,
    export_ilp,
    ilp_assignment_from_schedule,
)
from diffsched.engine import RunConfig, compile_graph, gumbel_noise, run, sample_stages
from diffsched.generator import GenSpec, gen_random_workload
from diffsched.graph import Edge, Node, SchedGraph, check_legal, min_feasible_latency
from diffsched.harness import write_trajectory_csv
from diffsched.losses import discrete_metrics
from helpers import (
    gradient_error,
    isolated_nodes,
    random_dag,
    random_legal_schedule,
    training_loss,
)


def report(number: int, name: str, ok: bool, detail: str):
    print(f"\nacceptance {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


def test_acceptance_1_sampling_legality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    checked = 0
    illegal = 0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        g = random_dag(rng, n, edge_prob=min(1.0, 3.0 / n), c_choices=(-1, 0))
        latency = min_feasible_latency(g) + int(rng.integers(1, 3))

        def observe(epoch, stages, g=g, latency=latency):
            nonlocal checked, illegal
            named = {node.id: s for node, s in zip(g.nodes, stages)}
            checked += 1
            illegal += bool(check_legal(g, named, latency))

        run(g, RunConfig(L=latency, epochs=50, seed=int(rng.integers(1 << 30))),
            on_epoch=observe)
    dt = time.perf_counter() - t0
    report(1, "sampling-legality", illegal == 0 and dt < 120,
           f"{checked} schedules, {illegal} illegal, {dt:.1f}s < 120s")


def test_acceptance_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    lam, tau, eps = 10.0, 0.7, 1e-5
    worst = 0.0
    for _ in range(100):
        g = random_dag(rng, 6, edge_prob=0.4, c_choices=(-1, 0),
                       comm_choices=(1.0, 2.0, 3.0))
        latency = min_feasible_latency(g) + 1
        weights = rng.normal(scale=1.5, size=(6, latency))
        cg = compile_graph(g, latency)
        # freeze the noise and the windows of one sampled draw
        _, _, lo = sample_stages(cg, weights, tau, np.random.default_rng(rng.integers(1 << 30)))
        noise = np.stack([gumbel_noise(np.random.default_rng(7 + v), latency) for v in range(6)])
        worst = max(worst, gradient_error(cg, weights, noise, lo, tau, lam, eps))
    dt = time.perf_counter() - t0
    report(2, "gradient-correctness", worst < 1e-4 and dt < 60,
           f"max rel err {worst:.2e} < 1e-4, {dt:.1f}s < 60s")


def test_acceptance_3_oracle_near_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    near = exact = 0
    n_instances = 50
    for _ in range(n_instances):
        g = random_dag(rng, int(rng.integers(4, 8)), edge_prob=0.4,
                       comm_choices=(1.0, 2.0, 3.0))
        latency = int(rng.integers(2, 4))
        _, optimum = brute_force(g, latency, 10.0)
        best = float("inf")
        for restart in range(5):
            result = run(g, RunConfig(L=latency, epochs=300, lam=10.0, ratio=10.0,
                                      seed=int(rng.integers(1 << 30))))
            best = min(best, result.best_objective)
            if best <= optimum + 1e-9:
                break
        near += best <= 1.10 * optimum + 1e-9
        exact += best <= optimum + 1e-9
    dt = time.perf_counter() - t0
    ok = near >= 0.8 * n_instances and exact >= 0.5 * n_instances and dt < 300
    report(3, "oracle-near-optimality", ok,
           f"{near}/{n_instances} within 1.10x, {exact}/{n_instances} exact, {dt:.1f}s < 300s")


def test_acceptance_4_telescoping_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    worst = 0.0
    count = 0
    for _ in range(500):
        g = random_dag(rng, int(rng.integers(2, 9)), c_choices=(-2, -1, 0),
                       comm_choices=(1.0, 2.0, 3.0, 4.0))
        latency = min_feasible_latency(g) + int(rng.integers(0, 3))
        for _ in range(20):
            stages = random_legal_schedule(g, latency, rng)
            m = discrete_metrics(g, stages, latency, 10.0)
            rhs = sum(e.comm * (stages[e.dst] - stages[e.src]) for e in g.edges)
            worst = max(worst, abs(m.comm_total - rhs))
            count += 1
    dt = time.perf_counter() - t0
    report(4, "telescoping-identity", worst <= 1e-9 and count == 10_000 and dt < 10,
           f"{count} schedules, max gap {worst:.1e} <= 1e-9, {dt:.1f}s < 10s")


def test_acceptance_5_mask_worked_example():
    # A parent pinned to stage 1 of 3 leaves its child the stages >= 1 - c.
    masks = []
    for c in (0, -1):
        g = SchedGraph(nodes=[Node(id="p"), Node(id="k")], edges=[Edge("p", "k", sdc_c=c)])
        cg = compile_graph(g, 3)
        weights = np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 0.0]])
        stages, _, lo = sample_stages(cg, weights, 1.0, np.random.default_rng(0))
        assert stages[0] == 1
        masks.append([float(lo[1] <= j <= cg.hi[1]) for j in range(3)])
    a, b = masks
    ok = a == [0.0, 1.0, 1.0] and b == [0.0, 0.0, 1.0]
    report(5, "mask-worked-example", ok, f"c=0 -> {a}, c=-1 -> {b}")


def test_acceptance_6_entropy_bounds():
    # The trained spread term is ln L minus the stage-memory entropy, so it
    # lies in [0, ln L]: ln L for a single-stage schedule, 0 for an even split.
    def spread(stages, mems, latency):
        return training_loss(isolated_nodes(mems), stages, latency)[1]

    rng = np.random.default_rng(600)
    worst_violation = 0.0
    for _ in range(10_000):
        latency = int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        stages = rng.integers(0, latency, size=n)
        mems = list(rng.choice([0.5, 1.0, 2.0], size=n))
        s = spread(stages, mems, latency)
        worst_violation = max(worst_violation, -s, s - math.log(latency))
    # equality cases
    s_single = spread([0] * 4, [1.0] * 4, 2)
    s_uniform = spread([0, 1, 2, 3], [1.0] * 4, 4)
    ok = (worst_violation <= 1e-12 and abs(s_single - math.log(2)) <= 1e-12
          and abs(s_uniform) <= 1e-12)
    report(6, "entropy-bounds", ok,
           f"10000 schedules, worst bound slack {worst_violation:.1e}, "
           f"single-stage gap {abs(s_single - math.log(2)):.1e}, uniform {s_uniform:.1e}")


def test_acceptance_7_ilp_self_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    worst_gap = 0.0
    for _ in range(50):
        g = random_dag(rng, int(rng.integers(2, 6)), edge_prob=0.5,
                       comm_choices=(1.0, 2.0, 3.0))
        latency = int(rng.integers(2, 4))
        stages, optimum = brute_force(g, latency, 10.0)
        model, _ = export_ilp(g, latency, 10.0)
        feasible, violated, obj = check_ilp_assignment(
            model, ilp_assignment_from_schedule(g, latency, stages)
        )
        assert feasible, violated
        worst_gap = max(worst_gap, abs(obj - optimum))
        if g.edges:
            # flip one edge backward in stages: the matching dep row must fail
            e = g.edges[int(rng.integers(len(g.edges)))]
            bad = dict(stages)
            bad[e.src], bad[e.dst] = latency - 1, 0
            assert bad[e.src] - bad[e.dst] > e.sdc_c
            feasible_bad, violated_bad, _ = check_ilp_assignment(
                model, ilp_assignment_from_schedule(g, latency, bad)
            )
            assert not feasible_bad
            assert any(name.startswith("dep_") for name in violated_bad)
    dt = time.perf_counter() - t0
    report(7, "ilp-self-consistency", worst_gap <= 1e-9 and dt < 60,
           f"50 instances, max objective gap {worst_gap:.1e} <= 1e-9, {dt:.1f}s < 60s")


def test_acceptance_8_convergence_trend():
    t0 = time.perf_counter()
    g = gen_random_workload(GenSpec(n_nodes=949, depth=15, density=0.01, seed=0))
    latency, lam, ratio = 10, 10.0, 10.0
    early, late = [], []
    best = float("inf")
    for seed in range(5):
        result = run(g, RunConfig(L=latency, epochs=80, lam=lam, ratio=ratio, seed=seed))
        losses_by_epoch = {p.epoch: p.loss_total for p in result.trajectory}
        early += [losses_by_epoch[e] for e in range(1, 6)]
        late += [losses_by_epoch[e] for e in range(70, 76)]
        best = min(best, result.best_objective)
    med_early, med_late = float(np.median(early)), float(np.median(late))
    asap_obj = discrete_metrics(g, asap(g, latency), latency, ratio).lp_objective
    rand_obj = discrete_metrics(
        g, random_legal_schedule(g, latency, np.random.default_rng(0)), latency, ratio
    ).lp_objective
    dt = time.perf_counter() - t0
    ok = med_late < med_early and best < asap_obj and best < rand_obj and dt < 300
    report(8, "convergence-trend", ok,
           f"median loss {med_late:.2f} (epochs 70-75) < {med_early:.2f} (epochs 1-5), "
           f"best {best:.0f} < asap {asap_obj:.0f} and < random {rand_obj:.0f}, {dt:.1f}s < 300s")


def test_acceptance_9_determinism(tmp_path):
    rng = np.random.default_rng(900)
    g = random_dag(rng, 10, c_choices=(-1, 0), comm_choices=(1.0, 2.0))
    cfg = RunConfig(L=min_feasible_latency(g) + 1, epochs=60, seed=42)
    paths = []
    for i in range(2):
        result = run(g, cfg)
        path = tmp_path / f"traj{i}.csv"
        write_trajectory_csv(str(path), result.trajectory)
        paths.append(path)

    def strip_wall_ms(path):
        lines = path.read_text().splitlines()
        return [",".join(col for j, col in enumerate(line.split(",")) if j != 1)
                for line in lines]

    ok = strip_wall_ms(paths[0]) == strip_wall_ms(paths[1])
    report(9, "determinism", ok, "two runs byte-identical excluding wall_ms")
