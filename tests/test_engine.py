import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffsched import engine
from diffsched.engine import (
    AdamState,
    RunConfig,
    adam_step,
    compile_graph,
    gumbel_noise,
    init_params,
    run,
    run_restarts,
    sample_stages,
    score_block,
    tau_schedule,
)
from diffsched.graph import (
    Edge,
    InfeasibleError,
    Node,
    SchedGraph,
    check_legal,
    latest_stages,
    min_feasible_latency,
    save_graph,
)
from diffsched.generator import GenSpec, gen_random_workload
from diffsched.harness import main
from helpers import (
    gradient_error,
    random_dag,
    random_legal_schedule,
    reference_discrete_metrics,
    reference_loss_and_grad,
    relaxed_loss,
    unbuffered_run,
)


def chain_ab():
    return SchedGraph(nodes=[Node(id="a"), Node(id="b")], edges=[Edge("a", "b")])


@st.composite
def one_hot_cases(draw):
    """(graph, latency, seed): a DAG of 0-10 nodes whose edges go
    index-forward, some of them repeated, at a latency from L_min to
    L_min + 2; the seed draws the epoch's logits."""
    n = draw(st.integers(0, 10))
    mems = st.just(0.0) if draw(st.booleans()) else st.sampled_from((0.0, 0.5, 1.0, 3.0))
    nodes = [Node(id=f"n{i}", mem=draw(mems)) for i in range(n)]
    edges = []
    for _ in range(draw(st.integers(0, 16)) if n > 1 else 0):
        src = draw(st.integers(0, n - 2))
        edges.append(Edge(f"n{src}", f"n{draw(st.integers(src + 1, n - 1))}",
                          comm=draw(st.sampled_from((0.0, 0.1, 0.7, 2.5))),
                          sdc_c=draw(st.integers(-2, 1))))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    g = SchedGraph(nodes=nodes, edges=edges)
    return g, min_feasible_latency(g) + draw(st.integers(0, 2)), draw(st.integers(0, 2**32 - 1))


class TestInitParams:
    def test_source_bias_probability(self):
        g = SchedGraph(nodes=[Node(id="a")])
        w = init_params(compile_graph(g, 3), RunConfig(L=3, init_bias=3.0), np.random.default_rng(0))
        p0 = np.exp(w[0] / 1.0)
        p0 = p0 / p0.sum()
        expected = math.exp(3) / (math.exp(3) + 2)
        assert abs(p0[0] - expected) < 1e-12
        assert abs(expected - 0.91) < 0.01

    def test_non_source_rows_uniform_small(self):
        g = chain_ab()
        w = init_params(compile_graph(g, 4), RunConfig(L=4), np.random.default_rng(1))
        row = w[g.node_index("b")]
        assert np.all(row >= -0.5) and np.all(row <= 0.5)

    def test_same_seed_identical(self):
        g = chain_ab()
        cfg = RunConfig(L=4)
        a = init_params(compile_graph(g, 4), cfg, np.random.default_rng(7))
        b = init_params(compile_graph(g, 4), cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestAdamStep:
    def test_zero_gradient_no_decay_is_identity(self):
        w = np.array([[1.0, -2.0]])
        state = AdamState(m=np.zeros_like(w), v=np.zeros_like(w))
        out = adam_step(w, np.zeros_like(w), state, lr=0.05)
        assert np.array_equal(out, w)

    def test_first_step_with_unit_gradient(self):
        w = np.zeros((1, 2))
        state = AdamState(m=np.zeros_like(w), v=np.zeros_like(w))
        out = adam_step(w, np.ones_like(w), state, lr=0.05)
        # bias-corrected first step: delta = -lr * 1 / (1 + eps')
        np.testing.assert_allclose(out, -0.05 * np.ones_like(w), rtol=1e-6)

    def test_decoupled_weight_decay_shrinks(self):
        w = np.array([[2.0, -4.0]])
        state = AdamState(m=np.zeros_like(w), v=np.zeros_like(w))
        out = adam_step(w, np.zeros_like(w), state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(out, w * (1 - 0.1 * 0.5))


class TestTauSchedule:
    def test_endpoints(self):
        assert tau_schedule(0, 100, 1.0, 0.1) == 1.0
        assert abs(tau_schedule(99, 100, 1.0, 0.1) - 0.1) < 1e-12

    def test_midpoint_geometric(self):
        assert abs(tau_schedule(50, 101, 1.0, 0.1) - math.sqrt(0.1)) < 1e-12

    def test_single_epoch(self):
        assert tau_schedule(0, 1, 1.0, 0.1) == 1.0


class TestRunConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RunConfig(L=2, epochs=0).validate()
        with pytest.raises(ValueError):
            RunConfig(L=2, lr=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(L=2, tau_start=0.1, tau_end=1.0).validate()
        with pytest.raises(ValueError):
            RunConfig(L=2, optimizer="sgd").validate()
        with pytest.raises(ValueError):
            RunConfig(L=2, lam=-1.0).validate()


class TestRun:
    def test_single_node(self):
        g = SchedGraph(nodes=[Node(id="a")])
        result = run(g, RunConfig(L=3, epochs=20, seed=0))
        assert check_legal(g, result.best_schedule, 3) == []
        assert result.best_objective == 10.0  # ratio * mem, no communication

    def test_chain_converges_to_optimum_across_seeds(self):
        g = chain_ab()
        hits = 0
        for seed in range(20):
            result = run(g, RunConfig(L=2, epochs=500, lam=10.0, ratio=10.0, seed=seed))
            if result.best_objective == 11.0:
                hits += 1
        assert hits >= 19

    def test_every_epoch_schedule_legal(self):
        g = SchedGraph(
            nodes=[Node(id=f"v{i}") for i in range(6)],
            edges=[
                Edge("v0", "v4"),
                Edge("v1", "v4"),
                Edge("v2", "v3"),
                Edge("v3", "v5"),
                Edge("v4", "v5"),
            ],
        )
        seen = []

        def observe(epoch, stages):
            named = {n.id: s for n, s in zip(g.nodes, stages)}
            seen.append(check_legal(g, named, 3) == [])

        run(g, RunConfig(L=3, epochs=60, seed=1), on_epoch=observe)
        assert len(seen) == 60 and all(seen)

    def test_best_so_far_nonincreasing_and_minimal(self):
        rng = np.random.default_rng(4)
        g = random_dag(rng, 8, comm_choices=(1.0, 2.0))
        result = run(g, RunConfig(L=3, epochs=80, seed=2))
        bests = [p.best_so_far for p in result.trajectory]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert bests[-1] == min(p.lp_objective for p in result.trajectory)
        assert result.best_objective == bests[-1]

    def test_reproducible_modulo_wall_clock(self):
        rng = np.random.default_rng(5)
        g = random_dag(rng, 6, c_choices=(-1, 0))
        cfg = RunConfig(L=3, epochs=40, seed=9)
        r1, r2 = run(g, cfg), run(g, cfg)
        assert r1.best_schedule == r2.best_schedule
        assert r1.best_objective == r2.best_objective
        for p, q in zip(r1.trajectory, r2.trajectory):
            assert (p.epoch, p.loss_total, p.loss_entropy, p.loss_comm,
                    p.peak_mem, p.comm_total, p.lp_objective, p.best_so_far) == (
                q.epoch, q.loss_total, q.loss_entropy, q.loss_comm,
                q.peak_mem, q.comm_total, q.lp_objective, q.best_so_far)

    def test_epoch_metrics_are_discrete_metrics(self):
        """Each epoch's peak_mem, comm_total and lp_objective carry the bits
        of the dict-and-loop scorer on that epoch's schedule."""
        rng = np.random.default_rng(13)
        for i in range(80):
            g = SchedGraph() if i == 0 else random_dag(
                rng, int(rng.integers(1, 24)), c_choices=(-1, 0, 1),
                comm_choices=(0.0, 0.1, 0.7, 2.3), mem_choices=(0.1, 0.3, 0.7, 1.9))
            latency = min_feasible_latency(g) + int(rng.integers(0, 4))
            ratio = float(rng.choice([0.3, 1.0, 10.0]))
            seen = []
            cfg = RunConfig(L=latency, epochs=20, ratio=ratio, seed=int(rng.integers(100)))
            result = run(g, cfg, on_epoch=lambda epoch, stages: seen.append(stages))
            for p, stages in zip(result.trajectory, seen, strict=True):
                m = reference_discrete_metrics(g, stages, latency, ratio)
                got = (p.peak_mem, p.comm_total, p.lp_objective)
                assert [x.hex() for x in got] == [
                    x.hex() for x in (m.peak_mem, m.comm_total, m.lp_objective)]

    def test_illegal_schedule_rejected(self, monkeypatch):
        def backwards(cg, weights, tau, rng, buffers=None):
            _, y, lo = sample_stages(cg, weights, tau, rng, buffers=buffers)
            return np.array([1, 0]), y, lo

        monkeypatch.setattr(engine, "sample_stages", backwards)
        with pytest.raises(ValueError, match=r"^illegal schedule: edge \('a','b'\): 1 - 0 > 0$"):
            run(chain_ab(), RunConfig(L=2, epochs=5))

    def test_infeasible_latency(self):
        g = SchedGraph(
            nodes=[Node(id="a"), Node(id="b")],
            edges=[Edge("a", "b", sdc_c=-1)],
        )
        assert min_feasible_latency(g) == 2
        with pytest.raises(InfeasibleError):
            run(g, RunConfig(L=1, epochs=5))

    def test_timeout_truncates(self):
        rng = np.random.default_rng(6)
        g = random_dag(rng, 20)
        result = run(g, RunConfig(L=4, epochs=100_000, seed=0, timeout_ms=200))
        assert 0 < len(result.trajectory) < 100_000

    def test_adamw_runs(self):
        g = chain_ab()
        result = run(g, RunConfig(L=2, epochs=50, optimizer="adamw", seed=0))
        assert check_legal(g, result.best_schedule, 2) == []


class TestScoreBlock:
    def test_block_rows_score_as_alone(self):
        """An M-row block scored at once gives each row the bits it gets
        alone, which are the dict-and-loop scorer's."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(0, 10)), c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.1, 0.7, 2.3), mem_choices=(0.1, 0.3, 0.7, 1.9))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            schedules = [random_legal_schedule(g, latency, rng)
                         for _ in range(int(rng.integers(1, 40)))]
            block = np.array([[s[n.id] for n in g.nodes] for s in schedules],
                             dtype=np.intp).reshape(len(schedules), g.n_nodes)
            cg = compile_graph(g, latency)
            peak, comm, boundary = score_block(g, cg, block, latency)
            assert boundary.shape == (len(block), latency - 1)
            for k, row in enumerate(block):
                m = reference_discrete_metrics(g, row.tolist(), latency, 1.0)
                want = [x.hex() for x in (m.peak_mem, m.comm_total, *m.boundary_comm)]
                p1, c1, b1 = score_block(g, cg, row[None], latency)
                assert [float(x).hex() for x in (peak[k], comm[k], *boundary[k])] == want
                assert [float(x).hex() for x in (p1[0], c1[0], *b1[0])] == want

    def test_first_illegal_row_named(self):
        g = chain_ab()
        block = np.array([[0, 1], [1, 0], [0, 2]])
        with pytest.raises(ValueError, match=r"^illegal schedule: edge \('a','b'\): 1 - 0 > 0$"):
            score_block(g, compile_graph(g, 2), block, 2)

    def test_empty_graph_at_any_latency(self):
        g = SchedGraph()
        for latency in (0, 1, 3):
            peak, comm, boundary = score_block(
                g, compile_graph(g, latency), np.zeros((2, 0), dtype=np.intp), latency)
            assert peak.tolist() == [0.0, 0.0] and comm.tolist() == [0.0, 0.0]
            assert boundary.shape == (2, max(latency - 1, 0))

    def test_constants_beyond_int64(self):
        # Clamped to [-L, L] when compiled, which keeps the legal set: every
        # schedule at c = 1e20, none at c = -1e20.
        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        for c in (10**20, -(10**20)):
            g = SchedGraph(nodes=[Node(id="a"), Node(id="b")], edges=[Edge("a", "b", sdc_c=c)])
            cg = compile_graph(g, 2)
            assert cg.e_c.tolist() == [2 if c > 0 else -2]
            if c > 0:
                score_block(g, cg, rows, 2)
                continue
            for row in rows:
                with pytest.raises(ValueError, match="illegal schedule"):
                    score_block(g, cg, row[None], 2)


class TestRunRestarts:
    def test_best_of_seeds(self):
        g = chain_ab()
        cfg = RunConfig(L=2, epochs=100, seed=0)
        multi = run_restarts(g, cfg, 3)
        singles = [run(g, RunConfig(L=2, epochs=100, seed=s)).best_objective for s in range(3)]
        assert multi.best_objective == min(singles)


class TestSampleStages:
    def test_stage_is_window_argmax(self):
        """Each node takes the first argmax of (logits + noise) / tau over
        [lo, hi], lo recomputed from the returned stages of its parents."""
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(200):
            g = random_dag(rng, int(rng.integers(1, 15)), c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 1.0, 2.5), mem_choices=(0.5, 1.0, 3.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            weights = rng.normal(scale=2.0, size=(g.n_nodes, latency))
            tau = float(rng.uniform(1e-4, 1.5))
            cases.append((g, latency, weights, tau, int(rng.integers(1 << 30))))
        # Worst case for the sweeps: on a c = -1 chain whose logits favour
        # stage 0, node k settles only in sweep k + 1.
        length = 40
        chain = SchedGraph(nodes=[Node(id=f"n{i}") for i in range(length)],
                           edges=[Edge(f"n{i}", f"n{i + 1}", sdc_c=-1) for i in range(length - 1)])
        weights = np.zeros((length, length + 2))
        weights[:, 0] = 50.0
        cases.append((chain, length + 2, weights, 1.0, 0))
        for g, latency, weights, tau, seed in cases:
            cg = compile_graph(g, latency)
            stages, y, lo = sample_stages(cg, weights, tau, np.random.default_rng(seed))

            # row k of the noise block belongs to the k-th node in topological order
            u = np.random.default_rng(seed).uniform(size=(g.n_nodes, latency))
            noise = np.empty_like(u)
            noise[cg.order] = -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))
            z = (weights + noise) / tau
            hi = latest_stages(g, latency)
            want_lo = [0] * g.n_nodes
            for e in g.edges:
                v = g.node_index(e.dst)
                want_lo[v] = max(want_lo[v], stages[g.node_index(e.src)] - e.sdc_c)
            assert lo.tolist() == want_lo
            for v in range(g.n_nodes):
                assert lo[v] <= stages[v] <= hi[v]
                assert stages[v] == lo[v] + int(np.argmax(z[v, lo[v]: hi[v] + 1]))
            np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-12)
            named = {n.id: s for n, s in zip(g.nodes, stages)}
            assert check_legal(g, named, latency) == []

    def test_one_block_draws_the_per_node_stream(self):
        block = gumbel_noise(np.random.default_rng(3), (5, 4))
        rng = np.random.default_rng(3)
        rows = [gumbel_noise(rng, 4) for _ in range(5)]
        assert np.array_equal(block, np.stack(rows))


class TestLossAndGrad:
    def test_matches_finite_differences(self):
        """The closed-form gradient of lam * spread + comm at a relaxed
        schedule mask * softmax((w + noise) / tau), against central
        differences; fractional weights, c = +1 and comm = 0 edges, and
        graphs without memory."""
        rng = np.random.default_rng(12)
        eps = 1e-6
        worst = 0.0
        for i in range(60):
            mems = (0.0,) if i % 4 == 0 else (0.5, 1.0, 3.0)
            g = random_dag(rng, int(rng.integers(1, 8)), c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.5, 2.5), mem_choices=mems)
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            weights = rng.normal(scale=1.5, size=(g.n_nodes, latency))
            noise = rng.gumbel(size=weights.shape)
            tau = float(rng.uniform(0.3, 1.5))
            lam = float(rng.choice([0.0, 1.0, 10.0]))
            cg = compile_graph(g, latency)
            _, _, lo = sample_stages(cg, weights, tau, rng)
            total, spread, comm, _ = relaxed_loss(cg, weights, noise, lo, tau, lam)
            assert total == spread * lam + comm
            if cg.total_mem == 0.0:
                assert spread == 0.0
            worst = max(worst, gradient_error(cg, weights, noise, lo, tau, lam, eps))
        assert worst < 1e-6, worst

    def test_matches_relaxed_reference_at_one_hots(self):
        """At the one-hot rows of the sampled stages the engine gives the
        relaxed reference's total, spread and comm bits, and its gradient
        within rounding. Hypothesis draws the graphs (repeated edges, comm = 0
        edges, no memory, no edges, the empty graph, c in -2..1, L from L_min
        to L_min + 2); the draws are fixed, so the test is deterministic."""
        seen = []

        @settings(max_examples=250, derandomize=True, database=None, deadline=None)
        @given(case=one_hot_cases())
        def check(case):
            g, latency, seed = case
            rng = np.random.default_rng(seed)
            cg = compile_graph(g, latency)
            tau = float(rng.uniform(0.2, 1.5))
            lam = float(rng.choice([0.0, 1.0, 10.0]))
            t, y, lo = sample_stages(cg, rng.normal(scale=1.5, size=(g.n_nodes, latency)), tau, rng)
            got = engine.loss_and_grad(cg, t, y, lo, tau, lam)
            want = reference_loss_and_grad(cg, np.eye(latency)[t], y, lo, tau, lam)
            assert [x.hex() for x in got[:3]] == [float(x).hex() for x in want[:3]]
            scale = max(1.0, float(np.abs(want[3]).max(initial=0.0)))
            assert np.abs(got[3] - want[3]).max(initial=0.0) <= 1e-12 * scale
            pairs = [(e.src, e.dst) for e in g.edges]
            seen.append({
                "empty": not g.nodes, "no edges": bool(g.nodes) and not g.edges,
                "no memory": bool(g.nodes) and cg.total_mem == 0.0,
                "repeated edge": len(set(pairs)) < len(pairs),
                "comm 0 edge": any(e.comm == 0.0 for e in g.edges), "L = 1": latency == 1,
                **{f"L_min + {k}": latency == cg.l_min + k for k in range(3)},
                **{f"c = {c}": any(e.sdc_c == c for e in g.edges) for c in range(-2, 2)},
            })

        check()
        assert len(seen) >= 200
        assert all(any(row[k] for row in seen) for k in seen[0]), seen

    def test_run_matches_run_on_the_reference(self, monkeypatch):
        """Whole runs: 50 epochs on random small DAGs sample the same stages
        and record the same losses when the engine's loss is swapped for the
        relaxed reference at the one-hot rows."""
        rng = np.random.default_rng(14)
        cases = []
        for i in range(100):
            g = random_dag(rng, int(rng.integers(1, 9)), edge_prob=0.5, c_choices=(-2, -1, 0, 1),
                           comm_choices=(0.0, 0.5, 1.0, 2.5),
                           mem_choices=(0.0,) if i % 5 == 0 else (0.5, 1.0, 3.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            cases.append((g, RunConfig(L=latency, epochs=50, seed=int(rng.integers(1 << 30)),
                                       optimizer=("adam", "adamw")[i % 2])))

        def runs():
            out = []
            for g, config in cases:
                stages = []
                result = run(g, config, on_epoch=lambda _, s: stages.append(s))
                out.append((stages, [replace(p, wall_ms=0) for p in result.trajectory]))
            return out

        fast = runs()
        monkeypatch.setattr(engine, "loss_and_grad", lambda cg, t, y, lo, tau, lam, buffers=None:
                            reference_loss_and_grad(cg, np.eye(y.shape[1])[t], y, lo, tau, lam))
        assert fast == runs()


class TestEpochBuffers:
    """``run`` keeps its epoch's |V| x L arrays in one set of buffers; the
    public epoch functions called without buffers allocate new arrays."""

    def test_run_matches_unbuffered_loop(self, monkeypatch):
        """Whole runs and the public functions' loop without buffers give the
        same stages, trajectories and best schedule bit for bit, and fail at
        the same epoch with the same error: a run without ALAP caps can meet
        an empty window, and one with a huge learning rate a non-finite row."""
        rng = np.random.default_rng(15)
        seen = []
        for i in range(130):
            g = random_dag(rng, int(rng.integers(1, 10)), edge_prob=0.5,
                           c_choices=(-2, -1, 0, 1),
                           comm_choices=(0.0,) if i % 7 == 3 else (0.0, 0.5, 1.0, 2.5),
                           mem_choices=(0.0,) if i % 5 == 0 else (0.5, 1.0, 3.0))
            latency = min_feasible_latency(g) + i % 3
            cg = compile_graph(g, latency)
            config = RunConfig(L=latency, epochs=30, seed=int(rng.integers(1 << 30)),
                               optimizer=("adam", "adamw")[i % 2])
            if i >= 100 and i % 2:
                cg = replace(cg, hi=np.full(g.n_nodes, latency - 1), capped=cg.capped[:0])
            elif i >= 100:
                config = replace(config, lr=1e308)
            monkeypatch.setattr(engine, "compile_graph", lambda g, latency: cg)
            stages = []
            with np.errstate(all="ignore"):
                want = unbuffered_run(g, config, cg)
                try:
                    result = run(g, config, on_epoch=lambda _, s: stages.append(s))
                except ValueError as exc:
                    got = stages, (type(exc), str(exc))
                else:
                    got = stages, ([[p.epoch] + [x.hex() for x in (
                        p.loss_total, p.loss_entropy, p.loss_comm, p.peak_mem, p.comm_total,
                        p.lp_objective, p.best_so_far)] for p in result.trajectory],
                        result.best_schedule, result.best_objective.hex())
            assert got == want
            failed = want[1][0] if isinstance(want[1][0], type) else None  # else rows
            seen.append({
                "adam": config.optimizer == "adam", "adamw": config.optimizer == "adamw",
                "no memory": cg.total_mem == 0.0, "no comm": cg.total_comm == 0.0,
                **{f"L_min + {k}": latency == cg.l_min + k for k in range(3)},
                **{f"c = {c}": any(e.sdc_c == c for e in g.edges) for c in range(-2, 2)},
                "empty window later": failed is InfeasibleError and len(want[0]) > 0,
                "non-finite row later": failed is ValueError and len(want[0]) > 0,
            })
        assert all(any(row[k] for row in seen) for k in seen[0]), seen

    def test_unbuffered_calls_return_new_arrays(self):
        rng = np.random.default_rng(16)
        g = random_dag(rng, 6, c_choices=(-1, 0))
        cg = compile_graph(g, 4)
        weights = init_params(cg, RunConfig(L=4), rng)
        before = weights.copy()
        t1, y1, lo1 = sample_stages(cg, weights, 0.5, rng)
        t2, y2, _ = sample_stages(cg, weights, 0.5, rng)
        assert not np.shares_memory(y1, y2)
        grad = engine.loss_and_grad(cg, t1, y1, lo1, 0.5, 1.0)[3]
        state = AdamState(m=np.zeros_like(weights), v=np.zeros_like(weights))
        new = adam_step(weights, grad, state, 0.1, weight_decay=0.5)
        arrays = (weights, y1, y2, grad, new, state.m, state.v)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1:])
        assert np.array_equal(weights, before)

    @pytest.mark.parametrize("optimizer", ["adam", "adamw"])
    def test_epoch_allocates_at_most_one_matrix(self, optimizer):
        """Between two epochs' callbacks, after two warm-up epochs, the
        traced allocations peak below two |V| x L float matrices: the comm
        adjoint's bincount is the one such array an epoch allocates."""
        g = gen_random_workload(GenSpec(n_nodes=2000, depth=20, density=0.01, seed=1))
        latency = 20
        transient, base = [], [0]

        def on_epoch(epoch, stages):
            current, peak = tracemalloc.get_traced_memory()
            if epoch >= 3:
                transient.append(peak - base[0])
            tracemalloc.reset_peak()
            base[0] = current

        tracemalloc.start()
        try:
            run(g, RunConfig(L=latency, epochs=8, optimizer=optimizer), on_epoch=on_epoch)
        finally:
            tracemalloc.stop()
        assert len(transient) == 5
        assert max(transient) < 2 * g.n_nodes * latency * 8


def one_edge_graph(c=0, mem=1.0):
    return SchedGraph(
        nodes=[Node(id="a", mem=mem), Node(id="b", mem=mem)],
        edges=[Edge("a", "b", sdc_c=c)],
    )


class TestEpochErrors:
    """Each way an epoch can fail, and the valid inputs that must not: a
    graph without memory and a window far from the row's maximum at low
    temperature. Errors surface from the CLI with their exit code."""

    def test_zero_total_memory(self):
        for g in (one_edge_graph(mem=0.0), SchedGraph()):
            result = run(g, RunConfig(L=2, epochs=5))
            assert check_legal(g, result.best_schedule, 2) == []
            assert len(result.trajectory) == 5
            assert all(p.loss_entropy == 0.0 for p in result.trajectory)
            assert result.best_objective == min(p.lp_objective for p in result.trajectory)

    def test_non_finite_row(self):
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"^sample_stages: non-finite input \(logits or noise\)$"):
            run(one_edge_graph(), RunConfig(L=2, epochs=5, init_bias=math.inf))

    def test_underflowed_window(self):
        # b is forced to stage 1; at tau = 1e-4 a noise gap above ~0.075 in
        # favour of stage 0 underflows b's only in-window probability, which
        # must not keep the window's argmax from being taken.
        g = one_edge_graph(c=-1)
        cfg = RunConfig(L=2, epochs=50, tau_start=1e-4, tau_end=1e-4, seed=3)
        result = run(g, cfg)
        assert len(result.trajectory) == 50
        assert result.best_schedule == {"a": 0, "b": 1}

    def test_empty_window(self, monkeypatch):
        # run() refuses L below the minimum feasible latency, which is what
        # keeps windows nonempty; lift that check to reach the epoch's own.
        monkeypatch.setattr(engine, "compile_graph",
                            lambda g, latency: replace(compile_graph(g, latency), l_min=1))
        with pytest.raises(InfeasibleError, match="^combined constraint mask has no feasible stage$"):
            run(one_edge_graph(c=-1), RunConfig(L=1, epochs=5))

    def test_predecessor_window_overflows(self, monkeypatch):
        # Without the ALAP cap, a source pushed to the last stage leaves its
        # c = -1 consumer no stage.
        monkeypatch.setattr(engine, "compile_graph", lambda g, latency: replace(
            compile_graph(g, latency), hi=np.full(g.n_nodes, latency - 1)))
        with pytest.raises(InfeasibleError, match="^constraint needs stage 2 but only 2 stages exist$"):
            run(one_edge_graph(c=-1), RunConfig(L=2, epochs=5, init_bias=-50.0))

    def test_cli_exit_codes(self, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        zero.write_text(save_graph(one_edge_graph(mem=0.0)))
        chain = tmp_path / "chain.json"
        chain.write_text(save_graph(one_edge_graph(c=-1)))
        out = tmp_path / "run"
        assert main(["schedule", "-g", str(zero), "-L", "2", "--epochs", "5",
                     "--out", str(out)]) == 0
        assert "best objective: 0.0" in capsys.readouterr().out
        assert main(["schedule", "-g", str(chain), "-L", "2", "--epochs", "50",
                     "--tau-start", "1e-4", "--tau-end", "1e-4", "--seed", "3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["stages"] == {"a": 0, "b": 1}
