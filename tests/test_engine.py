import json
import math
from dataclasses import replace

import numpy as np
import pytest

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
from diffsched.harness import main
from diffsched.losses import discrete_metrics
from helpers import gradient_error, random_dag, reference_loss_and_grad, relaxed_loss


def chain_ab():
    return SchedGraph(nodes=[Node(id="a"), Node(id="b")], edges=[Edge("a", "b")])


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
        of losses.discrete_metrics on that epoch's schedule."""
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
                m = discrete_metrics(g, stages, latency, ratio)
                got = (p.peak_mem, p.comm_total, p.lp_objective)
                assert [x.hex() for x in got] == [
                    x.hex() for x in (m.peak_mem, m.comm_total, m.lp_objective)]

    def test_illegal_schedule_rejected(self, monkeypatch):
        def backwards(cg, weights, tau, rng):
            _, y, lo = sample_stages(cg, weights, tau, rng)
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

    def test_scatter_matches_edge_by_edge_reference_bit_for_bit(self):
        """The one-bincount comm adjoint adds each cell's terms in the order
        of an np.add.at over the sources and an np.subtract.at over the
        destinations: equal bits, signed zeros included. Parallel edges and
        comm = 0 edges, at the hard one-hots and at a relaxed schedule."""
        rng = np.random.default_rng(13)
        for i in range(150):
            g = random_dag(rng, int(rng.integers(1, 14)), edge_prob=0.5, c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.1, 0.7, 2.5, 3.0),
                           mem_choices=(0.0,) if i % 5 == 0 else (0.5, 1.0, 3.0))
            if g.edges:  # repeat some edges: the same src -> dst twice
                g = SchedGraph(nodes=g.nodes, edges=g.edges + [
                    g.edges[k] for k in rng.integers(len(g.edges), size=len(g.edges) // 2 + 1)])
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            cg = compile_graph(g, latency)
            weights = rng.normal(scale=1.5, size=(g.n_nodes, latency))
            tau = float(rng.uniform(0.2, 1.5))
            lam = float(rng.choice([0.0, 1.0, 10.0]))
            stages, y, lo = sample_stages(cg, weights, tau, rng)
            cols = np.arange(latency)
            soft = ((cols >= lo[:, None]) & (cols <= cg.hi[:, None])) * y
            for s in (np.eye(latency)[stages], soft):
                got = engine.loss_and_grad(cg, s, y, lo, tau, lam)
                want = reference_loss_and_grad(cg, s, y, lo, tau, lam)
                assert [float(x).hex() for x in got[:3]] == [float(x).hex() for x in want[:3]]
                assert np.array_equal(got[3], want[3])
                assert np.array_equal(np.signbit(got[3]), np.signbit(want[3]))


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
