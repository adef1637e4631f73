"""The training loss of a hard schedule (``engine.loss_and_grad``) and the
exact discrete evaluator."""
import math

import numpy as np
import pytest

from diffsched.engine import RunConfig, compile_graph, loss_and_grad, run
from diffsched.graph import Edge, Node, SchedGraph, min_feasible_latency
from diffsched.losses import discrete_metrics, normalized_progress
from helpers import isolated_nodes, random_dag, random_legal_schedule, training_loss


def chain_ab(comm=1.0):
    return SchedGraph(
        nodes=[Node(id="a"), Node(id="b")],
        edges=[Edge("a", "b", comm=comm)],
    )


def entropy(stages, mems, latency):
    """Stage-memory entropy -sum (N_i/M) log(N_i/M), read off the trained
    spread term, which is ln L minus it."""
    return math.log(latency) - training_loss(isolated_nodes(mems), stages, latency)[1]


class TestEntropyLoss:
    def test_single_stage_is_zero(self):
        assert abs(entropy([0, 0, 0], [1.0, 1.0, 1.0], 3)) < 1e-12

    def test_uniform_split_is_log_l(self):
        assert abs(entropy([0, 1, 2, 3], [1.0] * 4, 4) - math.log(4)) < 1e-12

    def test_two_one_split(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert abs(entropy([0, 0, 1], [1.0] * 3, 2) - expected) < 1e-12

    def test_weighted_memories(self):
        expected = -(0.75) * math.log(0.75) - 0.25 * math.log(0.25)
        assert abs(entropy([0, 1], [3.0, 1.0], 2) - expected) < 1e-12

    def test_zero_total_memory_gives_zero_spread(self):
        # Every legal schedule is then equally good: no spread term and no
        # spread gradient, on hard and soft rows alike.
        cg = compile_graph(isolated_nodes([0.0, 0.0]), 3)
        y = np.array([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])
        total, spread, comm, grad = loss_and_grad(cg, y, y, np.zeros(2, dtype=np.intp), 0.5, 10.0)
        assert (total, spread, comm) == (0.0, 0.0, 0.0)
        assert not grad.any()

    def test_bounds_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            latency = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            stages = rng.integers(0, latency, size=n)
            mems = rng.choice([1.0, 2.0, 0.5], size=n)
            h = entropy(stages, mems, latency)
            assert -1e-12 <= h <= math.log(latency) + 1e-12

    def test_spread_is_log_l_minus_entropy(self):
        spread = training_loss(isolated_nodes([1.0] * 3), [0, 1, 1], 3)[1]
        h = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
        assert abs(spread - (math.log(3) - h)) < 1e-12


class TestCommLoss:
    def test_same_stage_no_crossing(self):
        assert training_loss(chain_ab(), [0, 0], 2)[2] == 0.0

    def test_single_crossing(self):
        assert abs(training_loss(chain_ab(), [0, 1], 2)[2] - 1.0) < 1e-12

    def test_edge_crossing_two_boundaries(self):
        assert abs(training_loss(chain_ab(comm=2.0), [0, 2], 3)[2] - 2.0) < 1e-12

    def test_zero_cost_graph(self):
        assert training_loss(SchedGraph(nodes=[Node(id="a")]), [0], 2)[2] == 0.0

    def test_agrees_with_discrete_evaluator(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(2, 8)), c_choices=(-1, 0),
                           comm_choices=(1.0, 2.0, 3.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            stages = random_legal_schedule(g, latency, rng)
            total_cost = sum(e.comm for e in g.edges)
            lc = training_loss(g, stages, latency)[2]
            metrics = discrete_metrics(g, stages, latency, 10.0)
            assert abs(lc * max(total_cost, 1.0) - metrics.comm_total) < 1e-9


class TestTotalLoss:
    """total = lam * spread + comm, on a chain split over 2 of 3 stages:
    spread ln 3 - ln 2, comm 1."""

    SPREAD = math.log(3) - math.log(2)

    def test_arithmetic(self):
        total, spread, comm = training_loss(chain_ab(), [0, 1], 3, lam=10.0)
        assert abs(spread - self.SPREAD) < 1e-12 and comm == 1.0
        assert abs(total - (10.0 * self.SPREAD + 1.0)) < 1e-12

    def test_lambda_zero(self):
        assert training_loss(chain_ab(), [0, 1], 3, lam=0.0)[0] == 1.0

    def test_large_lambda(self):
        total = training_loss(chain_ab(), [0, 1], 3, lam=100.0)[0]
        assert abs(total - (100 * self.SPREAD + 1.0)) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            run(chain_ab(), RunConfig(L=2, epochs=5, lam=-1.0))


class TestDiscreteMetrics:
    def test_chain_split(self):
        m = discrete_metrics(chain_ab(), {"a": 0, "b": 1}, 2, 10.0)
        assert m.peak_mem == 1.0 and m.boundary_comm == [1.0]
        assert m.lp_objective == 11.0

    def test_chain_packed(self):
        m = discrete_metrics(chain_ab(), {"a": 0, "b": 0}, 2, 10.0)
        assert m.peak_mem == 2.0 and m.boundary_comm == [0.0]
        assert m.lp_objective == 20.0

    def test_no_edges(self):
        g = SchedGraph(nodes=[Node(id="a", mem=2.0), Node(id="b", mem=3.0)])
        m = discrete_metrics(g, {"a": 0, "b": 0}, 2, 10.0)
        assert m.comm_total == 0.0 and m.peak_mem == 5.0

    def test_illegal_schedule_rejected(self):
        with pytest.raises(ValueError):
            discrete_metrics(chain_ab(), {"a": 1, "b": 0}, 2, 10.0)

    def test_telescoping_identity_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            g = random_dag(rng, int(rng.integers(2, 9)), c_choices=(-2, -1, 0),
                           comm_choices=(1.0, 2.0, 3.0, 4.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            stages = random_legal_schedule(g, latency, rng)
            m = discrete_metrics(g, stages, latency, 10.0)
            rhs = sum(e.comm * (stages[e.dst] - stages[e.src]) for e in g.edges)
            assert abs(m.comm_total - rhs) <= 1e-9


class TestNormalizedProgress:
    def test_running_best(self):
        assert normalized_progress([20.0, 11.0, 15.0]) == [1.0, 0.55, 0.55]

    def test_constant(self):
        assert normalized_progress([5.0, 5.0, 5.0]) == [1.0, 1.0, 1.0]

    def test_strictly_improving_monotone(self):
        out = normalized_progress([10.0, 8.0, 4.0, 2.0])
        assert out == [1.0, 0.8, 0.4, 0.2]
        assert all(a >= b for a, b in zip(out, out[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_progress([])

    def test_nonpositive_start_rejected(self):
        with pytest.raises(ValueError):
            normalized_progress([-1.0, 1.0])

    def test_zero_start_stays_at_one(self):
        assert normalized_progress([0.0, 1.0, 0.0]) == [1.0, 1.0, 1.0]
