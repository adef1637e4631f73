"""Sampling of legal schedules: ``engine.sample_stages`` and its noise."""
from dataclasses import replace

import numpy as np
import pytest

from diffsched.engine import compile_graph, gumbel_noise, loss_and_grad, sample_stages
from diffsched.graph import (
    Edge,
    InfeasibleError,
    Node,
    SchedGraph,
    check_legal,
    min_feasible_latency,
)
from helpers import FixedUniformRng, random_dag


def uncapped(g, length):
    """The compiled graph without ALAP caps, so that a test can place a
    parent anywhere."""
    return replace(compile_graph(g, length), hi=np.full(g.n_nodes, length - 1))


def pinned(cg, parent_stages, length):
    """Logits that pin each listed node to its stage; the last node is free."""
    weights = np.zeros((len(cg.order), length))
    for v, t in enumerate(parent_stages):
        weights[v, t] = 100.0
    return weights


def child_window(cg, parent_stages, length):
    """0/1 mask of the last node's window once its parents are placed."""
    stages, _, lo = sample_stages(cg, pinned(cg, parent_stages, length), 1.0,
                                  np.random.default_rng(0))
    assert stages[: len(parent_stages)].tolist() == list(parent_stages)
    return [float(lo[-1] <= j <= cg.hi[-1]) for j in range(length)]


def fan_in(cs):
    """Parents p0, p1, ... each feeding the last node k with constant cs[i]."""
    nodes = [Node(id=f"p{i}") for i in range(len(cs))] + [Node(id="k")]
    return SchedGraph(nodes=nodes, edges=[Edge(f"p{i}", "k", sdc_c=c) for i, c in enumerate(cs)])


class TestGumbelNoise:
    def test_closed_forms(self):
        g = gumbel_noise(FixedUniformRng([np.exp(-1.0), np.exp(-np.e)]), 2)
        np.testing.assert_allclose(g, [0.0, -1.0], atol=1e-12)

    def test_mean_matches_euler_mascheroni(self):
        rng = np.random.default_rng(0)
        g = gumbel_noise(rng, 10**6)
        assert abs(g.mean() - 0.5772156649) < 0.01

    def test_extreme_uniforms_stay_finite(self):
        g = gumbel_noise(FixedUniformRng([0.0, 1.0]), 2)
        assert np.all(np.isfinite(g))


class TestMaskFromParent:
    """A parent at stage t under stage(parent) - stage(child) <= c leaves
    the child the stages >= t - c, clamped at 0."""

    def test_same_stage_allowed_with_zero_constant(self):
        assert child_window(uncapped(fan_in([0]), 3), [1], 3) == [0, 1, 1]

    def test_negative_constant_shifts_right(self):
        assert child_window(uncapped(fan_in([-1]), 3), [1], 3) == [0, 0, 1]

    def test_infeasible_when_minimum_stage_overflows(self):
        cg = uncapped(fan_in([-1]), 3)
        with pytest.raises(InfeasibleError, match="constraint needs stage 3"):
            sample_stages(cg, pinned(cg, [2], 3), 1.0, np.random.default_rng(0))

    def test_positive_constant_clamps_at_zero(self):
        assert child_window(uncapped(fan_in([2]), 3), [1], 3) == [1, 1, 1]

    def test_nondecreasing_zero_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            length = int(rng.integers(1, 8))
            t = int(rng.integers(length))
            c = int(rng.integers(-3, 4))
            try:
                mask = child_window(uncapped(fan_in([c]), length), [t], length)
            except InfeasibleError:
                assert t - c >= length
                continue
            assert mask == [float(j >= t - c) for j in range(length)]
            assert np.all(np.diff(mask) >= 0)


class TestCombineMasks:
    def test_intersection(self):
        assert child_window(uncapped(fan_in([0, 0]), 3), [1, 0], 3) == [0, 1, 1]
        assert child_window(uncapped(fan_in([0, -1]), 3), [1, 1], 3) == [0, 0, 1]

    def test_empty_list_is_all_ones(self):
        assert child_window(compile_graph(fan_in([]), 3), [], 3) == [1, 1, 1]

    def test_all_zero_infeasible(self):
        # the parent leaves k stages >= 2, the cap only stages <= 1
        cg = uncapped(fan_in([-1]), 3)
        cg = replace(cg, hi=np.array([2, 1]))
        with pytest.raises(InfeasibleError, match="no feasible stage"):
            sample_stages(cg, pinned(cg, [1], 3), 1.0, np.random.default_rng(0))


class TestFirstFailure:
    """With several failing nodes, the error is the one a walk in
    topological order meets first, and at one node an empty window before a
    non-finite row."""

    @staticmethod
    def graph():
        # a is declared first but placed last; p pinned to stage 2 leaves it
        # no stage, and b's window is emptied by its cap
        g = SchedGraph(nodes=[Node(id="a"), Node(id="b"), Node(id="p")],
                       edges=[Edge("b", "a"), Edge("p", "a", sdc_c=-1)])
        cg = uncapped(g, 3)
        return cg, replace(cg, hi=np.array([2, -1, 2])), pinned(cg, [0, 0, 2], 3)

    def test_topological_order_not_declaration_order(self):
        cg, empty_b, weights = self.graph()
        with pytest.raises(InfeasibleError, match="^combined constraint mask has no feasible stage$"):
            sample_stages(empty_b, weights, 1.0, np.random.default_rng(0))
        with pytest.raises(InfeasibleError, match="^constraint needs stage 3 but only 3 stages exist$"):
            sample_stages(cg, weights, 1.0, np.random.default_rng(0))

    def test_non_finite_row(self):
        cg, empty_b, weights = self.graph()
        for v, broken, want in ((0, empty_b, "no feasible stage"), (1, empty_b, "no feasible stage"),
                                (2, cg, "non-finite input"), (2, empty_b, "no feasible stage")):
            w = weights.copy()
            w[v] = np.nan
            with pytest.raises(ValueError, match=want):
                sample_stages(broken, w, 1.0, np.random.default_rng(0))


class TestConstrainedSample:
    def test_masked_out_stage_never_sampled(self):
        rng = np.random.default_rng(3)
        cg = compile_graph(fan_in([0]), 3)
        weights = pinned(cg, [1], 3)
        weights[1] = [10.0, 0.0, 0.0]  # strongly favors stage 0
        for _ in range(200):
            stages, _, _ = sample_stages(cg, weights, 1.0, rng)
            assert stages[1] != 0

    def test_dominant_logit_wins_at_low_temperature(self):
        cg = compile_graph(fan_in([]), 3)
        zero_noise = FixedUniformRng(np.full((1, 3), np.exp(-1.0)))
        stages, y, _ = sample_stages(cg, np.array([[0.0, 5.0, 0.0]]), 0.01, zero_noise)
        assert stages == [1]
        np.testing.assert_allclose(y, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_first_stage_wins_a_tie(self):
        cg = compile_graph(fan_in([]), 3)
        zero_noise = FixedUniformRng(np.full((1, 3), np.exp(-1.0)))
        stages, _, _ = sample_stages(cg, np.array([[0.0, 2.0, 2.0]]), 1.0, zero_noise)
        assert stages == [1]

    def test_single_feasible_stage(self):
        rng = np.random.default_rng(4)
        cg = compile_graph(fan_in([-1]), 2)  # p capped at 0, k forced to 1
        for _ in range(20):
            stages, _, _ = sample_stages(cg, rng.normal(scale=5, size=(2, 2)), 0.5, rng)
            assert stages.tolist() == [0, 1]

    def test_soft_gradient_flows_to_logits(self):
        cg = compile_graph(fan_in([0]), 3)
        weights = np.array([[0.0, 50.0, 0.0], [0.5, -0.5, 0.0]])
        stages, y, lo = sample_stages(cg, weights, 1.0, np.random.default_rng(0))
        grad = loss_and_grad(cg, stages, y, lo, 1.0, 10.0)[3]
        assert np.any(grad[1] != 0.0)

    def test_uniform_distribution_sanity(self):
        rng = np.random.default_rng(5)
        length = 4
        nodes = 10_000
        cg = compile_graph(SchedGraph(nodes=[Node(id=f"n{i}") for i in range(nodes)]), length)
        counts = np.zeros(length)
        for _ in range(10):
            stages, _, _ = sample_stages(cg, np.zeros((nodes, length)), 1.0, rng)
            counts += np.bincount(stages, minlength=length)
        freqs = counts / counts.sum()
        assert counts.sum() == 100_000
        assert np.all(np.abs(freqs - 1.0 / length) < 0.02)


class TestSampleSchedule:
    def test_single_node(self):
        cg = compile_graph(fan_in([]), 3)
        stages, y, _ = sample_stages(cg, np.zeros((1, 3)), 1.0, np.random.default_rng(0))
        assert stages[0] in (0, 1, 2)
        assert abs(y[0].sum() - 1.0) < 1e-12

    def test_join_node_respects_both_parents(self):
        # v5 consumes v4 and v3; pin both parents to stage 1, bias v5 to
        # stage 0: the combined window [1, 2] must push v5 to stage >= 1.
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
        cg = compile_graph(g, 3)
        weights = np.zeros((6, 3))
        for vid in ("v0", "v1", "v2"):
            weights[g.node_index(vid), 0] = 50.0
        for vid in ("v3", "v4"):
            weights[g.node_index(vid), 1] = 50.0
        weights[g.node_index("v5"), 0] = 50.0
        rng = np.random.default_rng(6)
        for _ in range(50):
            stages, _, _ = sample_stages(cg, weights, 0.2, rng)
            assert stages[g.node_index("v3")] == 1
            assert stages[g.node_index("v4")] == 1
            assert stages[g.node_index("v5")] >= 1

    def test_legality_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            g = random_dag(rng, int(rng.integers(1, 12)), c_choices=(-2, -1, 0, 1))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            weights = rng.normal(scale=2.0, size=(g.n_nodes, latency))
            stages, _, _ = sample_stages(compile_graph(g, latency), weights,
                                         float(rng.uniform(0.1, 1.5)), rng)
            named = {n.id: s for n, s in zip(g.nodes, stages)}
            assert check_legal(g, named, latency) == []

    def test_determinism(self):
        rng = np.random.default_rng(8)
        g = random_dag(rng, 8, c_choices=(-1, 0))
        latency = min_feasible_latency(g) + 1
        cg = compile_graph(g, latency)
        weights = rng.normal(size=(8, latency))
        a = sample_stages(cg, weights, 0.7, np.random.default_rng(42))[0]
        b = sample_stages(cg, weights, 0.7, np.random.default_rng(42))[0]
        assert a.tolist() == b.tolist()

    def test_weight_shape_mismatch(self):
        cg = compile_graph(SchedGraph(nodes=[Node(id="a"), Node(id="b")]), 3)
        with pytest.raises(ValueError):
            sample_stages(cg, np.zeros((1, 3)), 1.0, np.random.default_rng(0))
