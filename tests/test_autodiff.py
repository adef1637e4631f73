"""The differentiable pieces of one training epoch, one at a time: the
tempered softmax and the straight-through one-hot of ``engine.sample_stages``,
and the per-stage memory sums, floored log and cumsum crossings whose
adjoints ``engine.loss_and_grad`` forms in closed form at the hard stages.

Adjoints w.r.t. the stage-probability matrix ``s`` are read off the relaxed
loss ``helpers.reference_loss_and_grad`` by central differences (the loss
value does not depend on ``y``, ``lo`` or ``tau``); the returned logit
gradient must be that adjoint, masked to each node's window and pulled back
through the softmax ``y``. Relaxed ``s`` go to the reference, hard stages to
the engine.
"""
import math

import numpy as np
import pytest

from diffsched.engine import compile_graph, loss_and_grad, sample_stages
from diffsched.graph import Edge, Node, SchedGraph, min_feasible_latency
from helpers import (
    FixedUniformRng,
    gradient_error,
    isolated_nodes,
    random_dag,
    reference_loss_and_grad,
)


def noise_rng(noise):
    """Stub rng whose Gumbel draws equal ``noise`` (rows in topological order)."""
    return FixedUniformRng(np.exp(-np.exp(-np.asarray(noise, dtype=float))))


def zero_noise(n, length):
    return noise_rng(np.zeros((n, length)))


def simplex_rows(rng, n, length):
    x = rng.uniform(0.1, 1.0, size=(n, length))
    return x / x.sum(axis=1, keepdims=True)


def window_mask(cg, lo, length):
    cols = np.arange(length)
    return (cols >= lo[:, None]) & (cols <= cg.hi[:, None])


def pullback(adj, y, mask, tau):
    """Logit gradient of an adjoint w.r.t. s: masked, then through the
    tempered softmax y."""
    m = adj * mask
    return (m - (m * y).sum(axis=1, keepdims=True)) * y / tau


def s_adjoint(cg, s, lam, eps=1e-6):
    """Central differences of the training loss w.r.t. every entry of s."""
    lo = np.zeros(s.shape[0], dtype=np.intp)
    adj = np.zeros_like(s)
    for idx in np.ndindex(s.shape):
        up, down = s.copy(), s.copy()
        up[idx] += eps
        down[idx] -= eps
        adj[idx] = (reference_loss_and_grad(cg, up, s, lo, 1.0, lam)[0]
                    - reference_loss_and_grad(cg, down, s, lo, 1.0, lam)[0]) / (2 * eps)
    return adj


def chain(mem=0.0, comm=1.0):
    return SchedGraph(nodes=[Node(id="a", mem=mem), Node(id="b", mem=mem)],
                      edges=[Edge("a", "b", comm=comm)])


class TestLeaves:
    def test_param_reuse_sums(self):
        """A node on two edges gets the sum of both edges' adjoints."""
        nodes = [Node(id=i, mem=0.0) for i in "abc"]
        both = SchedGraph(nodes=nodes, edges=[Edge("a", "b"), Edge("a", "c")])
        ab = SchedGraph(nodes=nodes, edges=[Edge("a", "b")])
        ac = SchedGraph(nodes=nodes, edges=[Edge("a", "c")])
        rng = np.random.default_rng(1)
        s, y = simplex_rows(rng, 3, 4), simplex_rows(rng, 3, 4)
        lo = np.zeros(3, dtype=np.intp)
        got = reference_loss_and_grad(compile_graph(both, 4), s, y, lo, 0.7, 1.0)
        one = reference_loss_and_grad(compile_graph(ab, 4), s, y, lo, 0.7, 1.0)
        two = reference_loss_and_grad(compile_graph(ac, 4), s, y, lo, 0.7, 1.0)
        # comm is normalized by the total edge cost: 2 against 1 and 1
        assert got[2] == pytest.approx((one[2] + two[2]) / 2, rel=1e-12)
        np.testing.assert_allclose(got[3], (one[3] + two[3]) / 2, rtol=1e-12, atol=1e-15)
        assert np.all(got[3][0] != 0.0)


class TestElementwise:
    def test_div_by_zero(self):
        """No memory or no edge cost divides by neither total: that term and
        its gradient are 0."""
        rng = np.random.default_rng(2)
        s, y = simplex_rows(rng, 2, 3), simplex_rows(rng, 2, 3)
        lo = np.zeros(2, dtype=np.intp)
        with np.errstate(all="raise"):
            no_mem = [reference_loss_and_grad(compile_graph(chain(mem=0.0), 3), s, y, lo, 0.5, lam)
                      for lam in (0.0, 10.0)]
            no_comm = reference_loss_and_grad(
                compile_graph(chain(mem=1.0, comm=0.0), 3), s, y, lo, 0.5, 1.0)
        for total, spread, comm, grad in no_mem:
            assert spread == 0.0 and total == comm > 0.0
            assert np.all(np.isfinite(grad))
        np.testing.assert_array_equal(no_mem[0][3], no_mem[1][3])
        assert no_comm[2] == 0.0 and no_comm[0] == no_comm[1]
        assert np.all(np.isfinite(no_comm[3]))

    def test_log_gradient(self):
        """The spread adjoint is lam * mem / M * (log q + 1)."""
        rng = np.random.default_rng(3)
        mems = np.array([0.5, 1.0, 3.0, 2.0])
        cg = compile_graph(isolated_nodes(mems), 3)
        for lam in (1.0, 10.0):
            s, y = simplex_rows(rng, 4, 3), simplex_rows(rng, 4, 3)
            q = mems @ s / mems.sum()
            want = lam * mems[:, None] / mems.sum() * (np.log(q) + 1.0)
            np.testing.assert_allclose(s_adjoint(cg, s, lam), want, rtol=1e-6, atol=1e-8)
            lo = np.zeros(4, dtype=np.intp)
            grad = reference_loss_and_grad(cg, s, y, lo, 0.8, lam)[3]
            np.testing.assert_allclose(grad, pullback(want, y, True, 0.8), rtol=1e-9, atol=1e-12)

    def test_log_floor_clamps_with_zero_adjoint(self):
        """Empty stages add 0 * log(floor) = 0 to the spread, and the clamp
        passes no adjoint: there only the log(floor) factor remains."""
        mems = np.array([1.0, 2.0])
        cg = compile_graph(isolated_nodes(mems), 3)
        y = simplex_rows(np.random.default_rng(4), 2, 3)
        lo = np.zeros(2, dtype=np.intp)
        total, spread, _, grad = loss_and_grad(cg, np.array([0, 0]), y, lo, 1.0, 2.0)
        assert spread == math.log(3) and total == 2.0 * spread
        want = 2.0 * mems[:, None] / 3.0 * np.array([1.0, math.log(1e-30), math.log(1e-30)])
        np.testing.assert_allclose(grad, pullback(want, y, True, 1.0), rtol=1e-12)


class TestReductions:
    def test_sum(self):
        """q sums each stage's memory over the nodes, for hard and soft rows."""
        mems = np.array([1.0, 2.0, 3.0])
        cg = compile_graph(isolated_nodes(mems), 2)
        lo = np.zeros(3, dtype=np.intp)
        hard = np.array([0, 0, 1])  # q = [1/2, 1/2]
        assert abs(loss_and_grad(cg, hard, np.eye(2)[hard], lo, 1.0, 1.0)[1]) < 1e-15
        s = simplex_rows(np.random.default_rng(5), 3, 2)
        q = mems @ s / mems.sum()
        spread = reference_loss_and_grad(cg, s, s, lo, 1.0, 1.0)[1]
        assert spread == pytest.approx(math.log(2) + float(q @ np.log(q)), abs=1e-12)


class TestCumsum:
    def test_forward(self):
        """An edge crosses every boundary between its endpoints' stages."""
        cg = compile_graph(chain(), 3)
        lo = np.zeros(2, dtype=np.intp)
        for stages, crossed in (([1, 1], 0.0), ([0, 1], 1.0), ([0, 2], 2.0), ([1, 2], 1.0)):
            hard = np.eye(3)[stages]
            assert loss_and_grad(cg, np.array(stages), hard, lo, 1.0, 1.0)[2] == crossed
            assert reference_loss_and_grad(cg, hard, hard, lo, 1.0, 1.0)[2] == crossed
        soft = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        assert reference_loss_and_grad(cg, soft, soft, lo, 1.0, 1.0)[2] == 1.5

    def test_adjoint_is_reversed_cumsum(self):
        """Boundary i's crossing term cum_a[i] * (1 - cum_b[i]) sends the
        reversed cumsum of its factors back to the endpoints' rows."""
        rng = np.random.default_rng(6)
        length = 5
        cg = compile_graph(chain(comm=2.5), length)
        s, y = simplex_rows(rng, 2, length), simplex_rows(rng, 2, length)
        cum = s.cumsum(axis=1)
        before, after = cum[0].copy(), 1.0 - cum[1]
        before[-1] = after[-1] = 0.0  # the boundaries are 0..L-2
        want = np.stack([np.cumsum(after[::-1])[::-1], -np.cumsum(before[::-1])[::-1]])
        np.testing.assert_allclose(s_adjoint(cg, s, 0.0), want, rtol=1e-6, atol=1e-9)
        lo = np.zeros(2, dtype=np.intp)
        grad = reference_loss_and_grad(cg, s, y, lo, 0.6, 0.0)[3]
        np.testing.assert_allclose(grad, pullback(want, y, True, 0.6), rtol=1e-12, atol=1e-15)

    def test_finite_difference(self):
        """The comm term alone (graphs without memory) against central
        differences in the logits."""
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 7)), edge_prob=0.6, c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.5, 2.5), mem_choices=(0.0,))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            cg = compile_graph(g, latency)
            weights = rng.normal(size=(g.n_nodes, latency))
            noise = rng.gumbel(size=weights.shape)
            tau = float(rng.uniform(0.3, 1.5))
            lo = sample_stages(cg, weights, tau, rng)[2]
            worst = max(worst, gradient_error(cg, weights, noise, lo, tau, 1.0, 1e-6))
        assert worst < 1e-6, worst


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        cg = compile_graph(isolated_nodes([1.0]), 3)
        _, y, _ = sample_stages(cg, np.zeros((1, 3)), 1.0, zero_noise(1, 3))
        np.testing.assert_allclose(y, [[1 / 3] * 3])

    def test_low_temperature_concentrates(self):
        cg = compile_graph(isolated_nodes([1.0]), 3)
        stages, y, _ = sample_stages(cg, np.array([[0.0, 1.0, 0.0]]), 0.01, zero_noise(1, 3))
        assert y.max() > 0.99 and y.argmax() == 1 and stages == [1]

    def test_simplex_invariants(self):
        rng = np.random.default_rng(13)
        cg = compile_graph(isolated_nodes([1.0]), 6)
        for _ in range(50):
            weights = rng.normal(scale=2, size=(1, 6))
            _, y, _ = sample_stages(cg, weights, float(rng.uniform(0.3, 2)), zero_noise(1, 6))
            assert abs(y.sum() - 1.0) < 1e-12
            assert np.all(y > 0) and np.all(y < 1)

    def test_shift_changes_value_not_gradient_path(self):
        """The noise shifts y's value like a logit shift would, but it is not
        a parameter: the gradient is w.r.t. the logits and sees the noise
        only through y."""
        cg = compile_graph(chain(mem=1.0), 2)
        shift = np.array([[1.0, 0.0], [0.0, 0.5]])
        zero = np.zeros((2, 2))
        shifted = sample_stages(cg, zero, 1.0, noise_rng(shift))
        moved = sample_stages(cg, shift, 1.0, zero_noise(2, 2))
        expected = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        np.testing.assert_allclose(shifted[1][0], expected)
        assert shifted[0].tolist() == moved[0].tolist()
        np.testing.assert_allclose(shifted[1], moved[1], rtol=1e-15)
        hard = shifted[0]
        np.testing.assert_allclose(loss_and_grad(cg, hard, shifted[1], shifted[2], 1.0, 1.0)[3],
                                   loss_and_grad(cg, hard, moved[1], moved[2], 1.0, 1.0)[3],
                                   rtol=1e-15)

    def test_finite_difference(self):
        """One node's spread is a function of its softmax row alone."""
        rng = np.random.default_rng(17)
        cg = compile_graph(isolated_nodes([1.0]), 5)
        lo = np.zeros(1, dtype=np.intp)
        for _ in range(10):
            weights = rng.normal(size=(1, 5))
            tau = float(rng.uniform(0.2, 2.0))
            assert gradient_error(cg, weights, np.zeros((1, 5)), lo, tau, 1.0, 1e-5) < 1e-6


class TestStraightThrough:
    def test_argmax(self):
        cg = compile_graph(isolated_nodes([1.0]), 3)
        assert sample_stages(cg, np.array([[0.1, 0.7, 0.2]]), 1.0, zero_noise(1, 3))[0] == [1]

    def test_first_index_tie_break(self):
        cg = compile_graph(isolated_nodes([1.0]), 2)
        assert sample_stages(cg, np.array([[0.5, 0.5]]), 1.0, zero_noise(1, 2))[0] == [0]

    def test_identity_adjoint(self):
        """At the hard one-hots the adjoint w.r.t. s passes through unchanged
        to the softmax: the gradient is that adjoint, masked and pulled back
        through y. The adjoint is read off the relaxed reference."""
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(1, 7)), c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.5, 2.5), mem_choices=(0.5, 1.0, 3.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            cg = compile_graph(g, latency)
            tau = float(rng.uniform(0.3, 1.5))
            stages, y, lo = sample_stages(cg, rng.normal(size=(g.n_nodes, latency)), tau, rng)
            hard = np.eye(latency)[stages]
            # the spread's log is not differentiable at an empty stage
            lam = 1.0 if np.all(cg.mem @ hard > 0) else 0.0
            want = pullback(s_adjoint(cg, hard, lam), y, window_mask(cg, lo, latency), tau)
            grad = loss_and_grad(cg, stages, y, lo, tau, lam)[3]
            np.testing.assert_allclose(grad, want, rtol=1e-5, atol=1e-8)

    def test_rejects_non_finite(self):
        cg = compile_graph(isolated_nodes([1.0]), 2)
        for bad in (np.nan, np.inf):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                sample_stages(cg, np.array([[bad, 1.0]]), 1.0, np.random.default_rng(0))


class TestBackward:
    def test_unreached_param_gets_zeros(self):
        """Logits the loss cannot reach get zero rows: nodes without memory
        whose edges carry no cost, and a node with neither memory nor edges."""
        g = SchedGraph(
            nodes=[Node(id="p", mem=0.0), Node(id="k", mem=0.0), Node(id="x", mem=0.0),
                   Node(id="m")],
            edges=[Edge("p", "k", comm=0.0, sdc_c=-1)],
        )
        cg = compile_graph(g, 3)
        rng = np.random.default_rng(23)
        for _ in range(10):
            stages, y, lo = sample_stages(cg, rng.normal(size=(4, 3)), 0.7, rng)
            grad = loss_and_grad(cg, stages, y, lo, 0.7, 1.0)[3]
            np.testing.assert_array_equal(grad[:3], np.zeros((3, 3)))
            assert np.all(grad[3] != 0.0)

    def test_constant_only_expression(self):
        """With no memory and no edge cost there is nothing to train."""
        for g in (SchedGraph(nodes=[]), chain(mem=0.0, comm=0.0)):
            cg = compile_graph(g, 3)
            n = g.n_nodes
            s = np.full((n, 3), 1 / 3)
            lo = np.zeros(n, dtype=np.intp)
            for out in (reference_loss_and_grad(cg, s, s, lo, 1.0, 10.0),
                        loss_and_grad(cg, np.zeros(n, dtype=np.intp), s, lo, 1.0, 10.0)):
                assert out[:3] == (0.0, 0.0, 0.0)
                np.testing.assert_array_equal(out[3], np.zeros((n, 3)))

    def test_composite_expression_finite_difference(self):
        """lam * spread + comm through the softmax, against central
        differences in the logits."""
        rng = np.random.default_rng(19)
        for _ in range(10):
            g = random_dag(rng, 4, c_choices=(-1, 0), comm_choices=(0.5, 1.0),
                           mem_choices=(1.0, 2.0))
            latency = min_feasible_latency(g) + 1
            cg = compile_graph(g, latency)
            weights = rng.normal(size=(4, latency))
            lo = sample_stages(cg, weights, 0.7, rng)[2]
            noise = rng.gumbel(size=weights.shape)
            assert gradient_error(cg, weights, noise, lo, 0.7, 1.0, 1e-5) < 1e-4

    def test_determinism(self):
        g = random_dag(np.random.default_rng(29), 6, c_choices=(-1, 0, 1),
                       mem_choices=(0.5, 2.0))
        latency = min_feasible_latency(g) + 1
        cg = compile_graph(g, latency)
        weights = np.random.default_rng(30).normal(size=(6, latency))

        def epoch():
            stages, y, lo = sample_stages(cg, weights, 0.5, np.random.default_rng(31))
            return stages, y, lo, loss_and_grad(cg, stages, y, lo, 0.5, 10.0)

        (s1, y1, lo1, out1), (s2, y2, lo2, out2) = epoch(), epoch()
        assert s1.tolist() == s2.tolist() and np.array_equal(y1, y2) and np.array_equal(lo1, lo2)
        assert out1[:3] == out2[:3] and np.array_equal(out1[3], out2[3])
