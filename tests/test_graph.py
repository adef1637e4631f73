import json
import re

import numpy as np
import pytest

from diffsched.graph import (
    Edge,
    GraphError,
    Node,
    SchedGraph,
    check_legal,
    earliest_stages,
    latest_stages,
    load_graph,
    min_feasible_latency,
    save_graph,
    topological_order,
    validate,
)
from helpers import BAD_VALUE_GRAPHS, enumerate_legal, random_dag


def chain(ids, c=0, comm=1.0):
    nodes = [Node(id=i) for i in ids]
    edges = [Edge(src=a, dst=b, comm=comm, sdc_c=c) for a, b in zip(ids, ids[1:])]
    return SchedGraph(nodes=nodes, edges=edges)


class TestValidate:
    def test_empty_graph_ok(self):
        assert validate(SchedGraph()) == []

    def test_duplicate_id(self):
        g = SchedGraph(nodes=[Node(id="x"), Node(id="x")])
        assert any("duplicate id" in v for v in validate(g))

    def test_negative_edge_weight(self):
        g = SchedGraph(
            nodes=[Node(id="a"), Node(id="b")],
            edges=[Edge(src="a", dst="b", comm=-1.0)],
        )
        assert any("negative weight" in v for v in validate(g))

    def test_negative_node_mem(self):
        g = SchedGraph(nodes=[Node(id="a", mem=-2.0)])
        assert any("negative weight" in v for v in validate(g))

    @pytest.mark.parametrize("node, edge, want", [
        (Node(id="a", mem=float("nan")), Edge("a", "b"), "non-finite weight: node 'a' mem=nan"),
        (Node(id="a", mem=-float("inf")), Edge("a", "b"), "non-finite weight: node 'a' mem=-inf"),
        (Node(id="a"), Edge("a", "b", comm=float("inf")), "non-finite weight: edge ('a','b') comm=inf"),
        (Node(id="a"), Edge("a", "b", sdc_c=1.5), "non-integer constant: edge ('a','b') c=1.5"),
    ])
    def test_non_finite_weight_or_non_integer_constant(self, node, edge, want):
        g = SchedGraph(nodes=[node, Node(id="b")], edges=[edge])
        assert validate(g) == [want]

    def test_unknown_endpoint(self):
        g = SchedGraph(nodes=[Node(id="a")], edges=[Edge(src="a", dst="zz")])
        assert any("unknown endpoint" in v for v in validate(g))

    def test_self_loop(self):
        g = SchedGraph(nodes=[Node(id="a")], edges=[Edge(src="a", dst="a")])
        assert any("self loop" in v for v in validate(g))

    def test_cycle(self):
        g = SchedGraph(
            nodes=[Node(id="a"), Node(id="b")],
            edges=[Edge(src="a", dst="b"), Edge(src="b", dst="a")],
        )
        assert any("cycle" in v for v in validate(g))


class TestLoadGraph:
    def test_minimal_json(self):
        g = load_graph('{"nodes":[{"id":"a","mem":1}],"edges":[]}')
        assert g.n_nodes == 1 and g.nodes[0].mem == 1.0

    def test_six_node_dfg(self):
        # small two-stage dataflow graph used throughout the sampler tests
        g = load_graph(
            json.dumps(
                {
                    "nodes": [{"id": f"v{i}"} for i in range(6)],
                    "edges": [
                        {"src": "v0", "dst": "v4"},
                        {"src": "v1", "dst": "v4"},
                        {"src": "v2", "dst": "v3"},
                        {"src": "v3", "dst": "v5"},
                        {"src": "v4", "dst": "v5"},
                    ],
                }
            )
        )
        assert g.n_nodes == 6
        assert validate(g) == []

    def test_cyclic_input_rejected(self):
        with pytest.raises(GraphError):
            load_graph("a b\nb a")

    def test_edge_list_format(self):
        g = load_graph("# comment\na b 2.5 -1\nb c\n")
        assert [n.id for n in g.nodes] == ["a", "b", "c"]
        assert g.edges[0].comm == 2.5 and g.edges[0].sdc_c == -1
        assert g.edges[1].comm == 1.0 and g.edges[1].sdc_c == 0

    def test_malformed_json(self):
        with pytest.raises(GraphError):
            load_graph("{not json")

    def test_bad_edge_list_line(self):
        with pytest.raises(GraphError):
            load_graph("a b 1 2 3 too many")

    @pytest.mark.parametrize("text, want", BAD_VALUE_GRAPHS)
    def test_bad_value_rejected(self, text, want):
        with pytest.raises(GraphError, match=f"^{re.escape(want)}$"):
            load_graph(text)

    def test_edge_list_bad_values(self):
        with pytest.raises(GraphError, match=r"^non-integer constant: edge \('a','b'\) c=1.5$"):
            load_graph("a b 1 1.5")
        with pytest.raises(GraphError, match=r"^line 1: comm is not a number: 'x'$"):
            load_graph("a b x")

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(1, 8)), c_choices=(-2, -1, 0, 1),
                           comm_choices=(0.5, 1.0, 3.25), mem_choices=(1.0, 2.0))
            g2 = load_graph(save_graph(g))
            assert g2.nodes == g.nodes and g2.edges == g.edges


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain(["a", "b", "c"])) == ["a", "b", "c"]

    def test_isolated_declaration_order(self):
        g = SchedGraph(nodes=[Node(id="n1"), Node(id="n2")])
        assert topological_order(g) == ["n1", "n2"]

    def test_diamond_partial_order(self):
        g = SchedGraph(
            nodes=[Node(id=i) for i in "abcd"],
            edges=[Edge("a", "b"), Edge("a", "c"), Edge("b", "d"), Edge("c", "d")],
        )
        order = topological_order(g)
        assert len(order) == 4
        pos = {v: i for i, v in enumerate(order)}
        for e in g.edges:
            assert pos[e.src] < pos[e.dst]

    def test_fuzz_respects_every_edge(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = random_dag(rng, int(rng.integers(1, 9)), c_choices=(-1, 0, 1))
            order = topological_order(g)
            assert len(order) == g.n_nodes
            pos = {v: i for i, v in enumerate(order)}
            for e in g.edges:
                assert pos[e.src] < pos[e.dst]

    def test_cycle_raises(self):
        g = SchedGraph(
            nodes=[Node(id="a"), Node(id="b")],
            edges=[Edge("a", "b"), Edge("b", "a")],
        )
        with pytest.raises(GraphError):
            topological_order(g)


class TestMinFeasibleLatency:
    def test_all_zero_constants(self):
        assert min_feasible_latency(chain(["a", "b", "c"])) == 1

    def test_single_negative_edge(self):
        assert min_feasible_latency(chain(["a", "b"], c=-1)) == 2

    def test_negative_chain_by_enumeration(self):
        for k in range(1, 5):
            g = chain([f"n{i}" for i in range(k + 1)], c=-1)
            assert min_feasible_latency(g) == k + 1
            assert not any(True for _ in enumerate_legal(g, k))
            assert any(True for _ in enumerate_legal(g, k + 1))

    def test_matches_enumeration_on_fuzz(self):
        # a legal schedule exists iff L >= L_min, including positive constants
        rng = np.random.default_rng(23)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(2, 6)), c_choices=(-2, -1, 0, 1, 2))
            l_min = min_feasible_latency(g)
            assert not any(True for _ in enumerate_legal(g, l_min - 1)) or l_min == 1
            assert any(True for _ in enumerate_legal(g, l_min))


class TestStages:
    def test_earliest_with_negative_chain(self):
        g = chain(["a", "b", "c"], c=-1)
        assert earliest_stages(g) == [0, 1, 2]

    def test_latest_from_top(self):
        g = chain(["a", "b", "c"], c=-1)
        assert latest_stages(g, 4) == [1, 2, 3]

    def test_earliest_never_exceeds_latest_at_l_min(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(2, 8)), c_choices=(-2, -1, 0, 1))
            l_min = min_feasible_latency(g)
            lo, hi = earliest_stages(g), latest_stages(g, l_min)
            assert all(a <= b for a, b in zip(lo, hi))


class TestCheckLegal:
    def test_chaining_allowed(self):
        g = chain(["a", "b"])
        assert check_legal(g, {"a": 0, "b": 0}, 1) == []

    def test_backward_edge_violation(self):
        g = chain(["a", "b"])
        violations = check_legal(g, {"a": 1, "b": 0}, 2)
        assert len(violations) == 1 and "'a'" in violations[0]

    def test_negative_constant_forces_gap(self):
        g = chain(["a", "b"], c=-1)
        assert check_legal(g, {"a": 0, "b": 1}, 2) == []
        assert check_legal(g, {"a": 0, "b": 0}, 2) != []

    def test_stage_out_of_range(self):
        g = chain(["a", "b"])
        assert any("outside" in v for v in check_legal(g, {"a": 0, "b": 5}, 2))
