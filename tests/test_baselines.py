import numpy as np
import pytest

from diffsched.baselines import (
    alap,
    asap,
    brute_force,
    check_ilp_assignment,
    export_ilp,
    greedy_balance,
    ilp_assignment_from_schedule,
    legal_blocks,
)
from diffsched.engine import compile_graph, score_block
from diffsched.graph import (
    Edge,
    InfeasibleError,
    Node,
    SchedGraph,
    check_legal,
    latest_stages,
    min_feasible_latency,
    topological_order,
)
from diffsched.losses import discrete_metrics
from helpers import enumerate_legal, random_dag, reference_brute_force


def chain_ab():
    return SchedGraph(nodes=[Node(id="a"), Node(id="b")], edges=[Edge("a", "b")])


class TestBruteForce:
    def test_chain_optimum(self):
        stages, obj = brute_force(chain_ab(), 2, 10.0)
        assert stages == {"a": 0, "b": 1} and obj == 11.0

    def test_single_node_tie_break(self):
        g = SchedGraph(nodes=[Node(id="a", mem=2.0)])
        stages, obj = brute_force(g, 5, 10.0)
        assert stages == {"a": 0} and obj == 20.0

    def test_independent_nodes_split(self):
        g = SchedGraph(nodes=[Node(id="a"), Node(id="b")])
        stages, obj = brute_force(g, 2, 10.0)
        assert obj == 10.0 and stages["a"] != stages["b"]

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            g = random_dag(rng, int(rng.integers(2, 6)), c_choices=(-1, 0, 1),
                           comm_choices=(1.0, 2.0, 3.0))
            latency = max(min_feasible_latency(g), int(rng.integers(2, 4)))
            _, obj = brute_force(g, latency, 10.0)
            naive = min(
                discrete_metrics(g, s, latency, 10.0).lp_objective
                for s in enumerate_legal(g, latency)
            )
            assert obj == naive

    def test_size_guard(self):
        g = SchedGraph(nodes=[Node(id=f"n{i}") for i in range(30)])
        with pytest.raises(ValueError):
            brute_force(g, 10, 10.0)

    def test_infeasible_latency(self):
        g = SchedGraph(nodes=[Node(id="a"), Node(id="b")],
                       edges=[Edge("a", "b", sdc_c=-1)])
        with pytest.raises(InfeasibleError):
            brute_force(g, 1, 10.0)


def redeclared(g, rng):
    """``g`` with its nodes declared in a random order, so that topological
    order (the enumeration's) and declaration order (the tie-break's)
    differ."""
    return SchedGraph(nodes=[g.nodes[i] for i in rng.permutation(g.n_nodes)], edges=g.edges)


def legal_rows(g, latency):
    return np.concatenate(list(legal_blocks(compile_graph(g, latency))))


class TestBlockOracle:
    """brute_force against ``reference_brute_force``, a DFS scoring leaf by
    leaf: the same schedule and the same objective bits."""

    def assert_same(self, g, latency, ratio=10.0):
        stages, obj = brute_force(g, latency, ratio)
        want_stages, want_obj = reference_brute_force(g, latency, ratio)
        assert stages == want_stages
        assert obj.hex() == want_obj.hex()

    def random_cases(self, seed, count, **weights):
        """``count`` random DAGs of 0-12 nodes with c in {-2..1} at L_min to
        L_min + 2, drawn again while they have over 2,000 legal schedules."""
        rng = np.random.default_rng(seed)
        cases = []
        while len(cases) < count:
            g = redeclared(random_dag(rng, int(rng.integers(0, 13)), edge_prob=0.35,
                                      c_choices=(-2, -1, 0, 1), **weights), rng)
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            if latency ** g.n_nodes <= 10**7 and len(legal_rows(g, latency)) <= 2000:
                cases.append((g, latency))
        return cases

    def test_random_dags(self):
        for g, latency in self.random_cases(
                71, 120, comm_choices=(0.0, 1.0, 2.0, 3.0), mem_choices=(0.5, 1.0, 2.0)):
            self.assert_same(g, latency)

    def test_fractional_weights_near_ties(self):
        # 0.1 + 0.2 and 0.3 differ in their last bits, inside the tie band.
        rng = np.random.default_rng(72)
        for g, latency in self.random_cases(
                72, 120, comm_choices=(0.1, 0.2, 0.3), mem_choices=(0.1, 0.2, 0.3, 0.7)):
            self.assert_same(g, latency, ratio=float(rng.choice([0.1, 1.0, 3.0])))

    def test_all_zero_weights_every_leaf_ties(self):
        for g, latency in self.random_cases(73, 60, comm_choices=(0.0,), mem_choices=(0.0,)):
            self.assert_same(g, latency)
            assert brute_force(g, latency, 10.0)[1] == 0.0

    def test_tie_rule_across_blocks(self):
        # 5,760 legal schedules: an optimum within 1e-12 comes in the first
        # block, and a later block holds one with a smaller declaration-order
        # vector, which wins.
        rng = np.random.default_rng(1)
        g = redeclared(random_dag(rng, 7, edge_prob=0.25, c_choices=(1, 0),
                                  comm_choices=(0.1, 0.2, 0.3),
                                  mem_choices=(0.1, 0.2, 0.3, 0.7)), rng)
        rows = legal_rows(g, 4)
        assert len(rows) > 1 << 12
        self.assert_same(g, 4, ratio=1.0)
        stages, obj = brute_force(g, 4, 1.0)
        peak, comm, _ = score_block(g, compile_graph(g, 4), rows, 4)
        in_band = np.flatnonzero(np.abs(comm + peak - obj) <= 1e-12)
        winner = np.flatnonzero((rows == [stages[n.id] for n in g.nodes]).all(axis=1))
        assert in_band[0] < 1 << 12 <= winner[0]

    def test_blocks_list_each_legal_schedule_once(self):
        rng = np.random.default_rng(74)
        for _ in range(30):
            g = redeclared(random_dag(rng, int(rng.integers(1, 6)), c_choices=(-1, 0, 1)), rng)
            latency = min_feasible_latency(g) + int(rng.integers(0, 2))
            blocks = list(legal_blocks(compile_graph(g, latency)))
            assert all(len(b) <= 1 << 12 for b in blocks)
            got = [tuple(r) for r in np.concatenate(blocks).tolist()]
            want = {tuple(s[n.id] for n in g.nodes) for s in enumerate_legal(g, latency)}
            assert len(got) == len(set(got)) and set(got) == want


class TestAsapAlap:
    def test_zero_constant_chain(self):
        g = SchedGraph(
            nodes=[Node(id=i) for i in "abc"],
            edges=[Edge("a", "b"), Edge("b", "c")],
        )
        assert asap(g, 3) == {"a": 0, "b": 0, "c": 0}
        assert alap(g, 3) == {"a": 2, "b": 2, "c": 2}

    def test_negative_chain_longest_path(self):
        g = SchedGraph(
            nodes=[Node(id=i) for i in "abc"],
            edges=[Edge("a", "b", sdc_c=-1), Edge("b", "c", sdc_c=-1)],
        )
        assert asap(g, 3) == {"a": 0, "b": 1, "c": 2}
        assert alap(g, 3) == {"a": 0, "b": 1, "c": 2}

    def test_legality_and_ordering_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(1, 9)), c_choices=(-2, -1, 0, 1))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            lo, hi = asap(g, latency), alap(g, latency)
            assert check_legal(g, lo, latency) == []
            assert check_legal(g, hi, latency) == []
            assert all(lo[k] <= hi[k] for k in lo)

    def test_infeasible(self):
        g = SchedGraph(nodes=[Node(id="a"), Node(id="b")],
                       edges=[Edge("a", "b", sdc_c=-2)])
        with pytest.raises(InfeasibleError):
            asap(g, 2)


class TestGreedyBalance:
    def test_chain_matches_oracle(self):
        stages = greedy_balance(chain_ab(), 2, 10.0)
        assert stages == {"a": 0, "b": 1}
        assert discrete_metrics(chain_ab(), stages, 2, 10.0).lp_objective == 11.0

    def test_single_node(self):
        g = SchedGraph(nodes=[Node(id="a")])
        assert greedy_balance(g, 3, 10.0) == {"a": 0}

    def test_always_legal_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(1, 10)), c_choices=(-1, 0),
                           comm_choices=(1.0, 2.0))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            stages = greedy_balance(g, latency, 10.0)
            assert check_legal(g, stages, latency) == []

    def test_each_node_takes_the_first_cheapest_stage(self):
        """In topological order, each node takes the first stage of its
        window minimizing comm + ratio * peak over the nodes placed so far."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(1, 12)), c_choices=(-1, 0, 1),
                           comm_choices=(0.0, 0.3, 1.7), mem_choices=(0.2, 0.9, 2.5))
            latency = min_feasible_latency(g) + int(rng.integers(0, 3))
            ratio = float(rng.choice([0.5, 10.0]))
            stages = greedy_balance(g, latency, ratio)
            hi = latest_stages(g, latency)
            placed: dict[str, int] = {}

            def cost(trial):
                stage_mem = [0.0] * latency
                for n in g.nodes:
                    if n.id in trial:
                        stage_mem[trial[n.id]] += n.mem
                comm = sum(e.comm * max(0, trial[e.dst] - trial[e.src])
                           for e in g.edges if e.src in trial and e.dst in trial)
                return comm + ratio * max(stage_mem)

            for v in topological_order(g):
                lo = max([0] + [placed[e.src] - e.sdc_c for e in g.edges if e.dst == v])
                costs = [cost({**placed, v: s}) for s in range(lo, hi[g.node_index(v)] + 1)]
                k = stages[v] - lo
                assert 0 <= k < len(costs)
                assert all(c > costs[k] for c in costs[:k])
                assert all(c >= costs[k] - 1e-9 for c in costs[k:])
                placed[v] = stages[v]

    def test_usually_not_worse_than_asap(self):
        # empirical comparison recorded as a report, not a hard bound per case
        rng = np.random.default_rng(4)
        wins = 0
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(2, 10)), comm_choices=(1.0, 2.0, 3.0))
            latency = 3
            greedy_obj = discrete_metrics(g, greedy_balance(g, latency, 10.0), latency, 10.0).lp_objective
            asap_obj = discrete_metrics(g, asap(g, latency), latency, 10.0).lp_objective
            wins += greedy_obj <= asap_obj
        print(f"greedy <= asap on {wins}/100 fuzz instances")
        assert wins >= 70


class TestExportIlp:
    def test_chain_structure(self):
        model, text = export_ilp(chain_ab(), 2, 10.0)
        binaries = [v for v, k in model.variables.items() if k == "binary"]
        assert sorted(b for b in binaries if b.startswith("s_")) == [
            "s_0_0", "s_0_1", "s_1_0", "s_1_1",
        ]
        assert [b for b in binaries if b.startswith("y_")] == ["y_0_0"]
        names = [c.name for c in model.constraints]
        assert names.count("dep_0") == 1
        assert {"mem_0", "mem_1"} <= set(names)
        assert text.startswith('\\ node 0: "a"\n\\ node 1: "b"\nMinimize\n')
        for section in ("Subject To", "Bounds", "Binary", "End"):
            assert section in text

    def test_no_edges_objective(self):
        g = SchedGraph(nodes=[Node(id="a")])
        model, _ = export_ilp(g, 3, 10.0)
        assert model.objective == {"r": 10.0}
        assert not any(v.startswith("m_") for v in model.variables)

    def test_no_exponent_notation(self):
        g = SchedGraph(nodes=[Node(id="a", mem=1e-5), Node(id="b")],
                       edges=[Edge("a", "b", comm=2.5)])
        _, text = export_ilp(g, 2, 1e6)
        assert "e-" not in text and "e+" not in text and "E" not in text.replace("End", "")

    def test_names_are_valid_for_any_id(self):
        """Ids with spaces or colons give LP names without them, a comment
        maps each index back to its id, and the schedule's own assignment is
        still feasible at its objective."""
        g = SchedGraph(nodes=[Node(id="a b", mem=2.0), Node(id="c:d"), Node(id="e\\f")],
                       edges=[Edge("a b", "c:d", comm=2.0), Edge("a b", "e\\f", sdc_c=-1)])
        stages, obj = brute_force(g, 3, 10.0)
        model, text = export_ilp(g, 3, 10.0)
        names = list(model.variables) + [c.name for c in model.constraints]
        assert not any(" " in name or ":" in name for name in names)
        assert text.splitlines()[:3] == ['\\ node 0: "a b"', '\\ node 1: "c:d"',
                                         '\\ node 2: "e\\\\f"']
        body = text.split("Subject To\n")[1].split("Bounds\n")[0]
        assert all(row.split(": ")[0].strip() in names for row in body.splitlines())
        feasible, violated, ilp_obj = check_ilp_assignment(
            model, ilp_assignment_from_schedule(g, 3, stages))
        assert feasible, violated
        assert abs(ilp_obj - obj) <= 1e-9

    def test_undeclared_variable_guard(self):
        model, _ = export_ilp(chain_ab(), 2, 10.0)
        with pytest.raises(KeyError):
            model.add_constraint("bad", {"nope": 1.0}, "<=", 0.0)


class TestCheckIlpAssignment:
    def test_optimum_feasible_and_objective_matches(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_dag(rng, int(rng.integers(2, 6)), c_choices=(-1, 0),
                           comm_choices=(1.0, 2.0, 3.0))
            latency = max(min_feasible_latency(g), 2)
            stages, obj = brute_force(g, latency, 10.0)
            model, _ = export_ilp(g, latency, 10.0)
            assignment = ilp_assignment_from_schedule(g, latency, stages)
            feasible, violated, ilp_obj = check_ilp_assignment(model, assignment)
            assert feasible, violated
            assert abs(ilp_obj - obj) <= 1e-9

    def test_selection_violation_named(self):
        model, _ = export_ilp(chain_ab(), 2, 10.0)
        assignment = ilp_assignment_from_schedule(chain_ab(), 2, {"a": 0, "b": 1})
        assignment["s_0_0"] = 0.0  # node a now selects no stage
        feasible, violated, _ = check_ilp_assignment(model, assignment)
        assert not feasible and "sel_0" in violated

    def test_all_zeros_infeasible(self):
        model, _ = export_ilp(chain_ab(), 2, 10.0)
        assignment = {v: 0.0 for v in model.variables}
        feasible, violated, _ = check_ilp_assignment(model, assignment)
        assert not feasible
        assert any(name.startswith("sel_") for name in violated)

    def test_missing_variable(self):
        model, _ = export_ilp(chain_ab(), 2, 10.0)
        with pytest.raises(KeyError):
            check_ilp_assignment(model, {"r": 0.0})
