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
)
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
from helpers import enumerate_legal, random_dag


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
            "s_a_0", "s_a_1", "s_b_0", "s_b_1",
        ]
        assert [b for b in binaries if b.startswith("y_")] == ["y_0_0"]
        names = [c.name for c in model.constraints]
        assert names.count("dep_0") == 1
        assert {"mem_0", "mem_1"} <= set(names)
        assert text.startswith("Minimize")
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
        assignment["s_a_0"] = 0.0  # node a now selects no stage
        feasible, violated, _ = check_ilp_assignment(model, assignment)
        assert not feasible and "sel_a" in violated

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
