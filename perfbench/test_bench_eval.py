"""Tests of the benchmark's own evaluator and of the checks built on it.

    python3 -m pytest perfbench/test_bench_eval.py -q
"""
import itertools

import numpy as np
import pytest

import bench_eval
import run
from bench_inputs import RATIO, Case, graph_text, small_mix

# a -> b (c = 0, comm 2), b -> c (c = -1, comm 1), a -> c (c = 1, comm 3)
TEXT = graph_text(
    [("a", 2.0), ("b", 1.0), ("c", 3.0)],
    [("a", "b", 2.0, 0), ("b", "c", 1.0, -1), ("a", "c", 3.0, 1)],
)
INST = bench_eval.parse(TEXT)


def naive_objective(stages, latency):
    mem = [0.0] * latency
    for m, s in zip(INST.mem, stages):
        mem[s] += m
    comm = sum(w * max(0, stages[d] - stages[s]) for s, d, w in zip(INST.src, INST.dst, INST.comm))
    return comm + RATIO * max(mem)


def naive_legal(stages, latency):
    return all(0 <= s < latency for s in stages) and all(
        stages[s] - stages[d] <= c for s, d, c in zip(INST.src, INST.dst, INST.c)
    )


def test_legality_rejects_each_kind_of_violation():
    assert bench_eval.is_legal(INST, np.array([0, 0, 1]), 2)
    assert not bench_eval.is_legal(INST, np.array([1, 0, 1]), 2)  # a after b
    assert not bench_eval.is_legal(INST, np.array([0, 1, 1]), 2)  # c not after b
    assert not bench_eval.is_legal(INST, np.array([0, 0, 2]), 2)  # stage out of range
    assert not bench_eval.is_legal(INST, np.array([-1, 0, 1]), 3)


def test_objective_matches_a_hand_count():
    # stages (0, 0, 1): memory 3 | 3, comm 1 (b->c) + 3 (a->c)
    assert bench_eval.objective(INST, np.array([0, 0, 1]), 2, RATIO) == 4.0 + RATIO * 3.0
    wrong = 4.0 + RATIO * 3.0 + 1e-6
    assert not bench_eval.close(wrong, bench_eval.objective(INST, np.array([0, 0, 1]), 2, RATIO))


def test_exact_optimum_matches_naive_enumeration():
    for latency in (2, 3, 4):
        naive = min(
            naive_objective(s, latency)
            for s in itertools.product(range(latency), repeat=3)
            if naive_legal(s, latency)
        )
        assert bench_eval.exact_optimum(INST, latency, RATIO) == pytest.approx(naive, rel=1e-12)
        assert bench_eval.lower_bound(INST, latency, RATIO) <= naive


def test_earliest_stages_and_min_latency():
    assert bench_eval.earliest(INST).tolist() == [0, 0, 1]
    assert bench_eval.min_latency(INST) == 2
    chain = bench_eval.parse(graph_text(
        [(f"v{i}", 1.0) for i in range(4)],
        [(f"v{i}", f"v{i + 1}", 1.0, -1) for i in range(3)],
    ))
    assert bench_eval.min_latency(chain) == 4
    assert bench_eval.min_latency(bench_eval.parse(graph_text([], []))) == 1


def test_stage_vector_requires_exactly_the_graph_nodes():
    with pytest.raises(ValueError):
        bench_eval.stage_vector(INST, {"a": 0, "b": 0})
    with pytest.raises(ValueError):
        bench_eval.stage_vector(INST, {"a": 0, "b": 0, "c": 1, "d": 0})


def test_small_mix_inputs_follow_the_seed():
    first, again, other = small_mix(5), small_mix(5), small_mix(6)
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.text for c in first] != [c.text for c in other]
    for case in first[:40]:
        inst = bench_eval.parse(case.text)
        assert bench_eval.min_latency(inst) <= case.latency <= bench_eval.min_latency(inst) + 2


CASE = Case("tiny", TEXT, 3, (1,), 30, baselines=("brute_force", "greedy_balance"))


def checked(mutate=None):
    """Problems the benchmark finds in one real round on the tiny graph,
    after ``mutate`` has tampered with the round's outputs."""
    prep = run.prepare(CASE, exact=True)
    rnd = run.run_round([CASE], [prep], first=True)[0]
    if mutate:
        mutate(rnd)
    return run.check_round([CASE], [prep], rnd)


def test_checks_pass_on_the_program_outputs():
    assert checked() == []


def test_checks_reject_an_illegal_schedule():
    def swap(rnd):
        rnd.baselines[1].output = {"a": 2, "b": 0, "c": 1}

    assert any("illegal" in p for p in checked(swap))


def test_checks_reject_a_wrong_objective():
    def inflate(rnd):
        schedule, obj = rnd.baselines[0].output
        rnd.baselines[0].output = (schedule, obj * (1 + 1e-6))

    assert any("recomputed" in p for p in checked(inflate))


def test_checks_reject_a_non_optimal_oracle():
    def worsen(rnd):
        worse = {"a": 0, "b": 1, "c": 2}
        obj = bench_eval.objective(INST, bench_eval.stage_vector(INST, worse), 3, RATIO)
        rnd.baselines[0].output = (worse, obj)

    assert any("not the optimum" in p for p in checked(worsen))


def test_checks_reject_a_broken_trajectory():
    def reorder(rnd):
        trajectory = rnd.engine[0].result.trajectory
        trajectory[0].best_so_far, trajectory[-1].best_so_far = (
            trajectory[-1].best_so_far, trajectory[0].best_so_far + 1.0)

    assert any("running minimum" in p for p in checked(reorder))
