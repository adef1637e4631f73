import csv
import json

import pytest

from diffsched.graph import Edge, Node, SchedGraph, load_graph_file, save_graph
from diffsched.harness import TRAJECTORY_HEADER, main
from helpers import BAD_VALUE_GRAPHS


def write_chain(tmp_path, name="g.json", c=0):
    g = SchedGraph(
        nodes=[Node(id="a"), Node(id="b")],
        edges=[Edge("a", "b", sdc_c=c)],
    )
    path = tmp_path / name
    path.write_text(save_graph(g))
    return str(path)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSchedule:
    def test_writes_outputs(self, tmp_path):
        graph = write_chain(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "schedule", "-g", graph, "-L", "2", "--lambda", "10",
                "--ratio", "10", "--seed", "1", "--epochs", "40",
                "--out", str(out),
            ]
        )
        assert code == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["L"] == 2 and set(sched["stages"]) == {"a", "b"}
        assert set(sched["metrics"]) == {"peak_mem", "comm_total", "lp_objective", "ratio"}
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == TRAJECTORY_HEADER
        assert len(rows) == 41

    def test_missing_graph_file(self, tmp_path):
        assert main(["schedule", "-g", str(tmp_path / "nope.json"), "-L", "2",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, want", BAD_VALUE_GRAPHS)
    def test_bad_value_exits_2(self, tmp_path, capsys, text, want):
        graph = tmp_path / "bad.json"
        graph.write_text(text)
        code = main(["schedule", "-g", str(graph), "-L", "2", "--epochs", "5",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "run").exists()

    def test_infeasible_latency_reports_minimum(self, tmp_path, capsys):
        graph = write_chain(tmp_path, c=-1)
        code = main(["schedule", "-g", graph, "-L", "1", "--epochs", "5",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "2" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        graph = write_chain(tmp_path)
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("DIFFSCHED_SEED", "5")
        main(["schedule", "-g", graph, "-L", "2", "--epochs", "20", "--out", str(out_env)])
        monkeypatch.delenv("DIFFSCHED_SEED")
        main(["schedule", "-g", graph, "-L", "2", "--epochs", "20", "--seed", "5",
              "--out", str(out_flag)])
        strip = lambda rows: [r[:1] + r[2:] for r in rows]  # noqa: E731 - drop wall_ms
        assert strip(read_rows(out_env / "trajectory.csv")) == strip(
            read_rows(out_flag / "trajectory.csv")
        )


class TestOracleAndBaseline:
    def test_oracle_prints_objective(self, tmp_path, capsys):
        graph = write_chain(tmp_path)
        assert main(["oracle", "-g", graph, "-L", "2", "--out", str(tmp_path)]) == 0
        assert "11.0" in capsys.readouterr().out

    def test_baseline_methods(self, tmp_path, capsys):
        graph = write_chain(tmp_path)
        for method in ("asap", "alap", "greedy"):
            out = tmp_path / method
            assert main(["baseline", "-g", graph, "-L", "2", "--method", method,
                         "--out", str(out)]) == 0
            assert (out / "schedule.json").exists()


class TestEval:
    def test_legal_schedule_metrics(self, tmp_path, capsys):
        graph = write_chain(tmp_path)
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"L": 2, "stages": {"a": 0, "b": 1}}))
        assert main(["eval", "-g", graph, "--schedule", str(sched)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["lp_objective"] == 11.0

    def test_illegal_schedule_lists_violations(self, tmp_path, capsys):
        graph = write_chain(tmp_path)
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"L": 2, "stages": {"a": 1, "b": 0}}))
        assert main(["eval", "-g", graph, "--schedule", str(sched)]) == 2
        assert "'a'" in capsys.readouterr().err


class TestGen:
    def test_layered_workload_file(self, tmp_path, capsys):
        out = tmp_path / "rw.json"
        code = main(["gen", "--n-nodes", "949", "--depth", "15", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_nodes"] == 949 and stats["depth"] == 15
        g = load_graph_file(str(out))
        assert g.n_nodes == 949

    def test_invalid_spec(self, tmp_path):
        assert main(["gen", "--n-nodes", "3", "--depth", "9",
                     "--out", str(tmp_path / "g.json")]) == 2


class TestExportIlp:
    def test_writes_lp_file(self, tmp_path):
        graph = write_chain(tmp_path)
        out = tmp_path / "model.lp"
        assert main(["export-ilp", "-g", graph, "-L", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("Minimize") and text.rstrip().endswith("End")


class TestCompare:
    def test_report_with_oracle(self, tmp_path):
        graph = write_chain(tmp_path)
        out = tmp_path / "cmp"
        code = main(
            [
                "compare", "-g", graph, "-L", "2", "--methods", "diff,greedy,oracle",
                "--epochs", "60", "--seed", "0", "--timeout-ms", "3000",
                "--sample-interval-ms", "500", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["methods"]) == {"diff", "greedy", "oracle"}
        for info in report["methods"].values():
            series = info["normalized"]
            assert series[0] == 1.0
            assert all(a >= b for a, b in zip(series, series[1:]))
        assert report["methods"]["oracle"]["objective"] == 11.0
        assert report["methods"]["diff"]["objective"] >= 11.0
        rows = read_rows(out / "report.csv")
        assert rows[0] == ["method", "sample_ms", "normalized", "best_objective"]

    def test_zero_budget_single_sample(self, tmp_path):
        graph = write_chain(tmp_path)
        out = tmp_path / "cmp0"
        code = main(["compare", "-g", graph, "-L", "2", "--methods", "greedy",
                     "--timeout-ms", "0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["methods"]["greedy"]["normalized"]) == 1

    def test_zero_objective_graph(self, tmp_path):
        # Zero-memory graphs whose first sampled schedule already scores 0.
        nodes = [Node(id="a", mem=0.0), Node(id="b", mem=0.0)]
        out = tmp_path / "cmpz"
        for edges in ([], [Edge("a", "b")]):
            path = tmp_path / "z.json"
            path.write_text(save_graph(SchedGraph(nodes=nodes, edges=edges)))
            for seed in ("0", "1"):
                assert main(["compare", "-g", str(path), "-L", "2", "--methods", "diff",
                             "--epochs", "5", "--seed", seed, "--timeout-ms", "2000",
                             "--out", str(out)]) == 0
                diff = json.loads((out / "report.json").read_text())["methods"]["diff"]
                assert diff["objective"] == 0.0
                assert diff["normalized"][0] == 1.0
                if not edges:
                    assert set(diff["normalized"]) == {1.0}

    def test_unknown_method(self, tmp_path):
        graph = write_chain(tmp_path)
        assert main(["compare", "-g", graph, "-L", "2", "--methods", "magic",
                     "--out", str(tmp_path)]) == 2
