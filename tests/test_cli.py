from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import bench, render
from pathlab.cli import main
from pathlab.graph import MAX_EDGES, MAX_SPARSE_VERTICES, MAX_VERTICES

from .conftest import fixture_path
from .test_render import GOLDEN_FINAL_TABLE

PAPER8 = str(fixture_path("paper8.mat"))
TORA = str(fixture_path("paper8_tora.mat"))
TIE4 = str(fixture_path("tie4.edges"))
CX4 = str(fixture_path("counterexample4.edges"))

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_FIXTURES = ["paper8.mat", "paper8_tora.mat", "tie4.edges", "counterexample4.edges"]
# the last vertex of each fixture, the target of the `path` goldens
LAST_VERTEX = {"paper8.mat": 8, "paper8_tora.mat": 8, "tie4.edges": 4, "counterexample4.edges": 4}

# Graph files that break one invariant, or two (the first in row-major order
# is the one reported), each the argument of `pathlab oracle --source 1`.
BAD_GRAPHS = {
    "diagonal_nonzero.mat": "2\n5 1\n1 0\n",
    "negative_weight.mat": "2\n0 -1\n1 0\n",
    "zero_weight.mat": "2\n0 0\n1 0\n",
    "duplicate_edge.edges": "2 2\n1 2 3\n1 2 4\n",
    "self_loop.edges": "2 1\n1 1 3\n",
    "vertex_out_of_range.edges": "2 1\n1 3 1\n",
    "two_violations.mat": "3\n0 1 -1\n1 5 1\n1 1 0\n",
}

# The options after the graph file of each command that reads one.
FILE_COMMANDS = {
    "trace": ["--source", "1", "--algo", "classic"],
    "path": ["--source", "1", "--target", "2"],
    "compare": ["--source", "1"],
    "oracle": ["--source", "1"],
}


def _golden_cases():
    """(id, golden file, argv, bad graph file or None) for every golden.

    A file under tests/golden/ holds the stdout of a successful command:
    trace_<fixture stem>_<algo>.{txt,json} of `trace --source 1 --algo <algo>
    --format text|structured`, and path_, compare_ and oracle_<fixture stem>.txt
    of `path --source 1 --target <last vertex>`, `compare --source 1` and
    `oracle --source 1`. trace_<fixture stem>_<algo>_stop.txt holds the text
    trace of `trace --source 1 --target <last vertex> --stop-at-target --algo
    <algo>`, and path_<fixture stem>_<algo>.txt that of `path` with `--algo
    tiebatch|stablebatch`. error_<stem>.txt holds the stderr of `oracle` on
    the bad graph file <stem>, which exits 1.
    """
    for format_ in ["text", "structured"]:
        for algo in ["classic", "tiebatch", "stablebatch"]:
            for fixture in GOLDEN_FIXTURES:
                golden = f"trace_{fixture.split('.')[0]}_{algo}.{'txt' if format_ == 'text' else 'json'}"
                argv = ["trace", str(fixture_path(fixture)), "--source", "1", "--algo", algo,
                        "--format", format_]
                yield f"{format_}-{algo}-{fixture}", golden, argv, None
    for algo in ["classic", "tiebatch", "stablebatch"]:
        for fixture in GOLDEN_FIXTURES:
            argv = ["trace", str(fixture_path(fixture)), "--source", "1",
                    "--target", str(LAST_VERTEX[fixture]), "--stop-at-target", "--algo", algo]
            yield f"stop-{algo}-{fixture}", f"trace_{fixture.split('.')[0]}_{algo}_stop.txt", argv, None
    for fixture in GOLDEN_FIXTURES:
        stem, graph = fixture.split(".")[0], str(fixture_path(fixture))
        target = str(LAST_VERTEX[fixture])
        yield f"path-{fixture}", f"path_{stem}.txt", ["path", graph, "--source", "1", "--target", target], None
        for algo in ["tiebatch", "stablebatch"]:
            argv = ["path", graph, "--source", "1", "--target", target, "--algo", algo]
            yield f"path-{algo}-{fixture}", f"path_{stem}_{algo}.txt", argv, None
        yield f"compare-{fixture}", f"compare_{stem}.txt", ["compare", graph, "--source", "1"], None
        yield f"oracle-{fixture}", f"oracle_{stem}.txt", ["oracle", graph, "--source", "1"], None
    for name in BAD_GRAPHS:
        yield f"error-{name}", f"error_{name.split('.')[0]}.txt", ["oracle", name, "--source", "1"], name


@pytest.fixture()
def runner():
    return CliRunner()


class TestTrace:
    def test_classic_text_matches_golden_final_table(self, runner):
        result = runner.invoke(
            main, ["trace", TORA, "--source", "1", "--algo", "classic", "--format", "text"]
        )
        assert result.exit_code == 0
        final_block = result.stdout.strip().split("\n\n")[-2]
        assert final_block.splitlines()[2:] == GOLDEN_FINAL_TABLE

    def test_stablebatch_has_five_round_blocks_and_notice(self, runner):
        result = runner.invoke(
            main,
            ["trace", PAPER8, "--source", "1", "--algo", "stablebatch", "--format", "text"],
        )
        assert result.exit_code == 0
        assert result.stdout.count("Round ") == 5
        assert "experimental" in result.stderr

    def test_stablebatch_warns_on_oracle_mismatch(self, runner):
        result = runner.invoke(
            main, ["trace", CX4, "--source", "1", "--algo", "stablebatch"]
        )
        assert result.exit_code == 0
        assert "differ from the oracle at 3" in result.stderr

    def test_structured_output_parses(self, runner):
        result = runner.invoke(
            main,
            ["trace", TIE4, "--source", "1", "--algo", "tiebatch", "--format", "structured"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["strategy"] == "tiebatch"
        assert data["rounds_count"] == 2
        assert data["rounds"][0]["newly_permanent"] == [2, 3]
        assert data["rounds"][0]["labels"][1]["value"] == "1"

    def test_missing_file_argument_is_usage_error(self, runner):
        result = runner.invoke(main, ["trace", "--algo", "classic"])
        assert result.exit_code == 2

    def test_unknown_algo_is_usage_error(self, runner):
        result = runner.invoke(main, ["trace", PAPER8, "--source", "1", "--algo", "bogus"])
        assert result.exit_code == 2

    def test_stop_at_target_requires_target(self, runner):
        result = runner.invoke(
            main, ["trace", PAPER8, "--source", "1", "--algo", "classic", "--stop-at-target"]
        )
        assert result.exit_code == 2

    def test_nonexistent_file_is_input_error(self, runner):
        result = runner.invoke(
            main, ["trace", "no-such-file.mat", "--source", "1", "--algo", "classic"]
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_malformed_file_is_input_error(self, runner, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2\n0 1\n")
        result = runner.invoke(
            main, ["trace", str(bad), "--source", "1", "--algo", "classic"]
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr

    @pytest.mark.parametrize(
        "golden, argv, bad_graph",
        [pytest.param(*case[1:], id=case[0]) for case in _golden_cases()],
    )
    def test_output_matches_golden_bytes(self, runner, tmp_path, golden, argv, bad_graph):
        if bad_graph is None:
            result = runner.invoke(main, argv)
            assert result.exit_code == 0
            assert result.stdout_bytes == (GOLDEN / golden).read_bytes()
        else:
            (tmp_path / bad_graph).write_text(BAD_GRAPHS[bad_graph])
            argv = [str(tmp_path / arg) if arg == bad_graph else arg for arg in argv]
            result = runner.invoke(main, argv)
            assert result.exit_code == 1
            assert result.stdout_bytes == b""
            assert result.stderr_bytes == (GOLDEN / golden).read_bytes()

    def test_source_out_of_range_is_input_error(self, runner):
        result = runner.invoke(
            main, ["trace", PAPER8, "--source", "9", "--algo", "classic"]
        )
        assert result.exit_code == 1

    def test_stop_at_target_shortens_run(self, runner):
        stopped = runner.invoke(
            main,
            ["trace", PAPER8, "--source", "1", "--target", "5",
             "--algo", "classic", "--stop-at-target"],
        )
        full = runner.invoke(
            main, ["trace", PAPER8, "--source", "1", "--algo", "classic"]
        )
        assert stopped.exit_code == full.exit_code == 0
        assert stopped.stdout.count("Round ") < full.stdout.count("Round ")


class TestPath:
    def test_route_and_tree(self, runner):
        result = runner.invoke(
            main, ["path", TORA, "--source", "1", "--target", "8", "--algo", "classic"]
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "route: 1-2-3-6-8 (8)"
        assert lines[1] == "tree matrix:"
        assert lines[2] == "8"

    def test_unreachable_target(self, runner, tmp_path):
        f = tmp_path / "tiny.edges"
        f.write_text("2 0\n")
        result = runner.invoke(
            main, ["path", str(f), "--source", "1", "--target", "2"]
        )
        assert result.exit_code == 0
        assert "route: no path (INF)" in result.stdout

    def test_graph_above_the_dense_cap_fails_before_the_run(self, runner, tmp_path, monkeypatch):
        graph = tmp_path / "wide.edges"
        graph.write_text(f"{MAX_VERTICES + 1} 1\n1 2 1\n")

        def no_run(*args, **kwargs):
            raise AssertionError("path ran the algorithm")

        monkeypatch.setattr(bench, "run_strategy", no_run)
        result = runner.invoke(main, ["path", str(graph), "--source", "1", "--target", "2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}\n"
        )


class TestCompare:
    def test_counterexample_reports_unsound(self, runner):
        result = runner.invoke(main, ["compare", CX4, "--source", "1"])
        assert result.exit_code == 0
        assert "stable_batch_unsound: true" in result.stdout

    def test_eight_city(self, runner):
        result = runner.invoke(main, ["compare", PAPER8, "--source", "1", "--target", "8"])
        assert result.exit_code == 0
        assert "oracle (bellman-ford): 0 1 2 4 3 6 10 8" in result.stdout


class TestOracle:
    def test_distances(self, runner):
        result = runner.invoke(main, ["oracle", PAPER8, "--source", "1"])
        assert result.exit_code == 0
        assert "method: bellman-ford" in result.stdout
        assert "   7 | 10" in result.stdout

    def test_edge_list_input(self, runner):
        result = runner.invoke(main, ["oracle", CX4, "--source", "1"])
        assert result.exit_code == 0
        assert "   3 | 3" in result.stdout

    @pytest.mark.parametrize(
        "name, text", [("big.edges", f"{10**9} 0\n"), ("big.mat", "100000\n")]
    )
    def test_vertex_count_above_the_limit_is_input_error(self, runner, tmp_path, name, text):
        graph = tmp_path / name
        graph.write_text(text)
        start = time.perf_counter()
        result = runner.invoke(main, ["oracle", str(graph), "--source", "1"])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 1
        n = text.split()[0]
        limit = MAX_SPARSE_VERTICES if name.endswith(".edges") else MAX_VERTICES
        assert result.stderr == f"error: {n} vertices exceed the limit of {limit}\n"

    def test_edge_count_above_the_budget_is_input_error(self, runner, tmp_path):
        graph = tmp_path / "many.edges"
        graph.write_text(f"2 {10**9}\n")
        start = time.perf_counter()
        result = runner.invoke(main, ["oracle", str(graph), "--source", "1"])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 1
        assert result.stderr == f"error: {10**9} edges exceed the limit of {MAX_EDGES}\n"

    def test_trace_that_would_outgrow_the_snapshot_budget_is_input_error(
        self, runner, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(render, "MAX_SNAPSHOT_CELLS", 20)
        graph = tmp_path / "chain.edges"
        graph.write_text("6 5\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n")
        for algo in ("classic", "tiebatch", "stablebatch"):
            for format_ in ("text", "structured"):
                result = runner.invoke(
                    main,
                    ["trace", str(graph), "--source", "1", "--algo", algo, "--format", format_],
                )
                assert result.exit_code == 1
                assert result.stdout == ""
                assert result.stderr == "error: 24 snapshot label cells exceed the limit of 20\n"

    def test_snapshot_budget_does_not_bound_compare(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(render, "MAX_SNAPSHOT_CELLS", 20)
        graph = tmp_path / "chain.edges"
        graph.write_text("6 5\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n")
        result = runner.invoke(main, ["compare", str(graph), "--source", "1"])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout == (
            "source: 1\n"
            "oracle (bellman-ford): 0 1 2 3 4 5\n"
            "strategy    | rounds | rounds_incl_source | agrees_oracle\n"
            "singlemin   |      5 |                  6 | true\n"
            "tiebatch    |      5 |                  6 | true\n"
            "stablebatch |      5 |                  6 | true\n"
            "stable_batch_unsound: false\n"
        )

    def test_edge_list_above_the_dense_cap_runs(self, runner, tmp_path):
        n = MAX_VERTICES + 1
        graph = tmp_path / "wide.edges"
        graph.write_text(f"{n} 2\n1 {n} 2\n{n} 2 0.5\n")
        result = runner.invoke(main, ["oracle", str(graph), "--source", "1"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1:3] == ["   1 | 0", "   2 | 2.5"]
        assert result.stdout.splitlines()[-1] == f"{n:4d} | 2"

    def test_huge_exponent_weight_is_input_error(self, runner, tmp_path):
        # parsed by Fraction, 1e5000 used to fail only when printed
        graph = tmp_path / "g.edges"
        graph.write_text("2 1\n1 2 1e5000\n")
        result = runner.invoke(main, ["oracle", str(graph), "--source", "1"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr and "1e5000" in result.stderr


class TestGraphFileBytes:
    @pytest.mark.parametrize("command", list(FILE_COMMANDS))
    def test_non_utf8_file_is_input_error(self, runner, tmp_path, command):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
        result = runner.invoke(main, [command, str(bad), *FILE_COMMANDS[command]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: cannot read {bad}: 'utf-8' codec")
        assert result.stdout == ""

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes_exit_cleanly(self, data):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            for name in ["graph.mat", "graph.edges"]:
                path = Path(tmp) / name
                path.write_bytes(data)
                for argv in [
                    ["oracle", str(path), "--source", "1"],
                    ["trace", str(path), "--source", "1", "--algo", "tiebatch"],
                ]:
                    result = runner.invoke(main, argv)
                    assert result.exit_code in (0, 1, 2), result.output
                    assert result.exception is None or isinstance(result.exception, SystemExit)


class TestBench:
    def test_writes_csv_report(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "6", "--density", "0.8", "--graphs", "5",
                "--seed", "42", "--tie-bias", "0.9", "--weights", "1:9",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("spec_index,graph_index,strategy")
        assert len(lines) == 1 + 5 * 3
        assert "wrote" in result.stdout

    def test_writes_json_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "4", "--density", "1.0", "--graphs", "2",
                "--seed", "7", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert len(data["records"]) == 2
        assert "elapsed" not in out.read_text()

    def test_bad_weights_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "4", "--density", "0.5", "--graphs", "1",
                "--seed", "1", "--weights", "nine", "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert result.exit_code == 2

    def test_nodes_above_the_limit_is_usage_error(self, runner, tmp_path):
        start = time.perf_counter()
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "100000", "--density", "0.5", "--graphs", "1",
                "--seed", "1", "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert str(MAX_VERTICES) in result.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_expected_edges_above_the_budget_is_usage_error(self, runner, tmp_path):
        start = time.perf_counter()
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", str(MAX_VERTICES), "--density", "1.0", "--graphs", "1",
                "--seed", "1", "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert str(MAX_EDGES) in result.stderr
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("graphs", ["0", "1"])
    @pytest.mark.parametrize("source", ["0", "99"])
    def test_source_outside_the_nodes_is_usage_error(self, runner, tmp_path, graphs, source):
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "5", "--density", "0.5", "--graphs", graphs,
                "--seed", "1", "--source", source, "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert result.exit_code == 2
        assert "--source must be in 1..5" in result.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_negative_graph_count_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "4", "--density", "0.5", "--graphs", "-1",
                "--seed", "1", "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert result.exit_code == 2
        assert "--graphs must be >= 0" in result.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_range_density_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "bench", "--nodes", "4", "--density", "1.5", "--graphs", "1",
                "--seed", "1", "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert result.exit_code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["trace", PAPER8, "--source", "1", "--algo", "classic"],
            ["trace", PAPER8, "--source", "1", "--algo", "stablebatch", "--format", "structured"],
            ["path", TORA, "--source", "1", "--target", "8"],
            ["compare", CX4, "--source", "1"],
            ["oracle", PAPER8, "--source", "1"],
        ],
    )
    def test_repeated_invocations_are_byte_identical(self, runner, args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_bench_output_file_is_byte_identical(self, runner, tmp_path):
        args = [
            "bench", "--nodes", "5", "--density", "0.7", "--graphs", "4",
            "--seed", "3", "--tie-bias", "1.0",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        first = runner.invoke(main, args + ["--out", str(out1)])
        second = runner.invoke(main, args + ["--out", str(out2)])
        assert first.exit_code == second.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
