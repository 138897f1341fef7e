from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from pathlab.cli import main

from .conftest import fixture_path
from .test_render import GOLDEN_FINAL_TABLE

PAPER8 = str(fixture_path("paper8.mat"))
TORA = str(fixture_path("paper8_tora.mat"))
TIE4 = str(fixture_path("tie4.edges"))
CX4 = str(fixture_path("counterexample4.edges"))

# stdout of `pathlab trace fixtures/<fixture> --source 1 --algo <algo>
# --format <format>`, one file per case, named trace_<fixture stem>_<algo> with
# .txt for text and .json for structured output.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_FIXTURES = ["paper8.mat", "paper8_tora.mat", "tie4.edges", "counterexample4.edges"]


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

    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
    @pytest.mark.parametrize("algo", ["classic", "tiebatch", "stablebatch"])
    @pytest.mark.parametrize("format_", ["text", "structured"])
    def test_output_matches_golden_bytes(self, runner, fixture, algo, format_):
        result = runner.invoke(
            main,
            ["trace", str(fixture_path(fixture)), "--source", "1", "--algo", algo,
             "--format", format_],
        )
        assert result.exit_code == 0
        golden = GOLDEN / f"trace_{fixture.split('.')[0]}_{algo}.{'txt' if format_ == 'text' else 'json'}"
        assert result.stdout_bytes == golden.read_bytes()

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

    def test_huge_exponent_weight_is_input_error(self, runner, tmp_path):
        # parsed by Fraction, 1e5000 used to fail only when printed
        graph = tmp_path / "g.edges"
        graph.write_text("2 1\n1 2 1e5000\n")
        result = runner.invoke(main, ["oracle", str(graph), "--source", "1"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr and "1e5000" in result.stderr


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
