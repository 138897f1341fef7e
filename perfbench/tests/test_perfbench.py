"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from record import first_output_digest  # noqa: E402
from run import RECORD, load_pathlab  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_end_to_end(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(workload):
    counted = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "B")]
    first, second = (smoke(workload, 1, seed=11)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}


def test_batch_sizes_sum_to_settled_non_source_vertices():
    pathlab = load_pathlab()
    graphs = []
    sparse = WORKLOADS["solve_sparse"](pathlab, DEFAULT_SEED, smoke=True)
    graphs.append(pathlab.parse_edge_list(sparse.text))
    render = WORKLOADS["trace_render"](pathlab, DEFAULT_SEED, smoke=True)
    graphs += [pathlab.parse_matrix_text(t) for t in render.texts]
    sweep = WORKLOADS["sweep_small"](pathlab, DEFAULT_SEED, smoke=True)
    graphs += [pathlab.generate_graph(sweep.spec(0, k), 0) for k in range(len(sweep.shapes))]
    S = pathlab.Strategy
    for g in graphs:
        for trace in (
            pathlab.run_classic(g, 1),
            pathlab.run_modified(g, 1, strategy=S.TIE_BATCH),
            pathlab.run_modified(g, 1, strategy=S.STABLE_BATCH),
        ):
            settled = sum(1 for v in g.vertices() if trace.final_labels.is_permanent(v))
            assert sum(len(r.newly_permanent) for r in trace.rounds) == settled - 1


def test_names_match_the_allowed_pattern():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_pinned_digests_match_the_default_seed():
    pinned = json.loads(RECORD.read_text())["workloads"]
    pathlab = load_pathlab()
    for name, cls in WORKLOADS.items():
        workload = cls(pathlab, DEFAULT_SEED)
        assert first_output_digest(pathlab, workload) == pinned[name]["digest_sha256"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
