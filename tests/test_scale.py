"""Edge-list graphs far above the dense cap ``MAX_VERTICES``: they must parse
and run in memory that grows with n + m, never with n², and give the
distances that networkx and scipy give.

The ``scale`` tests are left out of the default run (see ``pyproject.toml``);
run them with ``python -m pytest -m scale``.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from pathlab import Graph, Strategy, bellman_ford, parse_edge_list, run_classic, run_modified
from pathlab.bench import run_strategy
from pathlab.graph import MAX_VERTICES
from pathlab.render import MAX_SNAPSHOT_CELLS

SRC = Path(__file__).resolve().parent.parent / "src"
MiB = 2**20


def sparse_edge_list(n: int, out_degree: int, seed: int) -> str:
    """``out_degree`` distinct out-edges per vertex, integer weights 1..9."""
    rng = random.Random(seed)
    lines = [f"{n} {n * out_degree}"]
    for u in range(1, n + 1):
        for t in rng.sample(range(1, n), out_degree):
            lines.append(f"{u} {t if t < u else t + 1} {rng.randint(1, 9)}")
    return "\n".join(lines) + "\n"


def reversed_path_edge_list(n: int) -> str:
    """The path n -> n - 1 -> ... -> 1, weight 1 per edge, listed from n down:
    from source n, a row-order Bellman-Ford sweep settles one vertex per
    sweep, n sweeps of O(m) in all."""
    return f"{n} {n - 1}\n" + "".join(f"{i} {i - 1} 1\n" for i in range(n, 1, -1))


def reversed_path_outputs(n: int) -> tuple[str, str]:
    """What `pathlab oracle` and `pathlab compare` print for
    :func:`reversed_path_edge_list` from source n."""
    oracle = "method: bellman-ford\n" + "".join(f"{v:4d} | {n - v}\n" for v in range(1, n + 1))
    compare = (
        f"source: {n}\n"
        "oracle (bellman-ford): " + " ".join(str(n - v) for v in range(1, n + 1)) + "\n"
        "strategy    | rounds | rounds_incl_source | agrees_oracle\n"
        + "".join(
            f"{name:<11} | {n - 1:6d} | {n:18d} | true\n"
            for name in ("singlemin", "tiebatch", "stablebatch")
        )
        + "stable_batch_unsound: false\n"
    )
    return oracle, compare


def test_ten_thousand_vertices_run_in_memory_linear_in_the_edges():
    text = sparse_edge_list(10_000, 3, seed=10)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        classic = run_classic(g, 1)
        tiebatch = run_modified(g, 1, strategy=Strategy.TIE_BATCH)
        oracle = bellman_ford(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10_000 > MAX_VERTICES
    assert sum(len(out) for out in g.adjacency) == 30_000
    assert classic.final_distances == tiebatch.final_distances == oracle.distances
    assert sum(w.is_finite for w in oracle.distances) > 9_000
    # n times the rounds passes the rendering budget; the run does not care
    assert classic.rounds_count * g.n > MAX_SNAPSHOT_CELLS
    # an n-by-n matrix of references alone would take 800 MB
    assert peak < 256 * MiB
    assert time.perf_counter() - start < 30


def _run_cli(args: list[str], out: Path) -> subprocess.CompletedProcess:
    # The address-space limit turns an accidental n² allocation into a quick
    # MemoryError instead of a machine out of memory.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4096 * MiB, 4096 * MiB))

    with out.open("wb") as stdout:
        return subprocess.run(
            [sys.executable, "-m", "pathlab.cli", *args],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=limit_memory,
            timeout=600,
        )


def _last_line(path: Path) -> str:
    with path.open("rb") as f:
        f.seek(max(0, path.stat().st_size - 200))
        return f.read().decode().splitlines()[-1]


@pytest.mark.scale
def test_hundred_thousand_vertices_oracle_and_tiebatch_trace(tmp_path):
    n = 100_000
    graph = tmp_path / "big.edges"
    graph.write_text(sparse_edge_list(n, 5, seed=100_000))
    out = tmp_path / "out.txt"
    try:
        start = time.perf_counter()
        oracle = _run_cli(["oracle", str(graph), "--source", "1"], out)
        oracle_s = time.perf_counter() - start
        assert oracle.returncode == 0, oracle.stderr
        distances = out.read_text().splitlines()[1:]
        assert len(distances) == n
        assert _last_line(out) == distances[-1]

        start = time.perf_counter()
        trace = _run_cli(["trace", str(graph), "--source", "1", "--algo", "tiebatch"], out)
        trace_s = time.perf_counter() - start
        assert trace.returncode == 0, trace.stderr
        assert _last_line(out).startswith("rounds: ")
        trace_bytes = out.stat().st_size
    finally:
        out.unlink(missing_ok=True)
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"\nn={n} m={5 * n}: oracle {oracle_s:.1f} s, trace --algo tiebatch {trace_s:.1f} s"
        f" ({trace_bytes / MiB:.0f} MiB of text), peak RSS of either {peak_mib:.0f} MiB"
    )


@pytest.mark.scale
def test_hundred_thousand_vertex_path_against_row_order_oracle_and_compare(tmp_path):
    n = 100_000
    graph = tmp_path / "reversed.edges"
    graph.write_text(reversed_path_edge_list(n))
    oracle_out, compare_out = tmp_path / "oracle.txt", tmp_path / "compare.txt"
    start = time.perf_counter()
    oracle = _run_cli(["oracle", str(graph), "--source", str(n)], oracle_out)
    oracle_s = time.perf_counter() - start
    compare = _run_cli(["compare", str(graph), "--source", str(n)], compare_out)
    compare_s = time.perf_counter() - start - oracle_s
    assert oracle.returncode == compare.returncode == 0, oracle.stderr + compare.stderr
    assert (oracle_out.read_text(), compare_out.read_text()) == reversed_path_outputs(n)
    print(f"\nreversed path, n={n}: oracle {oracle_s:.1f} s, compare {compare_s:.1f} s")
    assert oracle_s + compare_s < 30


@pytest.mark.scale
def test_the_bulk_parse_peaks_within_a_tenth_of_the_per_line_parse(tmp_path):
    # Each parse in a fresh child, whose peak RSS is then the parse's own.
    graph = tmp_path / "scale.edges"
    graph.write_text(sparse_edge_list(100_000, 5, seed=1))
    code = (
        "import resource, sys\n"
        "from pathlab import graph, parse_edge_list\n"
        "if sys.argv[2] == 'per-line':\n"
        "    graph._bulk_graph = lambda n, lines: None\n"
        "with open(sys.argv[1], encoding='utf-8') as f:\n"
        "    parse_edge_list(f.read())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    peak_mib = {
        path: int(
            subprocess.run(
                [sys.executable, "-c", code, str(graph), path],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=600,
            ).stdout
        )
        / 1024
        for path in ("bulk", "per-line")
    }
    print(f"\nparse_edge_list peak RSS: {peak_mib}")
    assert peak_mib["bulk"] < 1.1 * peak_mib["per-line"]


# Differential checks against libraries that share no code with pathlab. Both
# are optional: the checks skip where they are not installed.


def test_two_thousand_vertices_match_networkx_with_fraction_weights():
    nx = pytest.importorskip("networkx")
    n, rng = 2000, random.Random(2000)
    edges = [
        (u, t if t < u else t + 1, Fraction(rng.randint(1, 30), rng.choice([1, 3, 7, 10])))
        for u in range(1, n + 1)
        for t in rng.sample(range(1, n), 5)
    ]
    reference = nx.DiGraph()
    reference.add_nodes_from(range(1, n + 1))
    reference.add_weighted_edges_from(edges)
    expected = nx.single_source_dijkstra_path_length(reference, 1)
    assert len(expected) > 0.9 * n
    g = Graph.from_edges(n, edges)
    for strategy in Strategy:
        trace = run_strategy(g, 1, strategy)
        # at most one change per settle and per edge relaxed
        assert sum(len(record.changes) for record in trace.rounds) <= (n - 1) + len(edges)
        if strategy is not Strategy.STABLE_BATCH:
            got = {v: w.fraction for v, w in enumerate(trace.final_distances, start=1) if w.is_finite}
            assert got == expected


@pytest.mark.scale
def test_hundred_thousand_vertices_match_scipy_dijkstra():
    # integer weights, so scipy's float64 sums are exact (they stay far below 2**53)
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = 100_000
    g = parse_edge_list(sparse_edge_list(n, 5, seed=100_001))
    tails, heads, weights = zip(*((u - 1, v - 1, int(w.fraction)) for u, v, w in g.edges()))
    matrix = sparse.csr_matrix((weights, (tails, heads)), shape=(n, n))
    expected = [None if d == float("inf") else int(d) for d in csgraph.dijkstra(matrix, indices=0)]
    assert sum(d is not None for d in expected) > 0.9 * n
    for distances in (
        run_classic(g, 1).final_distances,
        run_modified(g, 1, strategy=Strategy.TIE_BATCH).final_distances,
        bellman_ford(g, 1).distances,
    ):
        assert [w.fraction if w.is_finite else None for w in distances] == expected
