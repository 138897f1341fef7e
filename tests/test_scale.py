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
from pathlab.graph import MAX_VERTICES

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


def test_ten_thousand_vertices_run_in_memory_linear_in_the_edges():
    text = sparse_edge_list(10_000, 3, seed=10)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        tiebatch = run_modified(g, 1, strategy=Strategy.TIE_BATCH)
        oracle = bellman_ford(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10_000 > MAX_VERTICES
    assert sum(len(out) for out in g.adjacency) == 30_000
    assert tiebatch.final_distances == oracle.distances
    assert sum(w.is_finite for w in oracle.distances) > 9_000
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
    for trace in (run_classic(g, 1), run_modified(g, 1, strategy=Strategy.TIE_BATCH)):
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
        run_modified(g, 1, strategy=Strategy.TIE_BATCH).final_distances,
        bellman_ford(g, 1).distances,
    ):
        assert [w.fraction if w.is_finite else None for w in distances] == expected
