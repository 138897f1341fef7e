"""Hypothesis strategies shared across property tests, and the reference
implementations that faster library code is checked against: the graph
invariant checker, the tree matrix's column scan, the Weight-wrapped and the
scaled-int row-sweep Bellman-Ford, the recursive Weight path search, the
report document passed through ``json.dumps`` and the report rows passed
through ``csv.writer``."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from pathlab import INFINITY, DiagonalNonZero, Graph, NegativeOrZeroWeight, Route, Weight


@st.composite
def finite_weights(draw) -> Weight:
    # Positive decimals (denominator a power of ten) so serialization
    # round-trips token-exactly.
    numerator = draw(st.integers(min_value=1, max_value=500))
    denominator = draw(st.sampled_from([1, 1, 10, 100]))
    return Weight(Fraction(numerator, denominator))


@st.composite
def exact_weights(draw) -> Weight:
    # Positive rationals, some of whose denominators (3, 7) have no decimal
    # expansion, so str(Weight) writes them as a/b.
    numerator = draw(st.integers(min_value=1, max_value=500))
    denominator = draw(st.sampled_from([1, 3, 7, 10, 100]))
    return Weight(Fraction(numerator, denominator))


@st.composite
def tied_weights(draw) -> Weight:
    # Weight 1 or 2, so two members of one batch often reach a vertex at the
    # same value: the ties the batched strategies settle together.
    return Weight.finite(draw(st.sampled_from([1, 2])))


@st.composite
def matrices(draw, max_n: int = 6, weights=finite_weights, min_n: int = 1) -> tuple[int, tuple]:
    """(n, rows): an n-by-n matrix, min_n <= n <= max_n, with a zero
    diagonal and, off it, drawn weights or INFINITY."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Weight.zero())
            elif draw(st.booleans()):
                row.append(draw(weights()))
            else:
                row.append(INFINITY)
        rows.append(tuple(row))
    return n, tuple(rows)


@st.composite
def graphs(draw, max_n: int = 6, weights=finite_weights, min_n: int = 1) -> Graph:
    n, rows = draw(matrices(max_n, weights, min_n))
    return Graph(n, matrix_adjacency(rows))


# The reference invariant checker: every cell, one at a time. The parsers
# check their input on faster paths and must agree with it.


@dataclass(frozen=True)
class Violation:
    """One graph-invariant violation found by :func:`validate`."""

    kind: type[Exception]
    row: int
    col: int
    value: Weight

    def __str__(self) -> str:
        return f"{self.kind.__name__} at ({self.row},{self.col}): {self.value}"


def validate(rows) -> list[Violation]:
    """Every invariant violation of the n-by-n matrix ``rows`` (a
    ``Graph.weights``, say) in row-major order; empty means ok."""
    violations = []
    for i, row in enumerate(rows, start=1):
        for j, w in enumerate(row, start=1):
            if i == j:
                if w != Weight.zero():
                    violations.append(Violation(DiagonalNonZero, i, j, w))
            elif w.is_finite and w <= Weight.zero():
                violations.append(Violation(NegativeOrZeroWeight, i, j, w))
    return violations


def matrix_adjacency(rows) -> tuple:
    """Out-edges of an n-by-n matrix: the finite off-diagonal entries of each
    row as (column, weight), by ascending column."""
    return tuple(
        tuple((j, w) for j, w in enumerate(row, start=1) if i != j and w.is_finite)
        for i, row in enumerate(rows, start=1)
    )


def reference_tree_entries(g: Graph, trace) -> list[list[Weight]]:
    """The n-by-n tree matrix built cell by cell: entry (p, j) is the weight
    of the edge from p, the lowest predecessor of each settled non-source j;
    every other entry is zero."""
    labels = trace.final_labels
    entries = [[Weight.zero()] * g.n for _ in range(g.n)]
    for j in g.vertices():
        if j != trace.source and labels.is_permanent(j):
            parent = min(labels.predecessors(j))
            entries[parent - 1][j - 1] = g.weight(parent, j)
    return entries


def column_scan_parent(entries: list[list[Weight]], v: int) -> int | None:
    """The unique i with a nonzero (i, v) entry, found by scanning column v,
    or None for no parent."""
    for u in range(1, len(entries) + 1):
        if entries[u - 1][v - 1] != Weight.zero():
            return u
    return None


def weight_sweep_bellman_ford(g: Graph, source: int) -> tuple[Weight, ...]:
    """Bellman-Ford over ``Weight`` values: every edge, row-major, in every
    sweep, until a sweep changes nothing."""
    dist: list[Weight] = [INFINITY] * g.n
    dist[source - 1] = Weight.zero()
    edges = list(g.edges())
    for _ in range(g.n - 1):
        improved = False
        for u, v, w in edges:
            candidate = dist[u - 1] + w
            if candidate < dist[v - 1]:
                dist[v - 1] = candidate
                improved = True
        if not improved:
            break
    return tuple(dist)


def row_sweep_bellman_ford(g: Graph, source: int) -> tuple[Weight, ...]:
    """Bellman-Ford over exact scaled ints, as full sweeps in row-major
    order, skipping vertices not reached yet, until a sweep changes nothing:
    O(n * m) on a path whose edges run from high ids to low ids."""
    weights = {id(w): w.fraction for out in g.adjacency for _, w in out}
    scale = lcm(*{q.denominator for q in weights.values()})
    scaled = {key: q.numerator * (scale // q.denominator) for key, q in weights.items()}
    dist: list[int | None] = [None] * (g.n + 1)
    dist[source] = 0
    for _ in range(g.n - 1):
        improved = False
        for u, out in enumerate(g.adjacency, start=1):
            base = dist[u]
            if base is None:
                continue
            for v, w in out:
                candidate = base + scaled[id(w)]
                if dist[v] is None or candidate < dist[v]:
                    dist[v] = candidate
                    improved = True
        if not improved:
            break
    return tuple(INFINITY if d is None else Weight(Fraction(d, scale)) for d in dist[1:])


def recursive_min_path(g: Graph, source: int, target: int) -> tuple[Weight, Route | None]:
    """The minimum simple path over ``Weight`` values, by recursion: out-edges
    in ascending order, a partial path at or above the best complete total
    cut, and a complete path taken only when strictly cheaper than the best,
    which starts at the direct edge."""
    if source == target:
        return Weight.zero(), Route((source,), Weight.zero())
    best = INFINITY
    best_vertices = None
    direct = g.weight(source, target)
    if direct.is_finite:
        best = direct
        best_vertices = (source, target)

    def visit(v: int, total: Weight, path: tuple[int, ...], visited: frozenset[int]):
        nonlocal best, best_vertices
        for u, w in g.adjacency[v - 1]:
            if u in visited:
                continue
            extended = total + w
            if u == target:
                if extended < best:
                    best = extended
                    best_vertices = path + (u,)
                continue
            if extended >= best:
                continue
            visit(u, extended, path + (u,), visited | {u})

    visit(source, Weight.zero(), (source,), frozenset({source}))
    if best_vertices is None:
        return INFINITY, None
    return best, Route(best_vertices, best)


def reference_report_json(report) -> str:
    """The report document built as dicts and lists and written by
    ``json.dumps(document, indent=2)``."""

    def result_dict(result) -> dict:
        return {
            "distances": [str(w) for w in result.final_distances],
            "rounds": result.rounds_count,
            "rounds_incl_source": result.rounds_count_incl_source,
            "agrees_oracle": result.agrees_oracle,
        }

    payload = {
        "config": {
            "specs": [asdict(s) for s in report.specs],
            "graphs_per_spec": report.graphs_per_spec,
            "source": report.source,
            "target": report.target,
        },
        "records": [
            {
                "spec_index": r.spec_index,
                "graph_index": r.graph_index,
                "source": r.source,
                "target": r.target,
                "oracle_distances": [str(w) for w in r.oracle_distances],
                "strategies": {res.strategy.value: result_dict(res) for res in r.results},
                "stable_batch_unsound": r.stable_batch_unsound,
            }
            for r in report.records
        ],
        "aggregates": {
            strategy.value: {
                "mean_rounds": str(agg.mean_rounds),
                "min_rounds": agg.min_rounds,
                "max_rounds": agg.max_rounds,
                "agreement_rate": str(agg.agreement_rate),
            }
            for strategy, agg in report.aggregates.items()
        },
        "stable_batch_unsound_count": report.stable_batch_unsound_count,
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_report_csv(report) -> str:
    """The report's rows, one per (record, strategy), written by
    ``csv.writer`` with ``"\\n"`` line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["spec_index", "graph_index", "strategy", "rounds", "rounds_incl_source",
         "agrees_oracle", "unsound"]
    )
    for r in report.records:
        for res in r.results:
            writer.writerow(
                [r.spec_index, r.graph_index, res.strategy.value, res.rounds_count,
                 res.rounds_count_incl_source, str(res.agrees_oracle).lower(),
                 str(not res.agrees_oracle).lower()]
            )
    return out.getvalue()
