"""Independent ground-truth shortest-path computations.

Two deliberately unrelated oracles back the labeling engines: an iterative
edge-sweep (Bellman-Ford) and a combinatorial search over simple paths. A bug
would have to hit both to validate a wrong answer. Both walk the graph's
out-edges only: a sweep costs O(m) integer additions, and the search follows
out-edges of the path's last vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GraphTooLarge
from .graph import Graph, check_vertex
from .tree import Route
from .weights import INFINITY, Weight

MAX_ENUMERATION_VERTICES = 12


@dataclass(frozen=True)
class OracleResult:
    """Distances computed by :func:`bellman_ford`, vertex v at v - 1."""

    distances: tuple[Weight, ...]


def bellman_ford(g: Graph, source: int) -> OracleResult:
    """Exact single-source distances via at most n-1 full relaxation sweeps.

    Each sweep walks the edges in row-major order, skipping tails not reached
    yet, and a sweep that changes nothing ends the run. Sums are exact
    integers: weights are scaled by the lcm of their denominators. The
    scaling is done here, not read from ``Graph.scaled_weights`` as the
    labeling engine does, so that a fault in that view cannot make the
    engine and its oracle agree on a wrong distance.
    """
    check_vertex(g, source)
    # Each distinct Weight object is scaled once; ids are stable for the
    # call, since the graph keeps its weights alive.
    weights = {id(w): w for out in g.adjacency for _, w in out}
    scale = lcm(*{w.fraction.denominator for w in weights.values()})
    scaled = {
        key: w.fraction.numerator * (scale // w.fraction.denominator) for key, w in weights.items()
    }
    tails = [
        (u, [(v - 1, scaled[id(w)]) for v, w in out])
        for u, out in enumerate(g.adjacency)
        if out
    ]
    dist: list[int | None] = [None] * g.n
    dist[source - 1] = 0
    for _ in range(g.n - 1):
        improved = False
        for u, out in tails:
            base = dist[u]
            if base is None:
                continue
            for v, w in out:
                candidate = base + w
                old = dist[v]
                if old is None or candidate < old:
                    dist[v] = candidate
                    improved = True
        if not improved:
            break
    return OracleResult(
        tuple(INFINITY if d is None else Weight(Fraction(d, scale)) for d in dist)
    )


def enumerate_min_path(
    g: Graph, source: int, target: int
) -> tuple[Weight, Route | None]:
    """Minimum total over all simple paths source -> target, with a witness.

    Exhaustive search with an admissible cut: a partial path already at or
    above the best complete total cannot finish cheaper, since every edge is
    strictly positive. Guarded to n <= 12 against factorial blow-up.
    """
    if g.n > MAX_ENUMERATION_VERTICES:
        raise GraphTooLarge(f"enumeration limited to n <= {MAX_ENUMERATION_VERTICES}")
    check_vertex(g, source)
    check_vertex(g, target)
    if source == target:
        return Weight.zero(), Route((source,), Weight.zero())

    best: Weight = INFINITY
    best_vertices: tuple[int, ...] | None = None
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
