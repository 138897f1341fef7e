"""Independent ground-truth shortest-path computations.

Two deliberately unrelated oracles back the labeling engines: an iterative
edge-sweep (Bellman-Ford) and a combinatorial search over simple paths. A bug
would have to hit both to validate a wrong answer. Both sum exact integers:
one helper, :func:`_scaled_weights`, scales each distinct weight by the lcm of
the weight denominators. It is kept here, apart from the engine's
``Graph.scaled_weights``, so that a fault in the engine's view cannot make the
engine and its oracles agree on a wrong distance. Both walk the graph's
out-edges only: a sweep costs O(m) integer additions, and the search one
integer addition per path extension it explores.
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


def _scaled_weights(g: Graph) -> tuple[int, dict[int, int]]:
    """``(scale, scaled)``: ``scale`` is the lcm of the weight denominators,
    and ``scaled[id(w)]`` is ``w * scale``, an exact ``int``, for each
    distinct weight object w of the graph."""
    # ids are stable for the call, since the graph keeps its weights alive
    weights = {id(w): w for out in g.adjacency for _, w in out}
    fractions = {key: w.fraction for key, w in weights.items()}
    scale = lcm(*{q.denominator for q in fractions.values()})
    return scale, {key: q.numerator * (scale // q.denominator) for key, q in fractions.items()}


def bellman_ford(g: Graph, source: int) -> OracleResult:
    """Exact single-source distances via at most n-1 full relaxation sweeps.

    Each sweep walks ``g.adjacency`` in row-major order, skipping vertices not
    reached yet, and a sweep that changes nothing ends the run. Sums are exact
    integers, from :func:`_scaled_weights`, looked up per edge.
    """
    check_vertex(g.n, source)
    scale, scaled = _scaled_weights(g)
    dist: list[int | None] = [None] * (g.n + 1)  # vertex v at index v
    dist[source] = 0
    for _ in range(g.n - 1):
        improved = False
        for u, out in enumerate(g.adjacency, start=1):
            base = dist[u]
            if base is None:
                continue
            for v, w in out:
                candidate = base + scaled[id(w)]
                old = dist[v]
                if old is None or candidate < old:
                    dist[v] = candidate
                    improved = True
        if not improved:
            break
    return OracleResult(
        # a list gives tuple() its size (see LabelState.distances)
        tuple([INFINITY if d is None else Weight(Fraction(d, scale)) for d in dist[1:]])
    )


def enumerate_min_path(
    g: Graph, source: int, target: int
) -> tuple[Weight, Route | None]:
    """Minimum total over all simple paths source -> target, with a witness.

    An iterative depth-first search over exact integers from
    :func:`_scaled_weights`: a stack of out-edge iterators, one per vertex on
    the current path, with the path's running total. It extends paths in
    ascending vertex order and takes a complete path only when it is strictly
    cheaper than the best so far, starting from the direct edge, so the
    witness is the first minimum path in that order. A partial path already
    at or above the best complete total is cut, since every edge is strictly
    positive. The cost is one integer addition per path extension explored,
    which can grow factorially, so n is guarded to <= 12.
    """
    if g.n > MAX_ENUMERATION_VERTICES:
        raise GraphTooLarge(f"enumeration limited to n <= {MAX_ENUMERATION_VERTICES}")
    direct = g.weight(source, target)  # checks both vertex ids
    if source == target:
        return Weight.zero(), Route((source,), Weight.zero())

    scale, scaled = _scaled_weights(g)
    adjacency = g.adjacency
    # Above the total of any simple path, whose at most n - 1 edges each
    # weigh at most the largest weight, so it stands for INFINITY in the cut.
    best = max(scaled.values(), default=0) * g.n + 1
    best_vertices: tuple[int, ...] | None = None
    if direct.is_finite:
        best = scaled[id(direct)]
        best_vertices = (source, target)

    on_path = [False] * (g.n + 1)
    on_path[source] = True
    path = [source]
    totals = [0]
    edges = [iter(adjacency[source - 1])]
    while edges:
        for u, w in edges[-1]:
            if on_path[u]:
                continue
            extended = totals[-1] + scaled[id(w)]
            if u == target:
                if extended < best:
                    best = extended
                    best_vertices = (*path, u)
            elif extended < best:
                on_path[u] = True
                path.append(u)
                totals.append(extended)
                edges.append(iter(adjacency[u - 1]))
                break
        else:
            edges.pop()
            totals.pop()
            on_path[path.pop()] = False
    if best_vertices is None:
        return INFINITY, None
    total = Weight(Fraction(best, scale))
    return total, Route(best_vertices, total)
