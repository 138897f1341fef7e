"""Shortest-path-tree matrix built from a finished run, and route extraction.

Entry (i, j) of the tree matrix holds the edge weight when i is the chosen
parent of j in the shortest-path tree, zero otherwise. Real edges are
strictly positive, so zero unambiguously means "no link". Under equal-length
alternatives the lowest predecessor id is chosen, deterministically.
The tree stores one parent link per vertex, so :func:`extract_path` costs
O(depth); only :func:`pathlab.render.render_tree_matrix` builds the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsettledVertex, VertexOutOfRange
from .graph import Graph
from .labeling import RunTrace
from .weights import INFINITY, Weight


@dataclass(frozen=True)
class TreeMatrix:
    """Parent links of a shortest-path tree, vertex v at index v - 1.

    ``parents[v - 1]`` is the parent of v, or None for the source and for
    vertices with no parent; ``parent_weights[v - 1]`` is the weight of the
    edge from that parent, or None. The matrix entries are derived.
    """

    n: int
    source: int
    parents: tuple[int | None, ...]
    parent_weights: tuple[Weight | None, ...]

    def weight(self, u: int, v: int) -> Weight:
        """Entry (u, v): the edge weight when u is the parent of v, else zero."""
        if self.parents[v - 1] == u:
            return self.parent_weights[v - 1]
        return Weight.zero()

    def parent(self, v: int) -> int | None:
        """The unique i with a nonzero (i, v) entry, or None for no parent."""
        return self.parents[v - 1]

    def nonzero(self) -> dict[tuple[int, int], Weight]:
        return dict(
            sorted(
                ((u, v), w)
                for v, (u, w) in enumerate(zip(self.parents, self.parent_weights), start=1)
                if u is not None
            )
        )


@dataclass(frozen=True)
class Route:
    """A source-to-target vertex sequence and its total weight.

    Empty vertices with an INFINITY total means the target is unreachable.
    """

    vertices: tuple[int, ...]
    total: Weight

    def __str__(self) -> str:
        if not self.vertices:
            return "no path (INF)"
        return "-".join(str(v) for v in self.vertices) + f" ({self.total})"


def build_tree_matrix(g: Graph, trace: RunTrace, strict: bool = False) -> TreeMatrix:
    """Parent links for every settled non-source vertex of the trace.

    The parent is the lowest id in the vertex's final predecessor set.
    Unsettled vertices simply get no parent, unless ``strict`` is set and the
    trace's target is among them.
    """
    labels = trace.final_labels
    if strict and trace.target is not None and not labels.is_permanent(trace.target):
        raise UnsettledVertex(f"target {trace.target} was never settled")
    parents: list[int | None] = [None] * g.n
    weights: list[Weight | None] = [None] * g.n
    _, preds, settled = labels.columns()
    for j in g.vertices():
        if j == trace.source or settled[j - 1] is None:
            continue
        parent = parents[j - 1] = min(preds[j - 1])
        weights[j - 1] = g.weight(parent, j)
    return TreeMatrix(g.n, trace.source, tuple(parents), tuple(weights))


def extract_path(t: TreeMatrix, target: int) -> Route:
    """Walk parent links from target back to the source and sum the edges."""
    if not (1 <= target <= t.n):
        raise VertexOutOfRange(f"vertex {target} outside 1..{t.n}")
    if target == t.source:
        return Route((t.source,), Weight.zero())
    chain = [target]
    current = target
    while current != t.source:
        parent = t.parent(current)
        if parent is None:
            return Route((), INFINITY)
        if len(chain) > t.n:
            raise ValueError("parent links do not form a tree")
        chain.append(parent)
        current = parent
    chain.reverse()
    total = Weight.zero()
    for v in chain[1:]:
        total = total + t.parent_weights[v - 1]
    return Route(tuple(chain), total)
