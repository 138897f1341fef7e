"""Shortest-path-tree matrix built from a finished run, and route extraction.

Entry (i, j) of the tree matrix holds the edge weight when i is the chosen
parent of j in the shortest-path tree, zero otherwise. Real edges are
strictly positive, so zero unambiguously means "no link". Under equal-length
alternatives the lowest predecessor id is chosen, deterministically.
The tree stores one parent link per vertex, read as ``TreeMatrix.parents[v -
1]``, so :func:`extract_path` costs O(depth); only
:func:`pathlab.render.render_tree_matrix` builds the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput
from .graph import Graph, check_vertex
from .labeling import RunTrace
from .weights import INFINITY, Weight


@dataclass(frozen=True)
class TreeMatrix:
    """Parent links of a shortest-path tree, vertex v at index v - 1.

    ``parents[v - 1]`` is the parent of v, or None for the source and for
    vertices with no parent; ``parent_weights[v - 1]`` is the weight of the
    edge from that parent, or None. :func:`pathlab.render.render_tree_matrix`
    writes the matrix from ``parents`` and ``parent_weights``.
    """

    n: int
    source: int
    parents: tuple[int | None, ...]
    parent_weights: tuple[Weight | None, ...]


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


def build_tree_matrix(g: Graph, trace: RunTrace) -> TreeMatrix:
    """Parent links for every settled non-source vertex of the trace.

    The parent is the lowest id in the vertex's final predecessor set.
    Unsettled vertices get no parent, so a route to one is "no path".
    Raises MalformedInput unless the trace has the graph's n vertices and
    the graph has an edge from each parent to its vertex.
    """
    if trace.final_labels.n != g.n:
        raise MalformedInput(f"the trace has {trace.final_labels.n} vertices, the graph {g.n}")
    parents: list[int | None] = [None] * g.n
    weights: list[Weight | None] = [None] * g.n
    for j, (_, preds, settled) in enumerate(trace.final_labels.rows(), start=1):
        if j == trace.source or settled is None:
            continue
        parent = parents[j - 1] = min(preds)
        weight = weights[j - 1] = g.weight(parent, j)
        if weight.is_infinite:
            raise MalformedInput(f"vertex {j}'s parent {parent} has no edge to it in the graph")
    return TreeMatrix(g.n, trace.source, tuple(parents), tuple(weights))


def extract_path(t: TreeMatrix, target: int) -> Route:
    """Walk parent links from target back to the source and sum the edges.
    Raises MalformedInput when the links from target loop."""
    chain = [check_vertex(t.n, target)]
    current = target
    while current != t.source:
        parent = t.parents[current - 1]
        if parent is None:
            return Route((), INFINITY)
        if len(chain) > t.n:
            raise MalformedInput("parent links do not form a tree")
        chain.append(parent)
        current = parent
    chain.reverse()
    total = Weight.zero()
    for v in chain[1:]:
        total = total + t.parent_weights[v - 1]
    return Route(tuple(chain), total)
