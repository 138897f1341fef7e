"""Weighted digraph stored as an n-by-n matrix, plus its parsers.

Entry (i, j) is the weight of the directed edge i -> j: zero on the diagonal,
strictly positive for a real edge, INFINITY where no edge exists. Vertex ids
are 1-based everywhere in the public API. Out-adjacency lists, which the
labeling engine and :meth:`Graph.edges` walk, are derived from the matrix on
first use.

Each input form has one checking path. ``Graph(n, weights)`` is the trusted
constructor: it checks the matrix shape but not the entries, and is meant
for matrices built by code that already holds the invariants (the random
generator, the parsers). :meth:`Graph.from_edges` checks every edge and is the
path of edge lists, parsed or programmatic. :func:`parse_matrix_text` checks
the matrix file it reads. The dense matrix costs n² cells, so every checking
path refuses n above ``MAX_VERTICES`` before allocating it.

File formats
------------
Matrix: optional ``#`` comment lines, then the vertex count n, then n*n
whitespace-separated tokens in row-major order. A token is a decimal literal
or the literal ``INF`` (case-insensitive). A decimal literal is
``[+-]?[0-9]+(\\.[0-9]+)?`` with at most ``MAX_TOKEN_DIGITS`` (30) digits;
exponents, fraction bars, underscores and non-ASCII digits are malformed.

Edge list: optional ``#`` comment lines, a header line ``n m``, then m lines
``u v w`` with 1-based endpoints and a positive decimal literal weight. Unlisted
off-diagonal pairs get INFINITY.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator

from .errors import (
    DiagonalNonZero,
    DuplicateEdge,
    GraphTooLarge,
    MalformedInput,
    NegativeOrZeroWeight,
    SelfLoop,
    VertexOutOfRange,
)
from .weights import INFINITY, Weight

# Most vertices a checked graph may have. The dense matrix grows as n²: at
# the cap, building it from a header alone takes about 0.8 s and 260 MiB
# (CPython 3.11 on a 2-vCPU VM), so no file can ask for more.
MAX_VERTICES = 4000


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph; safe to share across concurrent readers."""

    n: int
    weights: tuple[tuple[Weight, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.weights) != self.n or any(len(row) != self.n for row in self.weights):
            raise ValueError(f"weight matrix must be {self.n}x{self.n}")

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def contains_vertex(self, v: int) -> bool:
        return 1 <= v <= self.n

    def weight(self, u: int, v: int) -> Weight:
        check_vertex(self, u)
        check_vertex(self, v)
        return self.weights[u - 1][v - 1]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        """Out-edges of vertex u at index u - 1, as (v, weight) by ascending v.

        Built from the matrix on first use and kept on the instance.
        """
        return tuple(
            tuple(
                (j + 1, w)
                for j, w in enumerate(row)
                if w is not INFINITY and j != i and w.is_finite
            )
            for i, row in enumerate(self.weights)
        )

    def edges(self) -> Iterator[tuple[int, int, Weight]]:
        """Finite off-diagonal entries as (u, v, weight), row-major."""
        for u, out in enumerate(self.adjacency, start=1):
            for v, w in out:
                yield u, v, w

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, object]]) -> "Graph":
        """Checked constructor: listed edges, INFINITY elsewhere.

        A weight is a Weight or anything ``Weight.finite`` takes. Edges are
        checked in order, and the first bad one raises VertexOutOfRange,
        SelfLoop, DuplicateEdge, MalformedInput (an INFINITY weight) or
        NegativeOrZeroWeight. Raises GraphTooLarge above ``MAX_VERTICES``.
        """
        _check_size(n)
        zero = Weight.zero()
        rows = [[INFINITY] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = zero
        for u, v, w in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
            if u == v:
                raise SelfLoop(f"self loop at vertex {u}")
            if rows[u - 1][v - 1] is not INFINITY:
                raise DuplicateEdge(f"edge ({u},{v}) listed twice")
            if not isinstance(w, Weight):
                w = Weight.finite(w)
            if w.is_infinite:
                raise MalformedInput(f"edge ({u},{v}) has weight INF")
            if w <= zero:
                raise NegativeOrZeroWeight(f"edge ({u},{v}) has non-positive weight {w}")
            rows[u - 1][v - 1] = w
        return cls(n, tuple(tuple(row) for row in rows))


def check_vertex(g: Graph, v: int) -> None:
    if not g.contains_vertex(v):
        raise VertexOutOfRange(f"vertex {v} outside 1..{g.n}")


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphTooLarge(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def parse_matrix_text(text: str) -> Graph:
    """Parse the matrix format into a checked Graph.

    Raises MalformedInput, GraphTooLarge, or the first DiagonalNonZero or
    NegativeOrZeroWeight in row-major order.
    """
    tokens = " ".join(_content_lines(text)).split()
    if not tokens:
        raise MalformedInput("empty matrix input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MalformedInput(f"vertex count is not an integer: {tokens[0]!r}") from None
    if n < 1:
        raise MalformedInput(f"vertex count must be >= 1, got {n}")
    _check_size(n)
    entries = tokens[1:]
    if len(entries) != n * n:
        raise MalformedInput(f"expected {n * n} matrix entries, found {len(entries)}")
    # Each distinct token is parsed once per call, and equal tokens share one
    # Weight.
    weight_of = cache(Weight.from_token)
    rows = []
    for i in range(n):
        try:
            rows.append(tuple(map(weight_of, entries[i * n : (i + 1) * n])))
        except ValueError as exc:
            raise MalformedInput(f"row {i + 1}: {exc}") from None
    # The sign of each distinct token is checked once. A row is then fine
    # when its diagonal is zero and no off-diagonal token is non-positive.
    zero = Weight.zero()
    non_positive = {t for t in set(entries) if weight_of(t) <= zero}
    for i, row in enumerate(rows):
        start = i * n
        if (
            row[i] != zero
            or not non_positive.isdisjoint(entries[start : start + i])
            or not non_positive.isdisjoint(entries[start + i + 1 : start + n])
        ):
            _raise_first_violation(i + 1, row)
    return Graph(n, tuple(rows))


def _raise_first_violation(i: int, row: tuple[Weight, ...]) -> None:
    """Raise for the first bad entry of row i, which has one."""
    zero = Weight.zero()
    for j, w in enumerate(row, start=1):
        if i == j:
            if w != zero:
                raise DiagonalNonZero(f"DiagonalNonZero at ({i},{j}): {w}")
        elif w <= zero:
            raise NegativeOrZeroWeight(f"NegativeOrZeroWeight at ({i},{j}): {w}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format into a checked Graph.

    Lines are parsed as :meth:`Graph.from_edges` consumes them, so the first
    bad line raises, whether its fault is in the syntax or in the edge.
    """
    lines = _content_lines(text)
    if not lines:
        raise MalformedInput("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedInput(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedInput(f"header must be two integers, got {lines[0]!r}") from None
    if n < 1:
        raise MalformedInput(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise MalformedInput(f"edge count must be >= 0, got {m}")
    body = lines[1:]
    if len(body) != m:
        raise MalformedInput(f"expected {m} edge lines, found {len(body)}")
    return Graph.from_edges(n, _parsed_edges(body))


def _parsed_edges(lines: list[str]) -> Iterator[tuple[int, int, Weight]]:
    weight_of = cache(Weight.from_token)
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(f"edge line must be 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInput(f"non-integer vertex in edge line {line!r}") from None
        try:
            w = weight_of(parts[2])
        except ValueError as exc:
            raise MalformedInput(f"edge line {line!r}: {exc}") from None
        if w.is_infinite:
            raise MalformedInput(f"edge line {line!r}: weight must be finite")
        yield u, v, w


def to_matrix_text(g: Graph) -> str:
    """Serialize in the matrix format.

    Round-trips through parse_matrix_text when every weight is a decimal
    literal of at most ``MAX_TOKEN_DIGITS`` digits, as in any parsed graph.
    """
    lines = [str(g.n)]
    for i in g.vertices():
        lines.append(" ".join(str(w) for w in g.weights[i - 1]))
    return "\n".join(lines) + "\n"
