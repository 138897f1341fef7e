"""Weighted digraph stored as out-adjacency lists, plus its parsers.

A graph stores, for each vertex u, its out-edges (v, weight) by ascending v,
each weight exact and strictly positive. Vertex ids are 1-based everywhere in
the public API. The matrix view, whose entry (i, j) is the weight of edge
i -> j, zero on the diagonal and INFINITY where no edge exists, is derived:
:meth:`Graph.weight` reads one entry in O(log out-degree) by bisecting u's
out-edges, :attr:`Graph.weights` builds the whole matrix on each read, and
:func:`pathlab.render.to_matrix_text` writes it a row at a time. So an edge
list costs O(n + m log m) to parse and O(n + m) to store, and a matrix file
O(n²) only because it has n² tokens. :attr:`Graph.scaled_weights` holds one
exact integer per distinct weight, scaled by the lcm of the weight
denominators, built once per graph for the labeling engine.

Each input form has one checking path. ``Graph(n, adjacency)`` is the
trusted constructor for code that already holds the invariants (the random
generator, the parsers): it checks the count and shape (MalformedInput), not
the edges. :meth:`Graph.from_edges` checks every edge and is the path of
edge lists, parsed or programmatic, but for the bulk check of a well-formed
file's body; any other body goes through it line by line, which names the
first bad line. :func:`parse_matrix_text` checks the matrix file it reads.
Before allocating, matrix files and both matrix views
refuse n above ``MAX_VERTICES``, and edge lists, parsed or programmatic,
refuse more than ``MAX_SPARSE_VERTICES`` vertices or ``MAX_EDGES`` edges.

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

Counts (the matrix's n, the edge list's n and m) and endpoints are ASCII
integers, ``[+-]?[0-9]+``: underscores and non-ASCII digits are malformed
there too. In the API, vertex ids and counts are ``int`` (a ``bool`` is
refused): a vertex count that is not an int of at least 1 raises
MalformedInput, and a vertex id that is not an int in 1..n VertexOutOfRange.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress, count, islice, pairwise, starmap
from math import lcm
from operator import eq
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

# Most vertices of a graph held, or shown, as an n-by-n matrix: matrix files,
# generated graphs, ``Graph.weights`` and the two written matrices, which
# ``pathlab.render`` builds a row at a time. At the cap a matrix of references
# takes about 0.8 s and 260 MiB to build (CPython 3.11 on a 2-vCPU VM).
MAX_VERTICES = 4000
# Budgets of edge lists, which cost about 100 bytes per edge and 200 per
# vertex to store.
MAX_SPARSE_VERTICES = 1_000_000
MAX_EDGES = 2_000_000


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph; safe to share across concurrent readers.

    ``adjacency[u - 1]`` lists the out-edges of vertex u as (v, weight) pairs
    by ascending v, with finite positive weights. Equality and hash compare
    n and the adjacency.
    """

    n: int
    adjacency: tuple[tuple[tuple[int, Weight], ...], ...]

    def __post_init__(self):
        _check_count(self.n, MAX_SPARSE_VERTICES)
        if type(self.adjacency) is not tuple or len(self.adjacency) != self.n:
            raise MalformedInput(f"adjacency must be a tuple of {self.n} rows")

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def weight(self, u: int, v: int) -> Weight:
        """Matrix entry (u, v): zero on the diagonal, INFINITY for no edge."""
        check_vertex(self.n, u)
        check_vertex(self.n, v)
        if u == v:
            return Weight.zero()
        # The probe (v,) sorts just before (v, w), so no two Weights compare.
        out = self.adjacency[u - 1]
        i = bisect_left(out, (v,))
        return out[i][1] if i < len(out) and out[i][0] == v else INFINITY

    @property
    def weights(self) -> tuple[tuple[Weight, ...], ...]:
        """The n-by-n matrix, built anew on each read; GraphTooLarge above ``MAX_VERTICES``."""
        check_size(self.n)
        zero = Weight.zero()
        return tuple(
            tuple(zero if u == v else out.get(v, INFINITY) for v in self.vertices())
            for u, out in enumerate(map(dict, self.adjacency), start=1)
        )

    @cached_property
    def scaled_weights(self) -> tuple[int, dict[int, int]]:
        """``(scale, scaled)``: ``scale`` is the lcm of the weight
        denominators, and ``scaled[id(w)]`` is ``w * scale``, an exact
        ``int``, for each distinct weight object w in :attr:`adjacency`."""
        # ids are stable while the graph keeps its weights alive
        weights = {id(w): w for out in self.adjacency for _, w in out}
        scale = lcm(*{w.fraction.denominator for w in weights.values()})
        return scale, {
            key: w.fraction.numerator * (scale // w.fraction.denominator) for key, w in weights.items()
        }

    def edges(self) -> Iterator[tuple[int, int, Weight]]:
        """Every edge as (u, v, weight), by ascending u, then v."""
        for u, out in enumerate(self.adjacency, start=1):
            for v, w in out:
                yield u, v, w

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, object]]) -> "Graph":
        """Checked constructor: listed edges, INFINITY elsewhere.

        A weight is a Weight, an int, Fraction or float, or a str in the
        graph-file grammar (``Weight.finite``). Edges are checked in order,
        and the first bad one raises VertexOutOfRange, SelfLoop,
        DuplicateEdge, MalformedInput (an item that is no triple, a ``bool``
        or any other weight, or INFINITY) or NegativeOrZeroWeight. Raises
        MalformedInput below one vertex or when ``edges`` is not iterable, and
        GraphTooLarge above ``MAX_SPARSE_VERTICES`` vertices or ``MAX_EDGES`` edges.
        """
        _check_count(n, MAX_SPARSE_VERTICES)
        try:
            edges = iter(edges)
        except TypeError:
            raise MalformedInput(f"edges must be an iterable of triples, got {edges!r}") from None
        out: list[dict[int, Weight]] = [{} for _ in range(n)]
        for edge in islice(edges, MAX_EDGES):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise MalformedInput(f"edge {edge!r} is not a (u, v, weight) triple") from None
            if not (type(u) is type(v) is int and 1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRange(f"edge ({u!r},{v!r}) outside 1..{n}")
            if u == v:
                raise SelfLoop(f"self loop at vertex {u}")
            row = out[u - 1]
            if v in row:
                raise DuplicateEdge(f"edge ({u},{v}) listed twice")
            if not isinstance(w, Weight):
                try:
                    w = Weight.finite(w)
                except (TypeError, ValueError, OverflowError):
                    raise MalformedInput(f"edge ({u},{v}) has unreadable weight {w!r}") from None
            if w.is_infinite:
                raise MalformedInput(f"edge ({u},{v}) has weight INF")
            if w.fraction.numerator <= 0:
                raise NegativeOrZeroWeight(f"edge ({u},{v}) has non-positive weight {w}")
            row[v] = w
        for _ in edges:  # one edge past the budget
            check_size(MAX_EDGES + 1, MAX_EDGES, "edges")
        return cls(n, tuple(tuple(sorted(row.items())) for row in out))


def check_vertex(n: int, v: int) -> int:
    """``v`` if it is an ``int`` (not a ``bool``) in 1..n; VertexOutOfRange otherwise."""
    if type(v) is not int or not 1 <= v <= n:
        raise VertexOutOfRange(f"vertex {v!r} outside 1..{n}")
    return v


def _check_count(n: int, limit: int) -> None:
    if type(n) is not int or n < 1:
        raise MalformedInput(f"vertex count must be >= 1, got {n!r}")
    check_size(n, limit)


def check_size(count: int, limit: int = MAX_VERTICES, what: str = "vertices") -> None:
    """Raise GraphTooLarge when ``count`` exceeds ``limit``; by default, when
    an n-by-n matrix exceeds ``MAX_VERTICES``."""
    if count > limit:
        raise GraphTooLarge(f"{count} {what} exceed the limit of {limit}")


def _content_lines(text: str) -> list[str]:
    lines = list(filter(None, map(str.strip, text.splitlines())))
    return [line for line in lines if line[0] != "#"] if "#" in text else lines


def parse_matrix_text(text: str) -> Graph:
    """Parse the matrix format into a checked Graph.

    Raises MalformedInput, GraphTooLarge, or the first DiagonalNonZero or
    NegativeOrZeroWeight in row-major order.
    """
    tokens = " ".join(_content_lines(text)).split()
    if not tokens:
        raise MalformedInput("empty matrix input")
    try:
        n = _ascii_int(tokens[0])
    except ValueError:
        raise MalformedInput(f"vertex count is not an integer: {tokens[0]!r}") from None
    _check_count(n, MAX_VERTICES)
    entries = tokens[1:]
    if len(entries) != n * n:
        raise MalformedInput(f"expected {n * n} matrix entries, found {len(entries)}")
    # Each distinct token is parsed once, in order of first appearance, so the
    # first malformed one is the first in row-major order. Equal tokens share
    # one Weight.
    weight_of: dict[str, Weight] = {}
    for t in dict.fromkeys(entries):
        try:
            weight_of[t] = Weight.from_token(t)
        except ValueError as exc:
            raise MalformedInput(f"row {entries.index(t) // n + 1}: {exc}") from None
    zero = Weight.zero()
    non_positive = {t for t, w in weight_of.items() if w <= zero}.__contains__
    is_finite = {t for t, w in weight_of.items() if w.is_finite}.__contains__
    # Each row is scanned for its first violation in row-major order; its
    # out-edges are its finite off-diagonal tokens.
    adjacency = []
    for i in range(n):
        row = entries[i * n : (i + 1) * n]
        diagonal = weight_of[row[i]]
        for j in compress(range(n), map(non_positive, row)):
            if j > i and diagonal != zero:
                break
            if j != i:
                w = weight_of[row[j]]
                raise NegativeOrZeroWeight(f"NegativeOrZeroWeight at ({i + 1},{j + 1}): {w}")
        if diagonal != zero:
            raise DiagonalNonZero(f"DiagonalNonZero at ({i + 1},{i + 1}): {diagonal}")
        finite = compress(range(n), map(is_finite, row))
        adjacency.append(tuple([(j + 1, weight_of[row[j]]) for j in finite if j != i]))
    return Graph(n, tuple(adjacency))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format into a checked Graph.

    A well-formed body is checked in bulk. Any other is parsed line by line
    as :meth:`Graph.from_edges` consumes it, so the first bad line raises,
    whether its fault is in the syntax or in the edge.
    """
    lines = _content_lines(text)
    if not lines:
        raise MalformedInput("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedInput(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = _ascii_int(header[0]), _ascii_int(header[1])
    except ValueError:
        raise MalformedInput(f"header must be two integers, got {lines[0]!r}") from None
    _check_count(n, MAX_SPARSE_VERTICES)
    if m < 0:
        raise MalformedInput(f"edge count must be >= 0, got {m}")
    check_size(m, MAX_EDGES, "edges")
    body = lines[1:]
    if len(body) != m:
        raise MalformedInput(f"expected {m} edge lines, found {len(body)}")
    return _bulk_graph(n, body) or Graph.from_edges(n, _parsed_edges(body))


def _ascii_int(token: str) -> int:
    """``int(token)`` for an ASCII ``[+-]?[0-9]+``; ValueError otherwise.

    ``int`` also takes underscores between digits and non-ASCII decimal
    digits, and a token from ``str.split`` has no whitespace to strip, so
    refusing those two leaves the grammar."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


# Edge lines checked together, so one chunk's token strings are alive at once.
_CHUNK_LINES = 4096


def _bulk_graph(n: int, lines: list[str]) -> Graph | None:
    """The graph of ``lines`` if each is a well-formed edge line, else None.

    Line i of m becomes one int key ``(u * (n + 1) + v) * m + i``: one sort
    orders every row and puts a repeated edge next to its first listing. Each
    distinct weight token is checked once and becomes one ``Weight``."""
    m, width = len(lines), n + 1
    weight_of: dict[str, Weight] = {}
    keys: list[int] = []
    weights: list[Weight] = []
    for start in range(0, m, _CHUNK_LINES):
        chunk = lines[start : start + _CHUNK_LINES]
        joined = " | ".join(chunk)
        tokens = joined.split()
        # ASCII text without "_" gives int() nothing outside the grammar. With
        # 4k - 1 tokens for k lines, and no "|" in the endpoints and weights
        # checked below, the bars are every fourth token: each line has three.
        if not (joined.isascii() and "_" not in joined and len(tokens) == 4 * len(chunk) - 1):
            return None
        ws = tokens[2::4]
        try:
            us, vs = list(map(int, tokens[0::4])), list(map(int, tokens[1::4]))
            for token in set(ws).difference(weight_of):
                w = weight_of[token] = Weight.from_token(token)
                if w.is_infinite or w.fraction.numerator <= 0:
                    return None
        except ValueError:
            return None
        ends = us + vs
        if not 1 <= min(ends) <= max(ends) <= n or any(map(eq, us, vs)):
            return None
        keys += [(u * width + v) * m + i for i, u, v in zip(count(start), us, vs)]
        weights += map(weight_of.__getitem__, ws)
    keys.sort()
    if any(starmap(eq, pairwise(map(m.__rfloordiv__, keys)))):  # (u, v) twice
        return None
    bounds = [bisect_left(keys, u * width * m) for u in range(1, width + 1)]  # row starts
    # Made in row order, a row's pairs are near one another in memory.
    ids = list(range(width))  # the one int of each vertex id
    heads = map(ids.__getitem__, map(width.__rmod__, map(m.__rfloordiv__, keys)))
    pairs = list(zip(heads, map(weights.__getitem__, map(m.__rmod__, keys))))
    del keys, weights
    return Graph(n, tuple([tuple(pairs[a:b]) for a, b in pairwise(bounds)]))


def _parsed_edges(lines: list[str]) -> Iterator[tuple[int, int, Weight]]:
    weight_of = cache(Weight.from_token)
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(f"edge line must be 'u v w', got {line!r}")
        try:
            u, v = _ascii_int(parts[0]), _ascii_int(parts[1])
        except ValueError:
            raise MalformedInput(f"non-integer vertex in edge line {line!r}") from None
        try:
            w = weight_of(parts[2])
        except ValueError as exc:
            raise MalformedInput(f"edge line {line!r}: {exc}") from None
        if w.is_infinite:
            raise MalformedInput(f"edge line {line!r}: weight must be finite")
        yield u, v, w
