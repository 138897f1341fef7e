"""Exception types shared across the package."""

from __future__ import annotations


class PathlabError(Exception):
    """Base class for all pathlab errors."""


class MalformedInput(PathlabError):
    """Input text does not match the expected file format."""


class DiagonalNonZero(PathlabError):
    """A matrix diagonal entry is not zero."""


class NegativeOrZeroWeight(PathlabError):
    """An off-diagonal finite weight is not strictly positive."""


class VertexOutOfRange(PathlabError):
    """A vertex id falls outside 1..n for the graph at hand."""


class DuplicateEdge(PathlabError):
    """The same ordered vertex pair was listed twice in an edge list."""


class SelfLoop(PathlabError):
    """An edge list entry joins a vertex to itself."""


class GraphTooLarge(PathlabError):
    """The graph exceeds a size limit: ``MAX_VERTICES`` for a dense matrix,
    the vertex or edge budget of an edge list, or the smaller limit of an
    exhaustive operation."""


class FrontierNotPermanent(PathlabError):
    """A relaxation frontier contains a vertex that is not permanently labeled."""
