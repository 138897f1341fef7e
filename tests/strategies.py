"""Hypothesis strategies shared across property tests, and the reference
graph-invariant checker."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from pathlab import INFINITY, DiagonalNonZero, Graph, NegativeOrZeroWeight, Weight


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
def graphs(draw, max_n: int = 6, weights=finite_weights) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
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
    return Graph(n, tuple(rows))


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


def validate(g: Graph) -> list[Violation]:
    """Every invariant violation in row-major order; empty means ok."""
    violations = []
    for i in g.vertices():
        for j in g.vertices():
            w = g.weights[i - 1][j - 1]
            if i == j:
                if w != Weight.zero():
                    violations.append(Violation(DiagonalNonZero, i, j, w))
            elif w.is_finite and w <= Weight.zero():
                violations.append(Violation(NegativeOrZeroWeight, i, j, w))
    return violations
