"""Hypothesis strategies shared across property tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from pathlab import INFINITY, Graph, Weight


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
