"""Exact edge weights with an absorbing INFINITY sentinel.

Finite weights are stored as :class:`fractions.Fraction` so label values,
distances, and rendered traces compare bit-exactly regardless of how many
additions produced them. INFINITY is a distinct sentinel (not a big number):
it absorbs addition and sorts above every finite value.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from numbers import Rational

# Most digits a weight token in a graph file may carry, integer and
# fractional parts together. It bounds the exact values, and the work of
# parsing and summing them, that a file can ask for.
MAX_TOKEN_DIGITS = 30

# The graph-file grammar: ASCII digits only, no exponent, no fraction bar.
_DECIMAL_TOKEN = re.compile(r"[+-]?([0-9]+)(?:\.([0-9]+))?")
# Everything ``str(Weight)`` writes for a finite weight: a decimal, or a/b for
# a denominator with a prime factor other than 2 and 5.
_EXACT_STR = re.compile(r"-?[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?")


@functools.total_ordering
class Weight:
    """A non-negative exact distance, or the INFINITY sentinel."""

    __slots__ = ("_value",)

    _value: Fraction | None

    def __init__(self, value: Fraction | None):
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, val):  # pragma: no cover - guard only
        raise AttributeError("Weight is immutable")

    @classmethod
    def finite(cls, value: int | str | Fraction) -> "Weight":
        return cls(Fraction(value))

    @classmethod
    def zero(cls) -> "Weight":
        return _ZERO

    @classmethod
    def from_token(cls, token: str) -> "Weight":
        """Parse a matrix/edge-list token: a decimal literal or ``INF``.

        A decimal literal is ``[+-]?[0-9]+(\\.[0-9]+)?`` with at most
        :data:`MAX_TOKEN_DIGITS` digits; ``INF`` is case-insensitive. Raises
        ValueError for anything else.
        """
        if token.upper() == "INF":
            return INFINITY
        match = _DECIMAL_TOKEN.fullmatch(token)
        if match is None or len(match[1]) + len(match[2] or "") > MAX_TOKEN_DIGITS:
            raise ValueError(
                f"weight token {token!r} is not INF or a decimal literal"
                f" of at most {MAX_TOKEN_DIGITS} digits"
            )
        return cls(Fraction(token))

    @classmethod
    def from_str(cls, text: str) -> "Weight":
        """Inverse of ``str``: ``INF``, a decimal literal, or ``a/b``.

        Raises ValueError for anything else.
        """
        if text == "INF":
            return INFINITY
        if _EXACT_STR.fullmatch(text) is None:
            raise ValueError(f"not a weight string: {text!r}")
        return cls(Fraction(text))

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise ValueError("INFINITY has no finite value")
        return self._value

    def __add__(self, other) -> "Weight":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return INFINITY
        return Weight(self._value + other._value)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._value, other._value
        if a is None or b is None:
            return a is b
        # In lowest terms with a positive denominator, equal values have equal
        # pairs; comparing them skips Fraction's numbers.Rational checks.
        return a.numerator == b.numerator and a.denominator == b.denominator

    def __hash__(self) -> int:
        if self._value is None:
            return hash(("pathlab.Weight", "INF"))
        return hash(self._value)

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._value, other._value
        if a is None:
            return False
        if b is None:
            return True
        return a.numerator * b.denominator < b.numerator * a.denominator

    def __str__(self) -> str:
        if self._value is None:
            return "INF"
        return _decimal_str(self._value)

    def __repr__(self) -> str:
        if self._value is None:
            return "INFINITY"
        return f"Weight({self._value})"


INFINITY = Weight(None)
_ZERO = Weight(Fraction(0))


def _coerce(value) -> Weight:
    if isinstance(value, Weight):
        return value
    if isinstance(value, Rational):
        return Weight(Fraction(value))
    return NotImplemented


def _decimal_str(q: Fraction) -> str:
    # Exact decimal expansion when the denominator divides a power of ten,
    # fraction notation otherwise (cannot occur for parsed decimal input).
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    scaled = num * 10**k // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"
