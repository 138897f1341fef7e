from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab import INFINITY, Weight
from pathlab.weights import MAX_STR_DIGITS


def test_finite_sum():
    assert Weight.finite(2) + Weight.finite(3) == Weight.finite(5)


def test_infinity_absorbs_on_either_side():
    assert INFINITY + Weight.finite(3) == INFINITY
    assert Weight.finite(3) + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_finite_addition_is_exact_and_commutative(a, b):
    wa, wb = Weight.finite(a), Weight.finite(b)
    assert wa + wb == Weight.finite(a + b)
    assert wa + wb == wb + wa


@given(
    st.fractions(min_value=0, max_value=1000, max_denominator=100),
    st.fractions(min_value=0, max_value=1000, max_denominator=100),
)
def test_fraction_addition_is_exact(a, b):
    assert (Weight.finite(a) + Weight.finite(b)).fraction == a + b


# A Weight, INFINITY above every finite value, compared against equal Weight
# objects, ints and Fractions.
ORDERED = {
    "INF": INFINITY,
    "0": Weight.zero(),
    "1": Weight.finite(1),
    "another 1": Weight.finite(1),
    "2.5": Weight.finite("2.5"),
    "int 1": 1,
    "Fraction(5, 2)": Fraction(5, 2),
}


def _rank(x):
    return math.inf if x is INFINITY else x.fraction if isinstance(x, Weight) else x


def test_ordering():
    assert Weight.finite(2) < Weight.finite(3)
    assert Weight.finite(3) < INFINITY
    assert not INFINITY < Weight.finite(3)
    assert not INFINITY < INFINITY
    assert INFINITY == INFINITY
    assert min(INFINITY, Weight.finite(5), Weight.finite(2)) == Weight.finite(2)
    # the truth table of all six operators over every pair with a Weight on
    # either side: the order of the exact numbers, with INFINITY above them
    for op in (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge):
        for a_name, a in ORDERED.items():
            for b_name, b in ORDERED.items():
                if isinstance(a, Weight) or isinstance(b, Weight):
                    assert op(a, b) is op(_rank(a), _rank(b)), (a_name, op.__name__, b_name)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
def test_finite_comparisons_are_those_of_the_fractions(a, b):
    # pairs such as 1/2 and 1/3 share a numerator; 2/7 and 3/7 a denominator
    for op in (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge):
        assert op(Weight.finite(a), Weight.finite(b)) is op(a, b)
    assert (Weight.finite(Fraction(1, 2)) == Weight.finite(Fraction(1, 3))) is False
    assert (Weight.finite(Fraction(2, 7)) < Weight.finite(Fraction(3, 7))) is True


def test_compares_against_plain_numbers():
    assert Weight.finite(5) == 5
    assert Weight.finite("2.5") == Fraction(5, 2)
    assert Weight.finite(1) < 2
    assert INFINITY != 10**12


def test_token_parsing():
    assert Weight.from_token("INF") == INFINITY
    assert Weight.from_token("inf") == INFINITY
    assert Weight.from_token("7") == Weight.finite(7)
    assert Weight.from_token("2.5") == Weight.finite(Fraction(5, 2))
    with pytest.raises(ValueError):
        Weight.from_token("seven")


def test_string_rendering_is_canonical():
    assert str(INFINITY) == "INF"
    assert str(Weight.finite(8)) == "8"
    assert str(Weight.finite("2.5")) == "2.5"
    assert str(Weight.finite("0.25")) == "0.25"
    assert str(Weight.finite(Fraction(1, 3))) == "1/3"


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 10, 100, 1000]))
def test_string_round_trip(num, den):
    w = Weight(Fraction(num, den))
    assert Weight.from_token(str(w)) == w


@given(st.fractions())
def test_from_str_inverts_str(q):
    w = Weight(q)
    assert Weight.from_str(str(w)) == w


def test_from_str_rejects_what_str_never_writes():
    assert Weight.from_str("INF") is INFINITY
    assert Weight.from_str("-7/3") == Weight(Fraction(-7, 3))
    for text in ["inf", "1e5", "1/0", "1/-3", " 1", "1_0", "\u0661", "", "1.", "nan"]:
        with pytest.raises(ValueError):
            Weight.from_str(text)


def test_from_str_reads_runs_of_at_most_max_str_digits():
    # a longer run gets one message on every version, with or without
    # CPython's int-string limit, before Fraction reads it
    run = "7" * MAX_STR_DIGITS
    for text in [run, f"-{run}.{run}", f"1/{run}"]:
        assert Weight.from_str(text).fraction == Fraction(text)
    message = f"^a weight string has more than {MAX_STR_DIGITS} digits in a row$"
    for text in [run + "7", f"1.{run}7", f"1/{run}7", f"1/0{run}"]:
        with pytest.raises(ValueError, match=message):
            Weight.from_str(text)


def test_str_writes_a_long_expansion_as_a_fraction_that_from_str_reads():
    # 1/2**4301 has 4,301 decimal places; 1/2**4300, at the cap, keeps them
    long, capped = Weight(Fraction(1, 2**4301)), Weight(Fraction(1, 2**MAX_STR_DIGITS))
    assert str(long) == f"1/{2**4301}"
    assert Weight.from_str(str(long)) == long
    assert str(capped).startswith("0.") and len(str(capped)) == 2 + MAX_STR_DIGITS
    assert Weight.from_str(str(capped)) == capped
    assert str(Weight(Fraction(-3, 5**4301))) == f"-3/{5**4301}"


def test_repr():
    assert repr(Weight.finite(Fraction(7, 2))) == "Weight(7/2)"
    assert repr(INFINITY) == "INFINITY"


def test_infinity_has_no_fraction():
    with pytest.raises(ValueError):
        INFINITY.fraction


def test_weight_is_immutable_and_hashable():
    w = Weight.finite(3)
    with pytest.raises(AttributeError):
        w._value = None
    assert hash(Weight.finite(3)) == hash(Weight.finite(3))
    assert len({Weight.finite(1), Weight.finite(1), INFINITY}) == 2


@pytest.mark.parametrize("value", [True, False])
def test_finite_refuses_a_bool(value):
    with pytest.raises(TypeError, match=f"^a bool is no weight: {value}$"):
        Weight.finite(value)
