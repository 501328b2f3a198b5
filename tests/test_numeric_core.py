import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioshift.numeric_core import (
    DomainError,
    ParseError,
    as_rational,
    binomial,
    clear_denominators,
    parse_rational,
    ratio_leq,
    render_rational,
)


# --- binomial, with math.comb as the independent oracle ---

@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=220))
def test_binomial_matches_comb(n, k):
    expected = math.comb(n, k) if k <= n else 0
    assert binomial(n, k) == expected


def test_binomial_small_table():
    assert binomial(0, 0) == 1
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, 2) == 10
    assert binomial(10, 3) == 120
    assert binomial(3, 7) == 0


def test_binomial_large_is_exact():
    # Big enough that float arithmetic would round.
    assert binomial(200, 100) == math.comb(200, 100)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=120))
def test_binomial_pascal_identity(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative():
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(3, -2)


# --- ratio_leq ---

def test_ratio_leq_basic():
    assert ratio_leq(1, 3, 1, 2)
    assert not ratio_leq(1, 2, 1, 3)
    assert ratio_leq(2, 4, 1, 2)  # equality
    assert ratio_leq(-1, 2, 0, 5)  # negative numerators allowed


def test_ratio_leq_rational_arguments():
    assert ratio_leq(Fraction(1, 3), Fraction(2, 7), Fraction(9, 2), Fraction(1, 5))


def test_ratio_leq_requires_positive_denominators():
    with pytest.raises(DomainError):
        ratio_leq(1, 0, 1, 2)
    with pytest.raises(DomainError):
        ratio_leq(1, 2, 1, -3)


@given(
    st.integers(-50, 50), st.integers(1, 50),
    st.integers(-50, 50), st.integers(1, 50),
)
def test_ratio_leq_agrees_with_fraction_compare(pn, pd, qn, qd):
    assert ratio_leq(pn, pd, qn, qd) == (Fraction(pn, pd) <= Fraction(qn, qd))


# --- parsing and rendering ---

@pytest.mark.parametrize("text,value", [
    ("3", Fraction(3)),
    ("-7", Fraction(-7)),
    ("+4", Fraction(4)),
    ("3/2", Fraction(3, 2)),
    ("-9/6", Fraction(-3, 2)),
    ("0/5", Fraction(0)),
    ("1.25", Fraction(5, 4)),
    ("0.1", Fraction(1, 10)),
    ("-.5", Fraction(-1, 2)),
    ("2.", Fraction(2)),
    ("  12  ", Fraction(12)),
    ("+.5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("00012", Fraction(12)),
    ("0/7", Fraction(0)),
])
def test_parse_rational_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "", "   ", "3//2", "abc", "1/2/3", "1e3", ".", "2-3",
    # Fraction alone reads each of these (underscores from Python 3.11, spaces
    # around "/" from 3.12); the last two are a full-width 1 and an
    # Arabic-Indic 3.
    "1_000", "1 / 2", "1E3", "\uff11", "\u0663",
    # Signs and a point without a digit, and a float word.
    "+.", "-", "inf",
])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_rational_zero_denominator_is_domain_error():
    with pytest.raises(DomainError):
        parse_rational("1/0")


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="interpreter has no int/str digit limit")
@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "3" * 5000, "0." + "3" * 5000])
def test_digits_past_interpreter_limit_are_domain_errors(text):
    with pytest.raises(DomainError, match="too long to convert"):
        parse_rational(text)
    with pytest.raises(DomainError, match="too long to convert"):
        render_rational(Fraction(10 ** 5000, 3))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_rational("12x4")
    assert info.value.position == 2


def test_decimal_parse_is_exact_not_float():
    # float("0.1") is not 1/10; the parser must not go through float.
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("0.1") != Fraction(0.1)


@given(st.fractions(max_denominator=10 ** 9))
def test_render_parse_roundtrip(q):
    assert parse_rational(render_rational(q)) == q


def test_render_canonical_form():
    assert render_rational(Fraction(6, 4)) == "3/2"
    assert render_rational(Fraction(-6, 4)) == "-3/2"
    assert render_rational(Fraction(8, 2)) == "4"
    assert render_rational(5) == "5"


def test_render_refuses_float_and_text_before_any_conversion():
    # Fraction(value) would render 1.5 as "3/2" and spend seconds on the
    # 5,000,001-digit int of "1e5000000"; as_rational refuses both by type.
    with pytest.raises(TypeError, match="float"):
        render_rational(1.5)
    with pytest.raises(TypeError, match="parse_rational"):
        render_rational("1e5000000")


# --- as_rational ---

def test_as_rational_accepts_exact_types():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(2, 7)) == Fraction(2, 7)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_rejects_text():
    # Fraction("1e10000000") would build a 33-million-bit int first.
    for text in ("1", "1/2", "1e10000000"):
        with pytest.raises(TypeError, match="parse_rational"):
            as_rational(text)


def test_clear_denominators():
    values = (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 4))
    assert clear_denominators(values) == ([6, -8, 0, 15], 12)
    assert clear_denominators((Fraction(7),)) == ([7], 1)
