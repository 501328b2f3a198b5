"""Boros-Moll family: fixed low-degree values plus two independent routes.

The direct binomial formula for c_k(m) is cross-checked by rebuilding the
sequence from c_0(m) = 2^{-2m} C(2m, m) through the consecutive-ratio
recurrence; the two constructions share no code path beyond binomial().
"""

import math
from fractions import Fraction

import pytest

from ratioshift.boros_moll import (
    _bm_row,
    bm_coefficient,
    bm_polynomial,
    bm_ratio_identity,
    bm_shifted_seq,
)
from ratioshift.numeric_core import DomainError
from ratioshift.shape_props import check_log_concave, check_ratio_monotone


def test_fixed_value_p1():
    assert bm_polynomial(1).coeffs == (Fraction(3, 2), Fraction(1))


def test_fixed_value_p2():
    assert bm_polynomial(2).coeffs == (Fraction(21, 8), Fraction(15, 4), Fraction(3, 2))


def test_fixed_value_p0():
    assert bm_polynomial(0).coeffs == (Fraction(1),)


def test_shifted_seq_small_values():
    assert bm_shifted_seq(1) == (Fraction(1, 2), Fraction(1))
    assert bm_shifted_seq(2) == (Fraction(3, 8), Fraction(3, 4), Fraction(3, 2))


def test_coefficient_closed_form_spot_values():
    assert bm_coefficient(0, 0) == 1
    assert bm_coefficient(3, 0) == Fraction(math.comb(6, 3), 2 ** 6)
    assert bm_coefficient(5, 5) == Fraction(math.comb(10, 5), 2 ** 5)


def test_coefficients_via_ratio_recurrence():
    # Independent route: start from c_0 and multiply by the inverted ratio.
    for m in range(1, 35):
        c = Fraction(math.comb(2 * m, m), 2 ** (2 * m))
        assert c == bm_coefficient(m, 0)
        for k in range(m):
            c = c * Fraction((m - k) * (m + k + 1), (2 * m - 2 * k - 1) * (k + 1))
            assert c == bm_coefficient(m, k + 1)


def test_ratio_identity_exact_and_below_one():
    for m in range(1, 25):
        for k in range(m):
            check = bm_ratio_identity(m, k)
            assert check.equal
            assert check.below_one
            assert check.lhs == check.rhs


def test_ratio_identity_worked_example():
    check = bm_ratio_identity(2, 1)
    assert check.lhs == Fraction(1, 2)
    assert check.rhs == Fraction(1, 2)


def test_shifted_seq_positive_nondecreasing():
    for m in range(0, 30):
        seq = bm_shifted_seq(m)
        assert len(seq) == m + 1
        assert all(v > 0 for v in seq)
        assert all(seq[k] <= seq[k + 1] for k in range(m))


def test_polynomials_ratio_monotone_and_log_concave():
    for m in range(1, 25):
        p = bm_polynomial(m)
        assert check_ratio_monotone(p.coeffs).holds
        assert check_log_concave(p.coeffs).holds


def test_domain_guards():
    with pytest.raises(DomainError):
        bm_coefficient(3, 4)
    with pytest.raises(DomainError):
        bm_coefficient(3, -1)
    with pytest.raises(DomainError):
        bm_shifted_seq(-1)
    with pytest.raises(DomainError):
        bm_ratio_identity(3, 3)


@pytest.mark.parametrize("call", [
    lambda v: bm_coefficient(v, 0), lambda v: bm_coefficient(1, v),
    lambda v: bm_ratio_identity(v, 0), lambda v: bm_ratio_identity(2, v),
    bm_shifted_seq, bm_polynomial,
], ids=["coefficient-m", "coefficient-k", "ratio-m", "ratio-k", "shifted_seq", "polynomial"])
@pytest.mark.parametrize("value", [True, False, 1.0, Fraction(1), "1"])
def test_index_must_be_an_int(call, value):
    # As verify_identity refuses them: True used to read as m = 1.
    with pytest.raises(TypeError, match=f"must be an int, got {type(value).__name__}"):
        call(value)


def test_row_recurrence_matches_coefficient_formula():
    # _bm_row steps by the ratio recurrence; bm_coefficient is the binomial
    # formula, evaluated entry by entry.
    for m in range(0, 301):
        row, den = _bm_row(m)
        assert den == 4 ** m
        assert [Fraction(v, den) for v in row] == [bm_coefficient(m, k) for k in range(m + 1)]
        assert all(type(v) is int for v in row)


def moll_row(m):
    """4^m times the power-basis coefficients of P_m, from Moll's formula
    d_l(m) = 2^(-2m) sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, k) C(k, l)."""
    a = [2 ** k * math.comb(2 * m - 2 * k, m - k) * math.comb(m + k, k) for k in range(m + 1)]
    return [sum(a[k] * math.comb(k, l) for k in range(l, m + 1)) for l in range(m + 1)]


@pytest.mark.parametrize("ms", [range(0, 201), [1000]], ids=["0-200", "1000"])
def test_polynomial_matches_moll_integer_formula(ms):
    for m in ms:
        coeffs = bm_polynomial(m).coeffs
        assert coeffs == tuple(Fraction(d, 4 ** m) for d in moll_row(m))
        assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("ms", [range(0, 201), [1000]], ids=["0-200", "1000"])
def test_shifted_seq_matches_coefficient_formula(ms):
    # bm_coefficient is the per-entry formula the sequence was built from.
    for m in ms:
        seq = bm_shifted_seq(m)
        assert seq == tuple(bm_coefficient(m, k) for k in range(m + 1))
        assert all(type(c) is Fraction for c in seq)
