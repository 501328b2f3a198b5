"""Exact generation of the Boros-Moll polynomial family.

The degree-m Boros-Moll polynomial is

    P_m(x) = sum_{k=0}^{m} c_k(m) (x + 1)^k,
    c_k(m) = 2^{k-2m} C(2m-2k, m-k) C(m+k, k),

so the coefficient sequence of P_m(x - 1) is just (c_0(m), ..., c_m(m)),
a positive nondecreasing sequence. Consecutive coefficients satisfy

    c_k(m) / c_{k+1}(m) = (2m-2k-1)(k+1) / ((m-k)(m+k+1)) < 1.

Everything in this module is exact. One integer row,
2^(2m) c_k(m) = 2^k C(2m-2k, m-k) C(m+k, k) over the common denominator
2^(2m), feeds both the sequence and the power-basis expansion, which reuses
the integer Taylor shift; Fractions are built only where a caller reads
them. The row is built from C(2m, m) by the ratio recurrence above, one
exact multiply and divide per entry; ``bm_coefficient`` evaluates the
binomial formula itself and is the independent reference for the row. No
floating point anywhere. Every m and k must be an int (not a bool).

``BmRatioCheck`` is a NamedTuple: immutable, unpackable, and compared and
hashed as the tuple of its fields. An m whose row of m + 1 entries no list
could hold is a ``DomainError``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .numeric_core import DomainError, binomial
from .poly_ops import Polynomial, _from_cleared, taylor_shift

__all__ = [
    "BmRatioCheck",
    "bm_coefficient",
    "bm_polynomial",
    "bm_ratio_identity",
    "bm_shifted_seq",
]

# The row is a list of m + 1 entries, and no list is longer than
# sys.maxsize // 8; math.comb would raise OverflowError only past sys.maxsize.
_MAX_M = sys.maxsize // 8 - 1


def _check_int(name: str, value: object) -> None:
    # A bool would read as 0 or 1, and a float would fail only inside
    # math.comb.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def bm_coefficient(m: int, k: int) -> Fraction:
    """c_k(m) = 2^{k-2m} C(2m-2k, m-k) C(m+k, k), exactly."""
    _check_int("m", m)
    _check_int("k", k)
    if not 0 <= k <= m:
        raise DomainError(f"need 0 <= k <= m, got k={k}, m={m}")
    return Fraction(binomial(2 * m - 2 * k, m - k) * binomial(m + k, k),
                    2 ** (2 * m - k))


class BmRatioCheck(NamedTuple):
    """Both sides of the consecutive-coefficient ratio identity."""

    lhs: Fraction
    rhs: Fraction
    equal: bool
    below_one: bool


def bm_ratio_identity(m: int, k: int) -> BmRatioCheck:
    """Compare c_k(m)/c_{k+1}(m) with (2m-2k-1)(k+1)/((m-k)(m+k+1)).

    Both equal and below_one are expected true for every 0 <= k <= m-1.
    """
    _check_int("m", m)
    _check_int("k", k)
    if not 0 <= k <= m - 1:
        raise DomainError(f"need 0 <= k <= m-1, got k={k}, m={m}")
    lhs = bm_coefficient(m, k) / bm_coefficient(m, k + 1)
    rhs = Fraction((2 * m - 2 * k - 1) * (k + 1), (m - k) * (m + k + 1))
    return BmRatioCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, below_one=lhs < 1)


def _bm_row(m: int) -> tuple[list[int], int]:
    """(2^(2m) c_0(m), ..., 2^(2m) c_m(m)) as ints, and 2^(2m).

    The row starts at 2^(2m) c_0(m) = C(2m, m) and steps by the ratio
    c_{k+1}/c_k = (m-k)(m+k+1) / ((2m-2k-1)(k+1)). Each step's floor
    division is exact, because the next entry is an integer: one multiply
    and one divide per entry where the formula takes two binomials.
    ``bm_coefficient`` keeps the formula, as the independent reference.
    """
    _check_int("m", m)
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    if m > _MAX_M:
        raise DomainError(f"m = {m} is too large (at most {_MAX_M})")
    v = comb(2 * m, m)
    row = [v]
    for k in range(m):
        v = v * ((m - k) * (m + k + 1)) // ((2 * m - 2 * k - 1) * (k + 1))
        row.append(v)
    return row, 1 << 2 * m


def bm_shifted_seq(m: int) -> tuple[Fraction, ...]:
    """(c_0(m), ..., c_m(m)): the coefficient sequence of P_m(x - 1)."""
    return _from_cleared(*_bm_row(m)).coeffs


def bm_polynomial(m: int) -> Polynomial:
    """P_m in the power basis: shift the (x+1)-basis coefficients by one."""
    return taylor_shift(_from_cleared(*_bm_row(m)), 1)
