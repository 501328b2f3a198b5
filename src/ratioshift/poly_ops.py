"""Polynomials in the power basis with exact Taylor shifts.

A polynomial is a fixed-length sequence of exact coefficients a_0..a_m in
ascending degree, always held in one form: integer numerators over one
positive common denominator. The constructor is the one place a sequence is
coerced to exact rationals and cleared, once; every checker, predicate and
transform calls it on its input, and it returns a ``Polynomial`` as it is
(``Polynomial(p) is p``). The integers are the only copy it keeps: the
caller's entries are dropped once cleared, and ``coeffs``, the canonical
Fractions, is built from the integers on first read and kept. So equal
polynomials pickle to equal bytes.
Degree is positional (length - 1): transforms never trim trailing zeros
implicitly, because the boundary-coefficient identities are stated in terms
of positions m-1, m-2 relative to the representation length. Trimming is
the explicit, opt-in :func:`normalize`.

Two independent Taylor-shift algorithms are provided and must agree exactly:
the naive binomial expansion on Fractions (the oracle) and repeated
synthetic division (the fast default). Synthetic division runs on the
integer numerators and returns integers over a new common denominator, so
no Fraction is built until a caller reads ``coeffs``. For a shift by 1/q
it runs four passes per sweep of the list: the same additions on the same
operands as one pass at a time, with a quarter of the list reads and
writes. The at most three passes left, and every pass of any other shift,
run in the one single-pass loop. The boundary closed forms are summed on
the numerators too.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Set
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .numeric_core import DomainError, as_rational, binomial, clear_denominators

__all__ = [
    "BoundaryCoeffs",
    "Polynomial",
    "ShiftAlgorithm",
    "boundary_coeffs",
    "mul_by_x_plus_one",
    "normalize",
    "taylor_shift",
]


class ShiftAlgorithm(enum.Enum):
    """Strategy selector for :func:`taylor_shift`."""

    NAIVE_BINOMIAL = "naive"
    HORNER_SYNTHETIC = "horner"


# Refused as a whole coefficient sequence: iterated, text and bytes would be
# read as entries (b"12" as 49, 50), a set in its own iteration order and a
# mapping as its keys.
_NOT_SEQUENCES = (str, bytes, bytearray, memoryview, Set, Mapping)


class Polynomial:
    """Immutable power-basis polynomial; coeffs[k] multiplies x**k.

    It holds integer numerators over a positive common denominator and
    builds its Fractions from them on first read of ``coeffs``.
    Polynomial(p) is p. Equality, hash, repr and pickles are the Fraction tuple's.
    """

    __slots__ = ("_coeffs", "_ints", "_den")

    def __new__(cls, coeffs: Iterable[Fraction | int] | Polynomial = ()) -> Polynomial:
        # As tuple(t) is t; unpickling calls Polynomial.__new__(Polynomial).
        return coeffs if type(coeffs) is cls else object.__new__(cls)

    def __init__(self, coeffs: Iterable[Fraction | int] | Polynomial) -> None:
        if coeffs is self:
            return
        if isinstance(coeffs, _NOT_SEQUENCES):
            raise TypeError(f"refusing {type(coeffs).__name__} as a coefficient sequence")
        entries = [as_rational(c) for c in coeffs]
        if not entries:
            raise DomainError("a coefficient sequence needs at least one entry")
        ints, den = clear_denominators(entries)
        _set_ints(self, tuple(ints))
        _set_den(self, den)
        _set_coeffs(self, None)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as canonical Fractions, built from the numerators
        on first read and kept."""
        if self._coeffs is None:
            den = self._den
            _set_coeffs(self, tuple([Fraction(n, den) for n in self._ints]))
        return self._coeffs

    def _cleared(self) -> tuple[tuple[int, ...], int]:
        """(numerators, den): coefficient k is numerators[k] / den, den > 0."""
        return self._ints, self._den

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate at an exact point by Horner's rule."""
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return {"coeffs": self.coeffs}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["coeffs"])


# The slots' own setters: the frozen __setattr__ refuses every assignment,
# and each skips the attribute lookup by name that ``object.__setattr__``
# makes per slot.
_set_ints, _set_den, _set_coeffs = (
    slot.__set__ for slot in (Polynomial._ints, Polynomial._den, Polynomial._coeffs))


def _from_cleared(ints: Sequence[int], den: int) -> Polynomial:
    """The polynomial with coefficients ints[k] / den (den > 0), no Fraction
    built. It runs on every draw, shift and product, so it sets the slots
    in its own frame."""
    p = object.__new__(Polynomial)
    _set_ints(p, tuple(ints))
    _set_den(p, den)
    _set_coeffs(p, None)
    return p


def taylor_shift(p: Polynomial | Sequence[Fraction | int], c: Fraction | int,
                 algo: ShiftAlgorithm = ShiftAlgorithm.HORNER_SYNTHETIC) -> Polynomial:
    """Return B with B(x) = P(x + c), same representation length as P."""
    p = Polynomial(p)
    c = as_rational(c)
    if algo is ShiftAlgorithm.NAIVE_BINOMIAL:
        return Polynomial(_shift_naive(p.coeffs, c))
    if algo is ShiftAlgorithm.HORNER_SYNTHETIC:
        return _from_cleared(*_shift_horner(*p._cleared(), c))
    raise DomainError(f"unknown shift algorithm {algo!r}")


def _shift_naive(coeffs: tuple[Fraction, ...], c: Fraction) -> list[Fraction]:
    """Expand each a_k (x + c)^k by the binomial theorem and sum."""
    n = len(coeffs)
    out = [Fraction(0)] * n
    powers = [Fraction(1)]
    for _ in range(n - 1):
        powers.append(powers[-1] * c)
    for k, a_k in enumerate(coeffs):
        if a_k == 0:
            continue
        for j in range(k + 1):
            out[j] += a_k * binomial(k, j) * powers[k - j]
    return out


def _shift_horner(ints: tuple[int, ...], den: int, c: Fraction) -> tuple[list[int], int]:
    """Repeated synthetic division on integers; returns (numerators, den').

    The coefficients are a_k = ints[k] / den. With c = p/q and m = len - 1,
    the polynomial Q(y) = den q^m P(y/q) has integer coefficients
    ints[k] q^(m-k), and Q(y + p) = den q^m P(y/q + c), so coefficient j of
    P(x + c) is out[j] / (den q^(m-j)) = out[j] q^j / (den q^m), with out[j]
    coefficient j of Q(y + p).
    """
    out = list(ints)
    p, q = c.numerator, c.denominator
    n = len(out)
    if q != 1:
        weight = 1
        for k in range(n - 1, -1, -1):
            out[k] *= weight
            weight *= q
    # After pass i, out[i] is final. Each pass carries the value it just
    # wrote, out[j + 1], in the local acc rather than indexing it back out of
    # the list: the same additions in the same order, one subscript fewer
    # per inner step.
    i = 0
    if p == 1:
        # Passes i..i+3 run as one sweep down the list: s0..s3 carry each
        # pass's value at j + 1, and pass i + k + 1 adds pass i + k's new
        # out[j], so only pass i + 3's value is written back. Pass i + k
        # stops at j = i + k, hence the three-step tail. Every addition is
        # one that four single passes make, on the same operands; only the
        # list traffic is shared. The at most three passes left run below.
        while i + 4 < n:  # four passes left: i + 3 <= n - 2
            s0 = s1 = s2 = s3 = out[-1]
            for j in range(n - 2, i + 2, -1):
                s0 = out[j] + s0
                s1 = s0 + s1
                s2 = s1 + s2
                s3 = out[j] = s2 + s3
            s0 = out[i + 2] + s0
            s1 = s0 + s1
            out[i + 2] = s1 + s2
            s0 = out[i + 1] + s0
            out[i + 1] = s0 + s1
            out[i] = out[i] + s0
            i += 4
    if p != 0:
        for i in range(i, n - 1):  # from 0, or where the sweeps stopped
            acc = out[-1]
            for j in range(n - 2, i - 1, -1):
                acc = out[j] = out[j] + p * acc
    if q != 1:
        weight = 1
        for j in range(n):
            out[j] *= weight
            weight *= q
        den *= q ** (n - 1)
    return out, den


def mul_by_x_plus_one(b: Polynomial | Sequence[Fraction | int]) -> Polynomial:
    """Multiply by (x + 1): result coefficient k is a_{k-1} + a_k, summed on
    the cleared numerators over b's common denominator."""
    s, den = Polynomial(b)._cleared()
    return _from_cleared([lo + hi for lo, hi in zip((0, *s), (*s, 0))], den)


class BoundaryCoeffs(NamedTuple):
    b0: Fraction
    b1: Fraction
    b_m_minus_2: Fraction
    b_m_minus_1: Fraction
    b_m: Fraction


def boundary_coeffs(p: Polynomial | Sequence[Fraction | int]) -> BoundaryCoeffs:
    """Closed forms for coefficients 0, 1, m-2, m-1, m of P(x + 1).

    b_0 = sum a_k, b_1 = sum k a_k, b_{m-2} = a_{m-2} + (m-1) a_{m-1}
    + C(m,2) a_m, b_{m-1} = a_{m-1} + m a_m, b_m = a_m. Requires degree
    m >= 2 so the four index positions are distinct from the tail.
    """
    p = Polynomial(p)
    m = p.degree
    if m < 2:
        raise DomainError(f"boundary coefficients need degree >= 2, got {m}")
    s, den = p._cleared()
    return BoundaryCoeffs(*[Fraction(v, den) for v in (*_scaled_boundary(s), s[m])])


def _scaled_boundary(s: Sequence[int]) -> tuple[int, int, int, int]:
    """d b_0, d b_1, d b_{m-2}, d b_{m-1} from the cleared coefficients d a_k, d > 0."""
    m = len(s) - 1
    return (sum(s), sum([k * v for k, v in enumerate(s)]),
            s[m - 2] + (m - 1) * s[m - 1] + binomial(m, 2) * s[m], s[m - 1] + m * s[m])


def normalize(p: Polynomial | Sequence[Fraction | int]) -> Polynomial:
    """Trim trailing zero coefficients; the zero polynomial stays (0,)."""
    s, den = Polynomial(p)._cleared()
    end = len(s)
    while end > 1 and s[end - 1] == 0:
        end -= 1
    return _from_cleared(s[:end], den)
