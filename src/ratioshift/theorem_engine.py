"""Executable forms of the inequality steps behind shift-by-one certification.

Each operation here replays, as a standalone exact predicate, one step of
the argument that a polynomial with nonnegative nondecreasing coefficients
turns ratio monotone under the shift x -> x + 1:

* ``lemma1_holds``: the mediant-style step, from a/b <= c/d <= e/f deduce
  (a+c)/(b+d) <= (e+c)/(f+d);
* ``lemma2_preserved``: multiplying a ratio-monotone polynomial by (x + 1)
  keeps it ratio monotone;
* ``lemma3_gap``: the nondecreasing-sequence inequality
  m(m+1)/2 a_m^2 + a_m a_{m-1}
  >= (sum_{k<=m-2} (m-1-k) a_k) a_{m-1} + (sum_k a_k) a_{m-2};
* ``s1_sum`` / ``s1_rearranged``: the split-off sum
  sum_{k<m} (2k-m+1)/2 a_k and its paired-difference rearrangement;
* ``edge_inequality_holds``: the remaining edge link b_0/b_{m-1} <=
  b_1/b_{m-2} of the shifted polynomial, via the boundary closed forms;
* ``induction_decompose``: P(x+1) = a_0 + (x+1) Q(x+1) with Q the tail
  of P.

Each sequence predicate calls ``Polynomial`` on its input, which takes a
``Polynomial`` as it is and coerces and clears a sequence once, sums and
compares its cleared numerators as plain ints, and builds one Fraction per
returned value; their nondecreasing hypotheses are decided by the code behind
``shape_props.check_nonneg_nondecreasing``. ``lemma2_preserved`` asks
``shape_props.check_ratio_monotone`` whether B and (x + 1) B are ratio
monotone.

Hypothesis violations raise (``HypothesisError`` or ``DomainError``) while a
false conclusion is returned as data, so a randomized campaign can prove it
exercised a predicate instead of silently skipping it, and a hypothetical
mathematical failure surfaces as a reproducible counterexample rather than
an abort.

``Lemma3Report`` is a NamedTuple: immutable, unpackable, and compared and
hashed as the tuple of its fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .numeric_core import DomainError, as_rational, ratio_leq
from .poly_ops import (Polynomial, ShiftAlgorithm, _from_cleared, _scaled_boundary,
                       mul_by_x_plus_one, taylor_shift)
from .shape_props import _nonneg_nondecreasing_witness, check_ratio_monotone

__all__ = [
    "HypothesisError",
    "Lemma3Report",
    "edge_inequality_holds",
    "induction_decompose",
    "induction_replay_holds",
    "lemma1_holds",
    "lemma2_preserved",
    "lemma3_gap",
    "s1_rearranged",
    "s1_sum",
]


class HypothesisError(ValueError):
    """A predicate's hypothesis is violated (distinct from a false conclusion)."""


def lemma1_holds(a: Fraction | int, b: Fraction | int, c: Fraction | int,
                 d: Fraction | int, e: Fraction | int, f: Fraction | int) -> bool:
    """Mediant step: given positive a..f with a/b <= c/d <= e/f, decide
    (a+c)/(b+d) <= (e+c)/(f+d). Expected true whenever the hypothesis holds."""
    vals = tuple(as_rational(v) for v in (a, b, c, d, e, f))
    if any(v <= 0 for v in vals):
        raise DomainError(f"all six values must be positive, got {vals}")
    a, b, c, d, e, f = vals
    if not (ratio_leq(a, b, c, d) and ratio_leq(c, d, e, f)):
        raise HypothesisError("hypothesis a/b <= c/d <= e/f does not hold")
    return ratio_leq(a + c, b + d, e + c, f + d)


class Lemma3Report(NamedTuple):
    """Both sides of the nondecreasing-sequence inequality, exactly."""

    m: int
    lhs: Fraction
    rhs: Fraction

    @property
    def gap(self) -> Fraction:
        return self.lhs - self.rhs


def _scaled_seq(seq: Sequence[Fraction | int], min_m: int) -> tuple[tuple[int, ...], int, int]:
    """(s, lcm, m): the sequence times the lcm of its denominators as ints,
    that lcm, and the degree m; DomainError unless m >= ``min_m``."""
    p = Polynomial(seq)
    s, lcm = p._cleared()
    m = p.degree
    if m < min_m:
        raise DomainError(f"need m >= {min_m}, got m = {m}")
    return s, lcm, m


def lemma3_gap(seq: Sequence[Fraction | int]) -> Lemma3Report:
    """Exact lhs, rhs, and gap of the inequality; gap >= 0 is the contract.

    Requires m >= 2 (the right side references a_{m-2}) and a positive
    nondecreasing sequence.
    """
    s, lcm, m = _scaled_seq(seq, 2)
    if s[0] <= 0:
        raise DomainError("entries must be positive")
    if _nonneg_nondecreasing_witness(s):
        raise DomainError("entries must be nondecreasing")
    # m(m+1)/2 is an integer; both sides are quadratic in the entries.
    lhs = m * (m + 1) // 2 * s[m] * s[m] + s[m] * s[m - 1]
    rhs = sum([(m - 1 - k) * s[k] for k in range(m - 1)]) * s[m - 1] + sum(s) * s[m - 2]
    return Lemma3Report(m=m, lhs=Fraction(lhs, lcm * lcm), rhs=Fraction(rhs, lcm * lcm))


def s1_sum(seq: Sequence[Fraction | int]) -> Fraction:
    """sum_{k=0}^{m-1} (2k - m + 1)/2 * a_k, exactly (m >= 1)."""
    s, lcm, m = _scaled_seq(seq, 1)
    return Fraction(sum([(2 * k - m + 1) * s[k] for k in range(m)]), 2 * lcm)


def s1_rearranged(seq: Sequence[Fraction | int]) -> Fraction:
    """Paired-difference form:
    sum_{k=0}^{floor((m-1)/2)} (m - 1 - 2k)/2 * (a_{m-1-k} - a_k).

    Equals :func:`s1_sum` for every sequence; each summand is nonnegative
    when the sequence is nondecreasing, which is what makes the sum's sign
    evident.
    """
    s, lcm, m = _scaled_seq(seq, 1)
    return Fraction(sum([(m - 1 - 2 * k) * (s[m - 1 - k] - s[k])
                         for k in range((m - 1) // 2 + 1)]), 2 * lcm)


def edge_inequality_holds(seq: Sequence[Fraction | int]) -> bool:
    """Decide b_0 b_{m-2} <= b_1 b_{m-1} for the boundary coefficients of
    P(x + 1), i.e. the edge link b_0/b_{m-1} <= b_1/b_{m-2}.

    Requires degree m >= 2 and a nonnegative nondecreasing sequence with
    a_m > 0 (which makes all four boundary values positive). Expected true
    under the hypothesis.
    """
    s, _, m = _scaled_seq(seq, 2)
    if _nonneg_nondecreasing_witness(s):
        raise DomainError("entries must be nonnegative and nondecreasing")
    if s[m] <= 0:
        raise DomainError("leading coefficient a_m must be positive")
    b0, b1, b_m_minus_2, b_m_minus_1 = _scaled_boundary(s)
    return b0 * b_m_minus_2 <= b1 * b_m_minus_1


def induction_decompose(p: Sequence[Fraction | int]) -> tuple[Fraction, Polynomial]:
    """Split P as a_0 + x * Q(x) with Q(x) = sum_k a_{k+1} x^k (degree m-1).

    Shifting both sides by one gives the replay identity
    P(x+1) = a_0 + (x+1) Q(x+1), checked by :func:`induction_replay_holds`.
    """
    s, den = Polynomial(p)._cleared()
    if len(s) < 2:
        raise DomainError("decomposition needs degree >= 1")
    return Fraction(s[0], den), _from_cleared(s[1:], den)


def induction_replay_holds(p: Sequence[Fraction | int],
                           algo: ShiftAlgorithm = ShiftAlgorithm.HORNER_SYNTHETIC) -> bool:
    """Check P(x+1) = a_0 + (x+1) Q(x+1) coefficientwise, exactly."""
    p = Polynomial(p)
    a0, q = induction_decompose(p)
    lhs = taylor_shift(p, 1, algo)
    rhs = mul_by_x_plus_one(taylor_shift(q, 1, algo))
    reassembled = (rhs.coeffs[0] + a0,) + rhs.coeffs[1:]
    return lhs.coeffs == reassembled


def lemma2_preserved(b: Sequence[Fraction | int]) -> bool:
    """Given ratio-monotone B, decide whether (x + 1) B(x) is ratio monotone.

    Raises HypothesisError if B itself is not ratio monotone. Expected true
    under the hypothesis.
    """
    b = Polynomial(b)
    if not check_ratio_monotone(b).holds:
        raise HypothesisError("input polynomial is not ratio monotone")
    return check_ratio_monotone(mul_by_x_plus_one(b)).holds
