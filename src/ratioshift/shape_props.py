"""Witness-producing checkers for coefficient-sequence shape properties.

A coefficient sequence a_0..a_m is

* nonneg-nondecreasing: a_k >= 0 and a_k <= a_{k+1};
* unimodal: a_0 <= ... <= a_r >= ... >= a_m for some peak r;
* spiral: the outside-in interleaved chain
  a_m <= a_0 <= a_{m-1} <= a_1 <= ... <= a_{floor(m/2)} holds;
* log-concave: a_k^2 - a_{k+1} a_{k-1} >= 0 for 1 <= k <= m-1;
* ratio monotone: both outside-in ratio chains are nondecreasing and end
  at or below 1:
    (A)  a_m/a_0 <= a_{m-1}/a_1 <= ... <= a_{m-i}/a_i, i up to
         floor((m-1)/2), final ratio <= 1;
    (B)  a_0/a_{m-1} <= a_1/a_{m-2} <= ... <= a_{i-1}/a_{m-i}, i from 1
         up to floor(m/2), final ratio <= 1.

Spiral, log-concave, and ratio-monotone are defined for strictly positive
sequences only; on any nonpositive entry the checkers return NotApplicable
rather than Fails, so campaigns can tell precondition violations apart from
property violations. All inequalities are non-strict and every ratio
comparison is decided by cross-multiplication, never division. Every one of
these properties is invariant under positive scaling, so each comparing
check builds one view (``_scaled``: the sequence times the lcm L of its
denominators, as ints, and L) and decides on ints; ``lattice_verdicts``
builds one view for all four of its checks. No-internal-zeros tests the
Fractions against zero. Witnesses quote the caller's own Fractions; the
log-concave detail is an int over L^2.

Every Fails verdict carries a witness whose indices and values reproduce
the violated inequality exactly; the witness layout per property is
documented on each checker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric_core import as_rational, clear_denominators, render_rational

__all__ = [
    "CoeffSeq",
    "PropertyVerdict",
    "Status",
    "Witness",
    "audit_implications",
    "audit_verdicts",
    "check_log_concave",
    "check_no_internal_zeros",
    "check_nonneg_nondecreasing",
    "check_ratio_monotone",
    "check_spiral",
    "check_unimodal",
    "coeff_seq",
    "lattice_verdicts",
    "ratio_chain_indices",
    "spiral_chain_indices",
]

CoeffSeq = tuple[Fraction, ...]


def coeff_seq(values: Iterable[Fraction | int]) -> CoeffSeq:
    """Coerce to a tuple of exact rationals; at least one entry required."""
    seq = tuple([as_rational(v) for v in values])  # a list: see Polynomial
    if not seq:
        raise ValueError("a coefficient sequence needs at least one entry")
    return seq


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Witness:
    """Indices into the sequence plus the exact values found there."""

    indices: tuple[int, ...]
    values: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "values": [render_rational(v) for v in self.values],
        }


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property check on one sequence."""

    prop: str
    status: Status
    witness: Witness | None
    detail: str

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    def to_json_dict(self) -> dict:
        return {
            "property": self.prop,
            "status": self.status.value,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "detail": self.detail,
        }


def _holds(prop: str) -> PropertyVerdict:
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def _fails(prop: str, a: CoeffSeq, indices: tuple[int, ...], detail: str) -> PropertyVerdict:
    """A Fails verdict whose witness quotes the caller's own entries at ``indices``."""
    return PropertyVerdict(prop, Status.FAILS,
                           Witness(indices, tuple([a[i] for i in indices])), detail)


def _scaled(seq: Sequence[Fraction | int]) -> tuple[CoeffSeq, list[int], int]:
    """The caller's Fractions, for witnesses; the sequence times the lcm of
    its denominators, as ints, for every comparison; and that lcm."""
    a = coeff_seq(seq)
    return (a, *clear_denominators(a))


def _not_applicable_nonpositive(prop: str, a: CoeffSeq,
                                s: list[int]) -> PropertyVerdict | None:
    """NotApplicable verdict if the positivity precondition fails, else None."""
    for i, v in enumerate(s):
        if v <= 0:
            return PropertyVerdict(prop, Status.NOT_APPLICABLE, Witness((i,), (a[i],)),
                                   f"nonpositive entry {render_rational(a[i])} at index {i}")
    return None


def _nonneg_nondecreasing_witness(s: list[int]) -> tuple[int, ...] | None:
    """Indices (k,) of the first negative entry, else (k, k+1) of the first
    descent, else None. The lemma predicates check their hypotheses with it:
    they need the decision, not a rendered verdict."""
    for k, v in enumerate(s):
        if v < 0:
            return (k,)
    for k in range(len(s) - 1):
        if s[k] > s[k + 1]:
            return (k, k + 1)
    return None


def check_nonneg_nondecreasing(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (k,) with value a_k < 0, or (k, k+1) with a_k > a_{k+1}."""
    prop = "nonneg-nondecreasing"
    a, s, _ = _scaled(seq)
    w = _nonneg_nondecreasing_witness(s)
    if w is None:
        return _holds(prop)
    if len(w) == 1:
        return _fails(prop, a, w, f"negative entry {render_rational(a[w[0]])} at index {w[0]}")
    return _fails(prop, a, w, f"descent {render_rational(a[w[0]])} > "
                  f"{render_rational(a[w[1]])} at indices {w}")


def check_unimodal(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (d, d+1, j, j+1), a strict descent followed by a strict ascent."""
    return _unimodal(*_scaled(seq))


def _unimodal(a: CoeffSeq, s: list[int], lcm: int) -> PropertyVerdict:
    prop = "unimodal"
    descent = None
    for k in range(len(s) - 1):
        if descent is None:
            if s[k] > s[k + 1]:
                descent = k
        elif s[k] < s[k + 1]:
            return _fails(prop, a, (descent, descent + 1, k, k + 1),
                          f"descent at ({descent}, {descent + 1}) then ascent at ({k}, {k + 1})")
    return _holds(prop)


def spiral_chain_indices(m: int) -> list[int]:
    """Index order of the spiral chain: m, 0, m-1, 1, ..., ending at floor(m/2)."""
    order = []
    for i in range(m + 1):
        order.append(m - i // 2 if i % 2 == 0 else (i - 1) // 2)
    return order


def check_spiral(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (i, j), adjacent chain positions with a_i > a_j."""
    return _spiral(*_scaled(seq))


def _spiral(a: CoeffSeq, s: list[int], lcm: int) -> PropertyVerdict:
    prop = "spiral"
    na = _not_applicable_nonpositive(prop, a, s)
    if na:
        return na
    order = spiral_chain_indices(len(a) - 1)
    for prev, nxt in zip(order, order[1:]):
        if s[prev] > s[nxt]:
            return _fails(prop, a, (prev, nxt), f"chain link a_{prev} <= a_{nxt} violated: "
                          f"{render_rational(a[prev])} > {render_rational(a[nxt])}")
    return _holds(prop)


def check_log_concave(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (k-1, k, k+1) where a_k^2 - a_{k+1} a_{k-1} < 0."""
    return _log_concave(*_scaled(seq))


def _log_concave(a: CoeffSeq, s: list[int], lcm: int) -> PropertyVerdict:
    prop = "log-concave"
    na = _not_applicable_nonpositive(prop, a, s)
    if na:
        return na
    for k in range(1, len(a) - 1):
        if s[k] * s[k] < s[k + 1] * s[k - 1]:
            disc = Fraction(s[k] * s[k] - s[k + 1] * s[k - 1], lcm * lcm)
            return _fails(prop, a, (k - 1, k, k + 1),
                          f"discriminant at k={k} is {render_rational(disc)} < 0")
    return _holds(prop)


def ratio_chain_indices(m: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(numerator, denominator) index pairs of ratio chains A and B.

    Chain A pairs are (m-i, i) for i = 0..floor((m-1)/2); chain B pairs are
    (i-1, m-i) for i = 1..floor(m/2). For even m = 2n this ends chain A at
    (n+1, n-1) and chain B at (n-1, n).
    """
    chain_a = [(m - i, i) for i in range(0, (m - 1) // 2 + 1)]
    chain_b = [(i - 1, m - i) for i in range(1, m // 2 + 1)]
    return chain_a, chain_b


def check_ratio_monotone(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Both outside-in ratio chains nondecreasing with final ratio <= 1.

    Witness for a monotonicity link: (n0, d0, n1, d1) with
    a_{n0}/a_{d0} > a_{n1}/a_{d1}; for a final-ratio violation: (n, d)
    with a_n > a_d. The detail names the chain.
    """
    return _ratio_monotone(*_scaled(seq))


def _ratio_monotone(a: CoeffSeq, s: list[int], lcm: int) -> PropertyVerdict:
    prop = "ratio-monotone"
    na = _not_applicable_nonpositive(prop, a, s)
    if na:
        return na
    for name, pairs in zip("AB", ratio_chain_indices(len(a) - 1)):
        for (n0, d0), (n1, d1) in zip(pairs, pairs[1:]):
            # Cross-multiplied: past the precondition every entry is positive.
            if s[n0] * s[d1] > s[n1] * s[d0]:
                return _fails(prop, a, (n0, d0, n1, d1),
                              f"chain {name}: a_{n0}/a_{d0} > a_{n1}/a_{d1}")
        if pairs:
            n, d = pairs[-1]
            if s[n] > s[d]:
                return _fails(prop, a, (n, d), f"chain {name}: final ratio a_{n}/a_{d} > 1")
    return _holds(prop)


def check_no_internal_zeros(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (j, i, j') with a_i = 0 between nonzero a_j and a_{j'}."""
    prop = "no-internal-zeros"
    a = coeff_seq(seq)  # a zero test needs no scaling
    nonzero = [i for i, v in enumerate(a) if v != 0]
    if nonzero:
        lo, hi = nonzero[0], nonzero[-1]
        for i in range(lo + 1, hi):
            if a[i] == 0:
                return _fails(prop, a, (lo, i, hi),
                              f"zero at index {i} between nonzero entries at {lo} and {hi}")
    return _holds(prop)


# Implication lattice restated at checker level. An antecedent that Holds
# with a consequent that Fails signals a checker bug, never a math failure.
_IMPLICATIONS = (
    ("ratio-monotone", "log-concave"),
    ("ratio-monotone", "spiral"),
    ("log-concave", "unimodal"),
    ("spiral", "unimodal"),
)


def lattice_verdicts(seq: Sequence[Fraction | int]) -> dict[str, PropertyVerdict]:
    """The four verdicts the implication lattice relates, from one view."""
    view = _scaled(seq)
    return {
        "ratio-monotone": _ratio_monotone(*view),
        "spiral": _spiral(*view),
        "log-concave": _log_concave(*view),
        "unimodal": _unimodal(*view),
    }


def audit_verdicts(verdicts: dict[str, PropertyVerdict]) -> list[tuple[str, bool]]:
    """Evaluate the implication lattice on the verdicts of one sequence.

    Returns (implication name, consistent) per implication; an implication is
    inconsistent only when its antecedent Holds while its consequent Fails.
    NotApplicable antecedents make the implication vacuously consistent.
    """
    results = []
    for antecedent, consequent in _IMPLICATIONS:
        inconsistent = (verdicts[antecedent].status is Status.HOLDS
                        and verdicts[consequent].status is Status.FAILS)
        results.append((f"{antecedent}=>{consequent}", not inconsistent))
    return results


def audit_implications(seq: Sequence[Fraction | int]) -> list[tuple[str, bool]]:
    """Evaluate the implication lattice on one sequence (see audit_verdicts)."""
    return audit_verdicts(lattice_verdicts(seq))
