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
comparison is decided by cross-multiplication, never division.

Log-concavity and ratio monotonicity are both chains of ratios that must
not decrease, so one finder, ``_chain_w``, decides both from a table of
links. A link (n0, d0, n1, d1) holds when a_{n0}/a_{d0} <= a_{n1}/a_{d1}.
Log-concavity is the one chain of links (k-1, k, k, k+1), k = 1..m-1, with
no final pair, and its witness is (k-1, k, k+1). Ratio monotonicity is
chains A and B, each with a final pair. The finder first tries each link on
a floor view of the integers: t_i = s_i >> sh, with sh chosen so that the
smallest entry keeps _FLOOR_BITS bits. Since
t_i 2^sh <= s_i < (t_i + 1) 2^sh, the integer test
(t_{n0} + 1)(t_{d1} + 1) <= t_{n1} t_{d0} proves s_{n0} s_{d1} < s_{n1} s_{d0},
and the link holds; only a link the view cannot prove is decided by the
exact products. The view never decides a failure, so verdicts and witnesses
are those of the exact products alone. It is built only for more than 8
entries and a positive sh. Below that gate, as on a separation trial's rows
(degree <= 6), t is s and each link skips the view's test.

Every property here is invariant under positive scaling, so each is decided
on ints: the cleared numerators of ``Polynomial(seq)``, zero tests included.
A ``Polynomial`` is taken as it is; a sequence is coerced and cleared once,
by that constructor. One table, ``_PROPS``, holds each property's int-only
finder, whether it needs positive entries, and its Fails detail. Every
checker is one call of ``_verdict`` on that polynomial, which builds a
witness only when the property does not hold; ``_lattice_statuses`` reads
statuses with no Fraction or witness built, as a tuple in the order of the
properties it is given (by default ``_LATTICE``), which is all the lattice
audit, ``lemma2_preserved`` and a separation trial need. ``Status`` hashes
by identity, so a tuple of statuses is a cheap dict key: a separation
trial looks its audit and examples up by it. A witness's values are built
as Fractions from the integers at its indices alone, at most four of them,
and a Fails detail reads only those values.

Every Fails verdict carries a witness whose indices and values reproduce
the violated inequality exactly; the witness layout per property is
documented on each checker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numeric_core import render_rational
from .poly_ops import Polynomial

__all__ = [
    "CHECKERS",
    "CoeffSeq",
    "PropertyVerdict",
    "Status",
    "Witness",
    "audit_implications",
    "audit_statuses",
    "check_log_concave",
    "check_no_internal_zeros",
    "check_nonneg_nondecreasing",
    "check_ratio_monotone",
    "check_spiral",
    "check_unimodal",
    "ratio_chain_indices",
    "spiral_chain_indices",
]

CoeffSeq = tuple[Fraction, ...]


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"

    # Members are singletons compared by identity. Enum hashes the name in
    # Python; hashing by identity, in C, looks a separation trial's row up
    # by its four statuses in about 50 ns instead of 330 (CPython 3.11).
    __hash__ = object.__hash__


# Reading a member off the class runs a descriptor on CPython 3.11 (about
# 0.2 us); the per-trial paths compare against these bindings instead.
_HOLDS, _FAILS, _NOT_APPLICABLE = Status.HOLDS, Status.FAILS, Status.NOT_APPLICABLE


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
        return self.status is _HOLDS

    def to_json_dict(self) -> dict:
        return {
            "property": self.prop,
            "status": self.status.value,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "detail": self.detail,
        }


def _nonneg_nondecreasing_witness(s: Sequence[int]) -> tuple[int, ...] | None:
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
    return _verdict("nonneg-nondecreasing", Polynomial(seq))


def _nonneg_nondecreasing_detail(v: CoeffSeq, w: tuple[int, ...]) -> str:
    if len(w) == 1:
        return f"negative entry {render_rational(v[0])} at index {w[0]}"
    return f"descent {render_rational(v[0])} > {render_rational(v[1])} at indices {w}"


def check_unimodal(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (d, d+1, j, j+1), a strict descent followed by a strict ascent."""
    return _verdict("unimodal", Polynomial(seq))


def _unimodal_w(s: Sequence[int]) -> tuple[int, ...] | None:
    descent = None
    for k in range(len(s) - 1):
        if descent is None:
            if s[k] > s[k + 1]:
                descent = k
        elif s[k] < s[k + 1]:
            return (descent, descent + 1, k, k + 1)
    return None


def spiral_chain_indices(m: int) -> list[int]:
    """Index order of the spiral chain: m, 0, m-1, 1, ..., ending at floor(m/2)."""
    order = []
    for i in range(m + 1):
        order.append(m - i // 2 if i % 2 == 0 else (i - 1) // 2)
    return order


_KEPT_TABLES = 128


class _LinkTables(dict):
    """A finder's link table by degree m, built by ``build(m)`` on the first
    lookup of m. A hit takes about 32 ns, where an ``lru_cache`` call took
    53 (timeit, CPython 3.11), and a separation trial makes three. Only the
    first _KEPT_TABLES tables are kept, as many as that cache held, so
    memory stays bounded however many degrees a process checks; any other
    is built on each lookup, for less than its finder's pass over a row that
    holds."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, m: int) -> tuple:
        table = self.build(m)
        if len(self) < _KEPT_TABLES:
            self[m] = table
        return table


def _spiral_table(m: int) -> tuple[tuple[int, int], ...]:
    order = spiral_chain_indices(m)
    return tuple(zip(order, order[1:]))


_SPIRAL_LINKS = _LinkTables(_spiral_table)


def check_spiral(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (i, j), adjacent chain positions with a_i > a_j."""
    return _verdict("spiral", Polynomial(seq))


def _spiral_w(s: Sequence[int]) -> tuple[int, ...] | None:
    for link in _SPIRAL_LINKS[len(s) - 1]:
        if s[link[0]] > s[link[1]]:
            return link
    return None


# Bits the smallest entry keeps in the floor view of ``_chain_w`` (see the
# module docstring). The view proves every ratio link of 2,000 theorem1
# trials (seed 7, degree 2..64) at 64 bits, and at 16; a wider view proves
# links closer to a tie. Below the gate a row of 3..7 entries pays the link
# table, a call frame and one ``t is s`` test a link: about 20% more per
# finder call than the two exact loops this replaced (80-160 ns on 380-700 ns;
# timeit, both interleaved in one process, best of 40, CPython 3.11).
_FLOOR_BITS = 64


def _chain_w(s: Sequence[int], chains) -> tuple[int, ...] | None:
    """The first failing link, or final pair (n, d) with a_n > a_d, of each
    (links, final) chain in turn, else None; an empty final is none."""
    t = s
    if len(s) > 8 and (sh := min(s).bit_length() - _FLOOR_BITS) > 0:
        t = [v >> sh for v in s]
    for links, final in chains:
        for link in links:
            n0, d0, n1, d1 = link
            # The view proves a_{n0} a_{d1} < a_{n1} a_{d0} when it can; else
            # the exact products decide (every entry is positive).
            if ((t is s or (t[n0] + 1) * (t[d1] + 1) > t[n1] * t[d0])
                    and s[n0] * s[d1] > s[n1] * s[d0]):
                return link
        if final and s[final[0]] > s[final[1]]:
            return final
    return None


def check_log_concave(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (k-1, k, k+1) where a_k^2 - a_{k+1} a_{k-1} < 0."""
    return _verdict("log-concave", Polynomial(seq))


def _concave_table(m: int) -> tuple:
    """One chain, a_{k-1}/a_k <= a_k/a_{k+1} for k = 1..m-1, with no final pair."""
    return ((tuple((k - 1, k, k, k + 1) for k in range(1, m)), ()),)


_CONCAVE_LINKS = _LinkTables(_concave_table)


def _log_concave_w(s: Sequence[int]) -> tuple[int, ...] | None:
    w = _chain_w(s, _CONCAVE_LINKS[len(s) - 1])
    return None if w is None else (w[0], w[1], w[3])


def ratio_chain_indices(m: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(numerator, denominator) index pairs of ratio chains A and B.

    Chain A pairs are (m-i, i) for i = 0..floor((m-1)/2); chain B pairs are
    (i-1, m-i) for i = 1..floor(m/2). For even m = 2n this ends chain A at
    (n+1, n-1) and chain B at (n-1, n).
    """
    chain_a = [(m - i, i) for i in range(0, (m - 1) // 2 + 1)]
    chain_b = [(i - 1, m - i) for i in range(1, m // 2 + 1)]
    return chain_a, chain_b


def _ratio_table(m: int) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, int]], ...]:
    """Per nonempty chain: its links (n0, d0, n1, d1), then its final pair (n, d)."""
    return tuple((tuple(p + q for p, q in zip(pairs, pairs[1:])), pairs[-1])
                 for pairs in ratio_chain_indices(m) if pairs)


_RATIO_LINKS = _LinkTables(_ratio_table)


def check_ratio_monotone(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Both outside-in ratio chains nondecreasing with final ratio <= 1.

    Witness for a monotonicity link: (n0, d0, n1, d1) with
    a_{n0}/a_{d0} > a_{n1}/a_{d1}; for a final-ratio violation: (n, d)
    with a_n > a_d. The detail names the chain.
    """
    return _verdict("ratio-monotone", Polynomial(seq))


def _ratio_monotone_w(s: Sequence[int]) -> tuple[int, ...] | None:
    return _chain_w(s, _RATIO_LINKS[len(s) - 1])


def _ratio_detail(v: CoeffSeq, w: tuple[int, ...]) -> str:
    # Chain A's ratios a_{m-i}/a_i have the larger index on top, chain B's the smaller.
    name = "A" if w[0] > w[1] else "B"
    if len(w) == 2:
        return f"chain {name}: final ratio a_{w[0]}/a_{w[1]} > 1"
    return f"chain {name}: a_{w[0]}/a_{w[1]} > a_{w[2]}/a_{w[3]}"


def check_no_internal_zeros(seq: Sequence[Fraction | int]) -> PropertyVerdict:
    """Witness: (j, i, j') with a_i = 0 between nonzero a_j and a_{j'}."""
    return _verdict("no-internal-zeros", Polynomial(seq))


def _no_internal_zeros_w(s: Sequence[int]) -> tuple[int, ...] | None:
    nonzero = [i for i, v in enumerate(s) if v != 0]
    if nonzero:
        lo, hi = nonzero[0], nonzero[-1]
        for i in range(lo + 1, hi):
            if s[i] == 0:
                return (lo, i, hi)
    return None


# One row per property, in the order of CHECKERS: its int-only finder (a
# witness's indices, or None), whether it needs positive entries, and the
# detail of its Fails verdict, from the witness's values v and indices w.
_PROPS = {
    "nonneg-nondecreasing": (_nonneg_nondecreasing_witness, False, _nonneg_nondecreasing_detail),
    "unimodal": (_unimodal_w, False, lambda v, w: (
        f"descent at ({w[0]}, {w[1]}) then ascent at ({w[2]}, {w[3]})")),
    "spiral": (_spiral_w, True, lambda v, w: (
        f"chain link a_{w[0]} <= a_{w[1]} violated: "
        f"{render_rational(v[0])} > {render_rational(v[1])}")),
    "log-concave": (_log_concave_w, True, lambda v, w: (
        f"discriminant at k={w[1]} is {render_rational(v[1] ** 2 - v[2] * v[0])} < 0")),
    "ratio-monotone": (_ratio_monotone_w, True, _ratio_detail),
    "no-internal-zeros": (_no_internal_zeros_w, False, lambda v, w: (
        f"zero at index {w[1]} between nonzero entries at {w[0]} and {w[2]}")),
}

# Each property's checker, in the table's order (that of ``check --props all``).
CHECKERS = {
    "nonneg-nondecreasing": check_nonneg_nondecreasing,
    "unimodal": check_unimodal,
    "spiral": check_spiral,
    "log-concave": check_log_concave,
    "ratio-monotone": check_ratio_monotone,
    "no-internal-zeros": check_no_internal_zeros,
}

# The four properties the implication lattice relates, in status-tuple order.
_LATTICE = ("ratio-monotone", "spiral", "log-concave", "unimodal")


def _verdict(prop: str, p: Polynomial) -> PropertyVerdict:
    """One property's verdict on p: its finder decides on the cleared
    numerators, and only a verdict other than Holds builds a witness and a
    detail, from Fractions built at the witness's indices alone."""
    s, den = p._cleared()
    find, positive_only, detail = _PROPS[prop]
    if positive_only and min(s) <= 0:
        i = next(i for i, v in enumerate(s) if v <= 0)
        value = Fraction(s[i], den)
        return PropertyVerdict(prop, _NOT_APPLICABLE, Witness((i,), (value,)),
                               f"nonpositive entry {render_rational(value)} at index {i}")
    w = find(s)
    if w is None:
        return PropertyVerdict(prop, _HOLDS, None, "")
    values = tuple([Fraction(s[i], den) for i in w])
    return PropertyVerdict(prop, _FAILS, Witness(w, values), detail(values, w))


def _lattice_statuses(s: Sequence[int], props: tuple[str, ...] = _LATTICE) -> tuple[Status, ...]:
    """The statuses of ``props``, by default the four lattice properties, on a
    cleared sequence, as a tuple in that order; builds no Fraction, witness
    or dict. A separation trial looks its row up by this tuple."""
    out = []  # a loop: a comprehension's frame costs a trial 0.15 us on CPython 3.11
    if min(s) > 0:
        for prop in props:
            out.append(_HOLDS if _PROPS[prop][0](s) is None else _FAILS)
    else:
        for prop in props:
            find, positive_only, _ = _PROPS[prop]
            out.append(_NOT_APPLICABLE if positive_only else _HOLDS if find(s) is None else _FAILS)
    return tuple(out)


# Implication lattice restated at checker level, each with its name. An antecedent
# that Holds with a consequent that Fails signals a checker bug, never a math failure.
_IMPLICATIONS = tuple((f"{a}=>{c}", a, c) for a, c in (
    ("ratio-monotone", "log-concave"),
    ("ratio-monotone", "spiral"),
    ("log-concave", "unimodal"),
    ("spiral", "unimodal"),
))


def audit_statuses(statuses: dict[str, Status]) -> list[tuple[str, bool]]:
    """Evaluate the implication lattice on the four statuses of one sequence.

    Returns (implication name, consistent) per implication; an implication is
    inconsistent only when its antecedent Holds while its consequent Fails.
    NotApplicable antecedents make the implication vacuously consistent.
    """
    return [(name, statuses[a] is not _HOLDS or statuses[c] is not _FAILS)
            for name, a, c in _IMPLICATIONS]


def audit_implications(seq: Sequence[Fraction | int]) -> list[tuple[str, bool]]:
    """Evaluate the implication lattice on one sequence (see audit_statuses);
    builds no verdict."""
    statuses = _lattice_statuses(Polynomial(seq)._cleared()[0])
    return audit_statuses(dict(zip(_LATTICE, statuses)))
