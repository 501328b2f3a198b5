"""Shape checkers: verdicts, witness soundness, and the implication lattice.

Every Fails verdict carries a witness. The soundness helper below replays
each witness against the original sequence, so a checker cannot pass these
tests by pointing at indices that do not actually violate anything.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ratioshift.numeric_core import clear_denominators, render_rational
from ratioshift.poly_ops import Polynomial, taylor_shift
from ratioshift.shape_props import (
    CHECKERS,
    PropertyVerdict,
    Status,
    Witness,
    _CONCAVE_LINKS,
    _FLOOR_BITS,
    _KEPT_TABLES,
    _lattice_statuses,
    _log_concave_w,
    _PROPS,
    _RATIO_LINKS,
    _ratio_monotone_w,
    _SPIRAL_LINKS,
    _spiral_w,
    audit_implications,
    audit_statuses,
    check_log_concave,
    check_no_internal_zeros,
    check_nonneg_nondecreasing,
    check_ratio_monotone,
    check_spiral,
    check_unimodal,
    ratio_chain_indices,
    spiral_chain_indices,
)
from ratioshift.theorem_engine import (
    HypothesisError,
    edge_inequality_holds,
    lemma2_preserved,
    lemma3_gap,
    s1_sum,
)


def assert_witness_sound(verdict, seq):
    """Check the witness points at real entries that really violate."""
    a = Polynomial(seq).coeffs
    w = verdict.witness
    assert w is not None
    assert w.values == tuple(a[i] for i in w.indices)
    prop, n = verdict.prop, len(w.indices)
    v = w.values
    if verdict.status is Status.NOT_APPLICABLE:
        assert n == 1 and v[0] <= 0
    elif prop == "nonneg-nondecreasing":
        assert (n == 1 and v[0] < 0) or (n == 2 and v[0] > v[1])
    elif prop == "unimodal":
        assert n == 4 and v[0] > v[1] and v[2] < v[3]
        assert w.indices[1] == w.indices[0] + 1
        assert w.indices[3] == w.indices[2] + 1
        assert w.indices[0] < w.indices[2]
    elif prop == "spiral":
        assert n == 2 and v[0] > v[1]
    elif prop == "log-concave":
        assert n == 3 and v[1] * v[1] < v[0] * v[2]
    elif prop == "ratio-monotone":
        if n == 4:
            assert v[0] * v[3] > v[2] * v[1]
        else:
            assert n == 2 and v[0] > v[1]
    elif prop == "no-internal-zeros":
        i, j, k = w.indices
        assert i < j < k and v[0] != 0 and v[1] == 0 and v[2] != 0
    else:
        raise AssertionError(f"unknown property {prop}")


# --- nonneg-nondecreasing ---

def test_nonneg_nondecreasing_holds():
    assert check_nonneg_nondecreasing((0, 1, 1, 5)).holds


@pytest.mark.parametrize("seq", [(-1, 2, 3), (1, 3, 2), (0, 0, -2)])
def test_nonneg_nondecreasing_fails_with_witness(seq):
    verdict = check_nonneg_nondecreasing(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)


# --- unimodal ---

def test_unimodal_holds():
    assert check_unimodal((1, 3, 3, 2)).holds
    assert check_unimodal((5, 4, 1)).holds
    assert check_unimodal((1, 2, 9)).holds
    assert check_unimodal((7,)).holds


def test_unimodal_fails():
    verdict = check_unimodal((2, 1, 2))
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, (2, 1, 2))


def test_unimodal_plateau_then_rise_ok():
    assert check_unimodal((1, 1, 2, 2, 1)).holds


# --- spiral ---

def test_spiral_chain_index_order():
    assert spiral_chain_indices(4) == [4, 0, 3, 1, 2]
    assert spiral_chain_indices(5) == [5, 0, 4, 1, 3, 2]
    assert spiral_chain_indices(1) == [1, 0]
    assert spiral_chain_indices(0) == [0]


def test_spiral_chain_is_permutation():
    for m in range(12):
        assert sorted(spiral_chain_indices(m)) == list(range(m + 1))


def test_spiral_holds():
    # 1 <= 2 <= 3 <= 9 along chain a_3, a_0, a_2, a_1.
    assert check_spiral((2, 9, 3, 1)).holds


def test_spiral_fails():
    seq = (1, 2, 30, 4)  # first link wants a_3 <= a_0 but 4 > 1
    verdict = check_spiral(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)


def test_spiral_not_applicable_on_nonpositive():
    for seq in ((0, 1, 2), (1, -2, 3)):
        verdict = check_spiral(seq)
        assert verdict.status is Status.NOT_APPLICABLE
        assert_witness_sound(verdict, seq)


# --- log-concave ---

def test_log_concave_holds():
    assert check_log_concave((1, 4, 2)).holds  # 16 >= 2
    assert check_log_concave((1, 1, 1)).holds


def test_log_concave_fails():
    seq = (4, 1, 4)
    verdict = check_log_concave(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)
    assert "discriminant" in verdict.detail


@pytest.mark.parametrize("m, scale", [(7, 0), (40, 600)], ids=["exact-loop", "floor-view"])
def test_log_concave_witness_at_each_lowered_entry_of_a_geometric_row(m, scale):
    # Every link of a geometric row is an exact tie; lowering a_k by one
    # breaks link k alone (its neighbours gain room). Eight entries stay
    # below the view's gate; 41 entries of 800 bits and more pass it.
    row = [2 ** k * 3 ** (m - k) << scale for k in range(m + 1)]
    assert (len(row) > 8 and min(row).bit_length() > _FLOOR_BITS) == (scale > 0)
    assert check_log_concave(row).holds
    for k in range(1, m):
        lowered = row[:k] + [row[k] - 1] + row[k + 1:]
        verdict = check_log_concave(lowered)
        assert verdict.witness.indices == (k - 1, k, k + 1)
        assert_witness_sound(verdict, lowered)
        assert _lattice_statuses(lowered)[2] is Status.FAILS  # ratio, spiral, log-concave, ...


def test_log_concave_not_applicable_on_zero():
    assert check_log_concave((1, 0, 1)).status is Status.NOT_APPLICABLE


# --- ratio-monotone ---

def test_ratio_chain_indices_even_degree():
    # m = 6: chain A ends at (4, 2), chain B at (2, 3).
    chain_a, chain_b = ratio_chain_indices(6)
    assert chain_a == [(6, 0), (5, 1), (4, 2)]
    assert chain_b == [(0, 5), (1, 4), (2, 3)]


def test_ratio_chain_indices_odd_degree():
    chain_a, chain_b = ratio_chain_indices(5)
    assert chain_a == [(5, 0), (4, 1), (3, 2)]
    assert chain_b == [(0, 4), (1, 3)]


def test_link_tables_are_kept_for_the_first_degrees_only():
    # Past the kept tables a lookup builds its table again: memory stays
    # bounded, and the witnesses do not change.
    for m in range(3, 3 + 2 * _KEPT_TABLES):
        row = [1] * m + [2]
        assert _ratio_monotone_w(row) == (m, 0, m - 1, 1)
        assert _log_concave_w(row) == (m - 2, m - 1, m)
        assert _spiral_w(row) == (m, 0)
    for tables in (_RATIO_LINKS, _CONCAVE_LINKS, _SPIRAL_LINKS):
        assert len(tables) == _KEPT_TABLES


def test_ratio_monotone_holds():
    # Shift of (1, 1, 1) by one: ratios 1/3 <= 3/3 <= 1 and 3/3 <= 1.
    assert check_ratio_monotone((3, 3, 1)).holds


def test_ratio_monotone_fails_on_final_ratio():
    seq = (1, 1, 2)  # a_2/a_0 = 2 > 1
    verdict = check_ratio_monotone(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)


def test_ratio_monotone_fails_on_chain_link():
    # m = 4, chain A: a_4/a_0 = 2 then a_3/a_1 = 1/10: decreasing.
    seq = (1, 10, 9, 1, 2)
    verdict = check_ratio_monotone(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)
    assert "chain" in verdict.detail


def test_ratio_monotone_not_applicable_on_nonpositive():
    assert check_ratio_monotone((1, 0, 2)).status is Status.NOT_APPLICABLE
    assert check_ratio_monotone((-1, 2, 3)).status is Status.NOT_APPLICABLE


def test_ratio_monotone_degree_one_and_zero():
    assert check_ratio_monotone((2, 1)).holds       # a_1/a_0 = 1/2 <= 1
    assert check_ratio_monotone((1, 2)).status is Status.FAILS
    assert check_ratio_monotone((5,)).holds          # no ratios at all


# --- no-internal-zeros ---

def test_no_internal_zeros_holds():
    assert check_no_internal_zeros((1, 2, 3)).holds
    assert check_no_internal_zeros((0, 1, 2, 0)).holds  # leading/trailing ok
    assert check_no_internal_zeros((0, 0, 0)).holds


def test_no_internal_zeros_fails():
    seq = (1, 0, 2)
    verdict = check_no_internal_zeros(seq)
    assert verdict.status is Status.FAILS
    assert_witness_sound(verdict, seq)


# --- separating examples: the two shape classes do not contain each other ---

def test_log_concave_but_not_spiral():
    seq = (1, 4, 2)
    assert check_log_concave(seq).holds
    assert check_spiral(seq).status is Status.FAILS  # a_2 = 2 > a_0 = 1


def test_spiral_but_not_log_concave():
    seq = (1, 10, 2, 1)
    assert check_spiral(seq).holds       # 1 <= 1 <= 2 <= 10
    assert check_log_concave(seq).status is Status.FAILS  # 4 < 10


# --- implication lattice ---

def test_audit_implications_names():
    names = [name for name, _ in audit_implications((3, 3, 1))]
    assert names == [
        "ratio-monotone=>log-concave",
        "ratio-monotone=>spiral",
        "log-concave=>unimodal",
        "spiral=>unimodal",
    ]


def test_audit_implications_on_random_sequences():
    # Mix raw positive draws with 1-shift images so the ratio-monotone
    # antecedent actually fires on a large share of the inputs.
    from ratioshift.poly_ops import Polynomial, taylor_shift

    rng = random.Random(2718)
    shifted_hits = 0
    for trial in range(2000):
        m = rng.randint(1, 8)
        raw = [Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(m + 1)]
        if trial % 2 == 0:
            seq = tuple(taylor_shift(Polynomial(sorted(raw)), 1).coeffs)
            shifted_hits += check_ratio_monotone(seq).holds
        else:
            seq = tuple(raw)
        assert all(ok for _, ok in audit_implications(seq))
    assert shifted_hits == 1000  # every shifted input exercises the antecedent


def test_audit_implications_consistent_on_separating_examples():
    for seq in ((1, 4, 2), (1, 10, 2, 1)):
        assert all(ok for _, ok in audit_implications(seq))


def test_audit_statuses_flags_exactly_the_broken_implications():
    # Statuses no sequence has, so a checker bug would show as these.
    lattice = ("ratio-monotone", "spiral", "log-concave", "unimodal")
    pairs = [("ratio-monotone", "log-concave"), ("ratio-monotone", "spiral"),
             ("log-concave", "unimodal"), ("spiral", "unimodal")]
    for combo in itertools.product(Status, repeat=4):
        statuses = dict(zip(lattice, combo))
        assert audit_statuses(statuses) == [
            (f"{a}=>{c}", not (statuses[a] is Status.HOLDS and statuses[c] is Status.FAILS))
            for a, c in pairs]


# --- the property table ---

def test_checkers_follow_the_table():
    assert list(CHECKERS) == list(_PROPS) == [
        "nonneg-nondecreasing", "unimodal", "spiral", "log-concave", "ratio-monotone",
        "no-internal-zeros"]
    for prop, checker in CHECKERS.items():
        assert checker((1, 2)).prop == prop


@pytest.mark.parametrize("entry", [*CHECKERS.values(), audit_implications, Polynomial,
                                   lemma3_gap, s1_sum, edge_inequality_holds],
                         ids=[*CHECKERS, "audit_implications", "Polynomial", "lemma3_gap",
                              "s1_sum", "edge_inequality_holds"])
def test_empty_sequence_is_a_value_error(entry):
    # One message, from Polynomial, the one place a sequence is coerced.
    with pytest.raises(ValueError, match="^a coefficient sequence needs at least one entry$"):
        entry(())


@pytest.mark.parametrize("entry", [Polynomial, check_spiral, lemma3_gap])
def test_text_entries_are_a_type_error(entry):
    # Fraction's own grammar would spend seconds building this int.
    for seq in (["1e10000000"], ["1", "2", "3"], (1, "2/3", 4)):
        with pytest.raises(TypeError, match="parse_rational"):
            entry(seq)


# --- JSON forms ---

def test_verdict_json_dict():
    d = check_nonneg_nondecreasing((2, 1)).to_json_dict()
    assert d["property"] == "nonneg-nondecreasing"
    assert d["status"] == "fails"
    assert d["witness"]["indices"] == [0, 1]
    assert d["witness"]["values"] == ["2", "1"]
    assert "descent" in d["detail"]


def test_holds_verdict_json_has_null_witness():
    d = check_unimodal((1, 2, 1)).to_json_dict()
    assert d["status"] == "holds"
    assert d["witness"] is None


# --- integer checkers against a Fraction reference ---
# The checkers compare the sequence scaled to ints; these references compare
# the caller's Fractions directly and must produce identical verdicts.

def _reference_nonpositive(prop, a):
    for i, v in enumerate(a):
        if v <= 0:
            return PropertyVerdict(prop, Status.NOT_APPLICABLE, Witness((i,), (v,)),
                                   f"nonpositive entry {render_rational(v)} at index {i}")
    return None


def reference_spiral(a):
    prop = "spiral"
    na = _reference_nonpositive(prop, a)
    if na:
        return na
    order = spiral_chain_indices(len(a) - 1)
    for i, j in zip(order, order[1:]):
        if a[i] > a[j]:
            return PropertyVerdict(
                prop, Status.FAILS, Witness((i, j), (a[i], a[j])),
                f"chain link a_{i} <= a_{j} violated: "
                f"{render_rational(a[i])} > {render_rational(a[j])}")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def reference_log_concave(a):
    prop = "log-concave"
    na = _reference_nonpositive(prop, a)
    if na:
        return na
    for k in range(1, len(a) - 1):
        disc = a[k] * a[k] - a[k + 1] * a[k - 1]
        if disc < 0:
            return PropertyVerdict(
                prop, Status.FAILS, Witness((k - 1, k, k + 1), (a[k - 1], a[k], a[k + 1])),
                f"discriminant at k={k} is {render_rational(disc)} < 0")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def reference_ratio_monotone(a):
    prop = "ratio-monotone"
    na = _reference_nonpositive(prop, a)
    if na:
        return na
    for name, pairs in zip("AB", ratio_chain_indices(len(a) - 1)):
        for (n0, d0), (n1, d1) in zip(pairs, pairs[1:]):
            if a[n0] / a[d0] > a[n1] / a[d1]:
                return PropertyVerdict(
                    prop, Status.FAILS,
                    Witness((n0, d0, n1, d1), (a[n0], a[d0], a[n1], a[d1])),
                    f"chain {name}: a_{n0}/a_{d0} > a_{n1}/a_{d1}")
        if pairs and a[pairs[-1][0]] > a[pairs[-1][1]]:
            n, d = pairs[-1]
            return PropertyVerdict(prop, Status.FAILS, Witness((n, d), (a[n], a[d])),
                                   f"chain {name}: final ratio a_{n}/a_{d} > 1")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def reference_nonneg_nondecreasing(a):
    prop = "nonneg-nondecreasing"
    for k, v in enumerate(a):
        if v < 0:
            return PropertyVerdict(prop, Status.FAILS, Witness((k,), (v,)),
                                   f"negative entry {render_rational(v)} at index {k}")
    for k in range(len(a) - 1):
        if a[k] > a[k + 1]:
            return PropertyVerdict(
                prop, Status.FAILS, Witness((k, k + 1), (a[k], a[k + 1])),
                f"descent {render_rational(a[k])} > {render_rational(a[k + 1])} "
                f"at indices ({k}, {k + 1})")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def reference_unimodal(a):
    prop = "unimodal"
    descents = [k for k in range(len(a) - 1) if a[k] > a[k + 1]]
    if descents:
        d = descents[0]
        for k in range(d + 1, len(a) - 1):
            if a[k] < a[k + 1]:
                return PropertyVerdict(
                    prop, Status.FAILS,
                    Witness((d, d + 1, k, k + 1), (a[d], a[d + 1], a[k], a[k + 1])),
                    f"descent at ({d}, {d + 1}) then ascent at ({k}, {k + 1})")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


def reference_no_internal_zeros(a):
    prop = "no-internal-zeros"
    nonzero = [i for i, v in enumerate(a) if v != 0]
    internal = [i for i, v in enumerate(a) if v == 0 and nonzero and nonzero[0] < i < nonzero[-1]]
    if internal:
        lo, i, hi = nonzero[0], internal[0], nonzero[-1]
        return PropertyVerdict(
            prop, Status.FAILS, Witness((lo, i, hi), (a[lo], a[i], a[hi])),
            f"zero at index {i} between nonzero entries at {lo} and {hi}")
    return PropertyVerdict(prop, Status.HOLDS, None, "")


# Log-concave and ratio-monotone first try each link on t_i = s_i >> sh, the
# smallest entry kept to _FLOOR_BITS bits (see the shape_props docstring).
# Short, narrow inputs never reach that view; these are long and wide, and
# put links at every distance from a tie.

def _shift_by_one(a):
    m = len(a) - 1
    return [sum(a[j] * math.comb(j, i) for j in range(i, m + 1)) for i in range(m + 1)]


def _wide_inputs():
    rng = random.Random(2051)
    for trial in range(400):
        m = rng.randint(8, 79)
        span = rng.randint(0, 600)  # bits between the smallest and largest entry
        kind = trial % 4
        if kind == 0:
            # Shifts of nondecreasing rows are ratio monotone, off any tie.
            row = _shift_by_one(sorted(rng.getrandbits(span // 2) + 1 for _ in range(m + 1)))
        elif kind == 1:
            # Binomial rows make every ratio link an exact tie.
            row = [math.comb(m, k) for k in range(m + 1)]
        elif kind == 2:
            # Geometric runs make every log-concave link an exact tie.
            p, q = (rng.randint(1, 1 << span // m) for _ in range(2))
            row = [p ** k * q ** (m - k) for k in range(m + 1)]
        else:
            row = [rng.getrandbits(span) + 1 for _ in range(m + 1)]
        scale, shift = rng.randint(1, 1 << 32), rng.randint(0, 2000)
        row = [v * scale << shift for v in row]
        variant = trial // 4 % 4
        unit = 1 << max(min(row).bit_length() - _FLOOR_BITS, 0)  # one floor in the view
        if variant == 1:
            # A single one-unit violation of a tie.
            row[rng.randrange(m + 1)] += rng.choice((-1, 1))
        elif variant == 2:
            # Entries moved to the edges of their floor, where a floor moves
            # by one or the remainder is the largest it can be.
            row = [v + rng.choice((-1, 0, unit - 1)) if v > 1 else v for v in row]
        elif variant == 3:
            # Chain A's first link, a_m a_1 <= a_{m-1} a_0, at the edges: a
            # tie on the view with a_m one floor down, failing exactly.
            row[m] -= 1
            row[1] += unit - 1
        # A common denominator scales the cleared integers alike.
        den = rng.randint(2, 1 << 40) if trial % 3 == 0 else 1
        yield tuple(Fraction(v, den) for v in row)


def _reference_inputs():
    rng = random.Random(4242)
    for trial in range(1500):
        m = rng.randint(0, 9)
        low = -3 if trial % 3 == 0 else 1  # a third may hold zero or negative entries
        seq = tuple(Fraction(rng.randint(low, 40), rng.randint(1, 12)) for _ in range(m + 1))
        if trial % 5 == 0:
            seq = tuple(sorted(seq))  # sorted runs reach Holds and late witnesses
        elif trial % 7 == 0:
            # Geometric runs make the inequalities tight (equal products).
            ratio = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            seq = tuple(seq[0] * ratio ** k for k in range(m + 1))
        yield seq
    yield from _wide_inputs()


@pytest.mark.parametrize("checker, reference", [
    (check_spiral, reference_spiral),
    (check_log_concave, reference_log_concave),
    (check_ratio_monotone, reference_ratio_monotone),
    (check_unimodal, reference_unimodal),
    (check_nonneg_nondecreasing, reference_nonneg_nondecreasing),
    (check_no_internal_zeros, reference_no_internal_zeros),
])
def test_integer_checkers_match_fraction_reference(checker, reference):
    statuses = set()
    for seq in _reference_inputs():
        verdict = checker(seq)
        assert verdict == reference(seq)
        # A polynomial is taken as it is, here one whose Fractions are unbuilt.
        cleared = taylor_shift(Polynomial(seq), 0)
        assert checker(cleared) == verdict
        if verdict.witness is not None:
            # Witness values are the caller's values, as Fractions.
            assert all(v == seq[i] and type(v) is Fraction
                       for i, v in zip(verdict.witness.indices, verdict.witness.values))
        statuses.add(verdict.status)
    # Only the checkers with a positivity precondition answer NotApplicable.
    needs_positive = reference in (reference_spiral, reference_log_concave,
                                   reference_ratio_monotone)
    assert statuses == set(Status) - (set() if needs_positive else {Status.NOT_APPLICABLE})


def test_lattice_statuses_match_fraction_reference():
    # The status path that the lattice audit, lemma2_preserved and separation
    # trials decide on builds no verdict; it reads every row of the table.
    references = {"nonneg-nondecreasing": reference_nonneg_nondecreasing,
                  "unimodal": reference_unimodal, "spiral": reference_spiral,
                  "log-concave": reference_log_concave,
                  "ratio-monotone": reference_ratio_monotone,
                  "no-internal-zeros": reference_no_internal_zeros}
    lattice = ["ratio-monotone", "spiral", "log-concave", "unimodal"]
    seen = {prop: set() for prop in references}
    lemma2_outcomes = set()
    for seq in _reference_inputs():
        s = clear_denominators(seq)[0]
        expected = {prop: ref(seq).status for prop, ref in references.items()}
        assert _lattice_statuses(s, tuple(references)) == tuple(expected.values())
        statuses = _lattice_statuses(s)  # by position, in the lattice's order
        assert statuses == tuple(expected[prop] for prop in lattice)
        assert audit_implications(seq) == audit_statuses(dict(zip(lattice, statuses)))
        assert all(ok for _, ok in audit_implications(seq))
        cleared = taylor_shift(Polynomial(seq), 0)
        assert audit_implications(cleared) == audit_implications(seq)
        # lemma2_preserved: a hypothesis error unless ratio monotone, else the
        # reference verdict of (x + 1) times the sequence.
        try:
            outcome = lemma2_preserved(Polynomial(seq))
        except HypothesisError:
            outcome = None
        product = tuple(lo + hi for lo, hi in zip((0, *seq), (*seq, 0)))
        assert outcome == (reference_ratio_monotone(product).holds
                           if expected["ratio-monotone"] is Status.HOLDS else None)
        lemma2_outcomes.add(outcome)
        for prop, status in expected.items():
            seen[prop].add(status)
    needs_positive = ("spiral", "log-concave", "ratio-monotone")
    assert seen == {prop: set(Status) - (set() if prop in needs_positive
                                         else {Status.NOT_APPLICABLE})
                    for prop in references}
    assert lemma2_outcomes == {None, True}


# --- the floor view of the two cross-multiplying finders ---

def test_wide_inputs_reach_the_floor_view():
    viewed = 0
    for seq in _wide_inputs():
        s = Polynomial(seq)._cleared()[0]
        viewed += len(s) > 8 and min(s).bit_length() > _FLOOR_BITS
    assert viewed > 380  # of 400; a row too narrow for the view runs the exact loop


class _Counted(int):
    """An int that counts the products formed from it."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__


def _parabola_row():
    # t_j = X - (j - 6)^2 is log concave on the view with margin 4 (j - 6)^2
    # at link j; the peak link j = 6 is an exact tie of the view's test.
    x = 3 << _FLOOR_BITS - 2
    return [x - (j - 6) ** 2 for j in range(13)], 6


def _tight_ratio_row():
    # The shift of 1..11, 66, 440, ..., 120, 11, is ratio monotone with room
    # at every link. The first link of chain A is set to the tie
    # (t_10 + 1)(t_1 + 1) = t_9 t_0: t_1 + 1 = u 2^a, t_0 a multiple of 2^a
    # and t_9 one of u, each moved by under 2^-20 of itself, and t_10 raised
    # to about 18 units. Those units are 2^(_FLOOR_BITS - 5), so the row's
    # smallest entry, t_10, has _FLOOR_BITS bits.
    t = [v << _FLOOR_BITS - 5 for v in _shift_by_one(list(range(1, 12)))]
    n0, d0, n1, d1 = 10, 0, 9, 1
    a = t[d1].bit_length() - 24
    u = -(-(t[d1] + 1) >> a)
    t[d1] = (u << a) - 1
    t[d0] = t[d0] >> a << a
    t[n1] = t[n1] // u * u
    t[n0] = t[n1] * t[d0] // (t[d1] + 1) - 1
    return t, (n0, d0, n1, d1)


def test_floor_view_proves_a_tie_of_its_own_test_with_no_exact_product():
    t, k = _parabola_row()
    assert (t[k + 1] + 1) * (t[k - 1] + 1) == t[k] * t[k]
    r, (n0, d0, n1, d1) = _tight_ratio_row()
    assert (r[n0] + 1) * (r[d1] + 1) == r[n1] * r[d0]
    for finder, row in ((_log_concave_w, t), (_ratio_monotone_w, r)):
        assert min(row).bit_length() == _FLOOR_BITS
        # Shifted past the view's floor, the view is the row itself.
        s = [_Counted(v << 300) for v in row]
        _Counted.products = 0
        assert finder(s) is None
        assert _Counted.products == 0
        # With sh = 0 the gate keeps the exact loop: two products a link.
        assert finder([_Counted(v) for v in row]) is None
        links = (len(row) - 2 if finder is _log_concave_w else
                 sum(len(pairs) - 1 for pairs in ratio_chain_indices(len(row) - 1)))
        assert _Counted.products == 2 * links
