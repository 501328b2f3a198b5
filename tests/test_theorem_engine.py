import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioshift.numeric_core import DomainError
from ratioshift.poly_ops import (
    BoundaryCoeffs,
    Polynomial,
    ShiftAlgorithm,
    boundary_coeffs,
    mul_by_x_plus_one,
    taylor_shift,
)
from ratioshift.shape_props import check_ratio_monotone
from ratioshift.theorem_engine import (
    HypothesisError,
    Lemma3Report,
    edge_inequality_holds,
    induction_decompose,
    induction_replay_holds,
    lemma1_holds,
    lemma2_preserved,
    lemma3_gap,
    s1_rearranged,
    s1_sum,
)

entries = st.fractions(min_value=-30, max_value=30, max_denominator=12)


# --- mediant-style inequality ---

def test_lemma1_worked_example():
    # 1/3 <= 2/4 <= 3/5, conclusion (1+2)/(3+4) <= (3+2)/(5+4).
    assert lemma1_holds(1, 3, 2, 4, 3, 5)


def test_lemma1_with_fractions():
    assert lemma1_holds(Fraction(1, 2), 2, 1, Fraction(7, 2), 2, 3)


def test_lemma1_requires_positive_arguments():
    with pytest.raises(DomainError):
        lemma1_holds(0, 3, 2, 4, 3, 5)
    with pytest.raises(DomainError):
        lemma1_holds(1, 3, 2, -4, 3, 5)


def test_lemma1_rejects_unordered_hypothesis():
    with pytest.raises(HypothesisError):
        lemma1_holds(3, 1, 1, 4, 5, 1)  # 3 > 1/4


@given(*(st.fractions(min_value=Fraction(1, 20), max_value=40, max_denominator=20)
         for _ in range(6)))
def test_lemma1_randomized(a, b, c, d, e, f):
    # Sort the three ratios, relabel so the hypothesis chain holds, then the
    # conclusion must hold; this exercises the inequality, not the guard.
    ratios = sorted([(a, b), (c, d), (e, f)], key=lambda t: t[0] / t[1])
    (a, b), (c, d), (e, f) = ratios
    assert lemma1_holds(a, b, c, d, e, f)


# --- quadratic-form gap ---

def test_lemma3_worked_example():
    report = lemma3_gap((1, 2, 3))
    assert report == Lemma3Report(2, Fraction(33), Fraction(8))
    assert report.gap == Fraction(25)


def test_lemma3_gap_zero_for_constant_sequences():
    for length in range(3, 12):
        assert lemma3_gap([Fraction(7, 3)] * length).gap == 0


def test_lemma3_rejects_short_or_unordered_input():
    with pytest.raises(DomainError):
        lemma3_gap((1, 2))
    with pytest.raises(DomainError):
        lemma3_gap((3, 2, 4))
    with pytest.raises(DomainError):
        lemma3_gap((0, 1, 2))


def test_lemma3_gap_nonnegative_randomized():
    rng = random.Random(31)
    for _ in range(400):
        m = rng.randint(2, 12)
        seq = sorted(Fraction(rng.randint(1, 99), rng.randint(1, 99))
                     for _ in range(m + 1))
        assert lemma3_gap(seq).gap >= 0


# --- the S1 rearrangement is an unconditional identity ---

def test_s1_worked_example():
    assert s1_sum((1, 2, 3)) == Fraction(1, 2)
    assert s1_rearranged((1, 2, 3)) == Fraction(1, 2)


@given(st.lists(entries, min_size=2, max_size=12))
def test_s1_forms_agree_on_arbitrary_sequences(coeffs):
    assert s1_sum(coeffs) == s1_rearranged(coeffs)


def test_s1_rearranged_terms_nonnegative_when_nondecreasing():
    # On nondecreasing input every paired difference is >= 0, so the sum is.
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 10)
        seq = sorted(Fraction(rng.randint(0, 50), rng.randint(1, 9))
                     for _ in range(m + 1))
        assert s1_sum(seq) >= 0


def test_s1_needs_degree_one():
    with pytest.raises(DomainError):
        s1_sum((5,))


# --- edge inequality on boundary coefficients ---

def test_edge_inequality_worked_example():
    assert edge_inequality_holds((1, 2, 3))


def test_edge_inequality_guards():
    with pytest.raises(DomainError):
        edge_inequality_holds((1, 2))            # degree too small
    with pytest.raises(DomainError):
        edge_inequality_holds((2, 1, 3))         # not nondecreasing
    with pytest.raises(DomainError):
        edge_inequality_holds((-1, 0, 1))        # negative entry
    with pytest.raises(DomainError):
        edge_inequality_holds((0, 0, 0))         # a_m not positive


def test_edge_inequality_randomized():
    rng = random.Random(4242)
    for _ in range(300):
        m = rng.randint(2, 14)
        seq = sorted(Fraction(rng.randint(0, 40), rng.randint(1, 40))
                     for _ in range(m + 1))
        if seq[-1] == 0:
            seq[-1] = Fraction(1)
        assert edge_inequality_holds(seq)


# --- induction replay: P(x+1) = a_0 + (x+1) Q(x+1) ---

def test_induction_decompose():
    a0, q = induction_decompose(Polynomial((5, 1, 2)))
    assert a0 == Fraction(5)
    assert q.coeffs == (Fraction(1), Fraction(2))


def test_induction_decompose_needs_degree_one():
    with pytest.raises(DomainError):
        induction_decompose(Polynomial((3,)))


@pytest.mark.parametrize("wrap", [list, Polynomial])
def test_sequence_predicates_take_a_list_or_a_polynomial(wrap):
    # The README lists them as sequence predicates; a list used to raise
    # AttributeError.
    assert lemma2_preserved(wrap([1, 2, 1])) is True
    with pytest.raises(HypothesisError):
        lemma2_preserved(wrap([1, 2]))
    assert induction_replay_holds(wrap([1, 2, 3])) is True
    a0, q = induction_decompose(wrap([1, Fraction(2, 3), 3]))
    assert (a0, q) == (Fraction(1), Polynomial([Fraction(2, 3), 3]))
    assert type(a0) is Fraction and all(type(v) is Fraction for v in q.coeffs)


@pytest.mark.parametrize("algo", [ShiftAlgorithm.NAIVE_BINOMIAL,
                                  ShiftAlgorithm.HORNER_SYNTHETIC])
def test_induction_replay_worked_example(algo):
    assert induction_replay_holds(Polynomial((1, 1, 1)), algo)


@given(st.lists(entries, min_size=2, max_size=10))
def test_induction_replay_randomized(coeffs):
    assert induction_replay_holds(Polynomial(coeffs))


def test_induction_replay_reassembly_is_exact():
    # Recompute both sides independently for one polynomial.
    p = Polynomial((Fraction(2, 3), -1, 4, Fraction(5, 7)))
    a0, q = induction_decompose(p)
    lhs = taylor_shift(p, 1)
    rhs = mul_by_x_plus_one(taylor_shift(q, 1))
    assert lhs.coeffs[0] == rhs.coeffs[0] + a0
    assert lhs.coeffs[1:] == rhs.coeffs[1:]


# --- multiplication by (x + 1) preserves ratio monotonicity ---

def test_lemma2_worked_example():
    assert lemma2_preserved(Polynomial((2, 1)))


def test_lemma2_rejects_non_ratio_monotone_input():
    with pytest.raises(HypothesisError):
        lemma2_preserved(Polynomial((1, 2)))  # final ratio 2 > 1


def test_lemma2_decides_on_the_product(monkeypatch):
    # Lemma 2 makes every valid product ratio monotone, so only a forced
    # product can show that the conclusion is read off it, not off B.
    from ratioshift import theorem_engine

    monkeypatch.setattr(theorem_engine, "mul_by_x_plus_one", lambda b: Polynomial((1, 2)))
    assert not lemma2_preserved(Polynomial((2, 1)))


def test_lemma2_randomized_on_one_shifts():
    rng = random.Random(555)
    for _ in range(250):
        m = rng.randint(1, 12)
        seq = sorted(Fraction(rng.randint(0, 30), rng.randint(1, 30))
                     for _ in range(m + 1))
        if seq[-1] == 0:
            seq[-1] = Fraction(2)
        b = taylor_shift(Polynomial(seq), 1)
        assert check_ratio_monotone(b.coeffs).holds  # generator sanity
        assert lemma2_preserved(b)


# --- integer predicates against a Fraction reference ---
# The predicates sum and compare the sequence scaled to ints; these
# references sum the caller's Fractions directly, with the same guards.

def reference_boundary_coeffs(a):
    m = len(a) - 1
    if m < 2:
        raise DomainError(f"boundary coefficients need degree >= 2, got {m}")
    return BoundaryCoeffs(sum(a, Fraction(0)), sum((k * v for k, v in enumerate(a)), Fraction(0)),
                          a[m - 2] + (m - 1) * a[m - 1] + Fraction(m * (m - 1), 2) * a[m],
                          a[m - 1] + m * a[m], a[m])


def reference_nondecreasing(a):
    return all(a[k] <= a[k + 1] for k in range(len(a) - 1))


def reference_lemma3_gap(a):
    m = len(a) - 1
    if m < 2:
        raise DomainError(f"need m >= 2, got m = {m}")
    if a[0] <= 0:
        raise DomainError("entries must be positive")
    if not reference_nondecreasing(a):
        raise DomainError("entries must be nondecreasing")
    lhs = Fraction(m * (m + 1), 2) * a[m] * a[m] + a[m] * a[m - 1]
    rhs = (sum(((m - 1 - k) * a[k] for k in range(m - 1)), Fraction(0)) * a[m - 1]
           + sum(a, Fraction(0)) * a[m - 2])
    return Lemma3Report(m, lhs, rhs)


def reference_s1_guard(a):
    m = len(a) - 1
    if m < 1:
        raise DomainError(f"need m >= 1, got m = {m}")
    return m


def reference_s1_sum(a):
    m = reference_s1_guard(a)
    return sum((Fraction(2 * k - m + 1, 2) * a[k] for k in range(m)), Fraction(0))


def reference_s1_rearranged(a):
    m = reference_s1_guard(a)
    return sum((Fraction(m - 1 - 2 * k, 2) * (a[m - 1 - k] - a[k])
                for k in range((m - 1) // 2 + 1)), Fraction(0))


def reference_edge_inequality_holds(a):
    m = len(a) - 1
    if m < 2:
        raise DomainError(f"need m >= 2, got m = {m}")
    if any(v < 0 for v in a) or not reference_nondecreasing(a):
        raise DomainError("entries must be nonnegative and nondecreasing")
    if a[m] <= 0:
        raise DomainError("leading coefficient a_m must be positive")
    b = reference_boundary_coeffs(a)
    return b.b0 * b.b_m_minus_2 <= b.b1 * b.b_m_minus_1


def outcome(fn, arg):
    """The value, or the DomainError message, that ``fn(arg)`` ends in."""
    try:
        return fn(arg)
    except DomainError as exc:
        return f"DomainError: {exc}"


BIG = 7 ** 5917  # about 5,000 decimal digits


def predicate_inputs():
    yield from [
        (1, 2, 3), (1, 1, 1), (0, 0, 1), (0, 0, 0), (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)),
        (3, 1, 2), (-1, 0, 1), (5,), (2, 9),                          # degree 2, 0, 1
        (0, 0, 2, 2, 5), (3, 0, 0, 1), (1, 0, 2), (Fraction(7, 3),) * 6,  # zeros, ties
        tuple(Fraction(1, d) for d in (13, 11, 7, 5, 3, 2)),           # coprime denominators
        tuple(Fraction(1, d) for d in (2, 3, 5, 7, 11, 13)),
        (Fraction(1, BIG), Fraction(BIG, 3), Fraction(BIG), Fraction(BIG + 1)),  # huge
        (Fraction(BIG, 5), Fraction(-BIG, 3), Fraction(BIG + 1, BIG - 1), Fraction(3, BIG)),
        (Fraction(BIG, 7),) * 3,
    ]
    rng = random.Random(8080)
    for trial in range(600):
        m = rng.randint(0, 14)
        low = -3 if trial % 3 == 0 else 0
        seq = [Fraction(rng.randint(low, 40), rng.randint(1, 12)) for _ in range(m + 1)]
        yield tuple(sorted(seq) if trial % 2 == 0 else seq)


def test_integer_predicates_match_fraction_reference():
    hypotheses_held = 0
    for seq in predicate_inputs():
        a = tuple(Fraction(v) for v in seq)
        assert outcome(s1_sum, a) == outcome(reference_s1_sum, a)
        assert outcome(s1_rearranged, a) == outcome(reference_s1_rearranged, a)
        if len(a) >= 2:
            assert type(s1_sum(a)) is type(s1_rearranged(a)) is Fraction
        b = outcome(lambda s: boundary_coeffs(Polynomial(s)), a)
        assert b == outcome(reference_boundary_coeffs, a)
        if isinstance(b, BoundaryCoeffs):
            assert all(type(v) is Fraction for v in b)
            assert b.b_m == a[-1]  # the caller's value, a Fraction as checked above
        report = outcome(lemma3_gap, a)
        assert report == outcome(reference_lemma3_gap, a)
        assert outcome(edge_inequality_holds, a) == outcome(reference_edge_inequality_holds, a)
        # A polynomial is taken as it is, here one whose Fractions are unbuilt.
        cleared = taylor_shift(Polynomial(a), 0)
        for predicate in (lemma3_gap, s1_sum, s1_rearranged, edge_inequality_holds):
            assert outcome(predicate, cleared) == outcome(predicate, a)
        hypotheses_held += isinstance(report, Lemma3Report)
    assert hypotheses_held >= 100  # the predicates ran, not just their guards
