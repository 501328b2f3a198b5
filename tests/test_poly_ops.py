"""Taylor shift and basic polynomial surgery.

The two shift algorithms are tested against each other and against direct
evaluation: q = shift(p, c) must satisfy q(t) = p(t + c) at arbitrary exact
points, which is an oracle independent of either coefficient recurrence.
"""

import pickle
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
    normalize,
    taylor_shift,
)
from ratioshift.shape_props import check_unimodal

ALGOS = (ShiftAlgorithm.NAIVE_BINOMIAL, ShiftAlgorithm.HORNER_SYNTHETIC)

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
coeff_lists = st.lists(small_rationals, min_size=1, max_size=9)


def test_polynomial_basics():
    p = Polynomial((1, 2, 3))
    assert p.degree == 2
    assert p.coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert p(Fraction(2)) == 1 + 4 + 12


def test_polynomial_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Polynomial((1.5, 2))


@pytest.mark.parametrize("text", ["12", b"12", bytearray(b"\x01\x02"), "", b""])
def test_polynomial_rejects_text_as_a_whole(text):
    # Iterated, bytes would be the entries 49, 50 (or 1, 2): refused as a whole.
    with pytest.raises(TypeError, match=f"refusing {type(text).__name__} as a coefficient"):
        Polynomial(text)


@pytest.mark.parametrize("values", [
    {30, 1, 2}, frozenset({5, 1, 9}), set(),          # iterated in the set's own order
    {3: 1, 1: 2}, {}.keys(), {0: 1}.keys(),           # iterated as the keys
    memoryview(b"12"), memoryview(b""),               # iterated as the bytes 49, 50
])
def test_polynomial_rejects_unordered_and_byte_containers_as_a_whole(values):
    name = type(values).__name__
    with pytest.raises(TypeError, match=f"refusing {name} as a coefficient"):
        Polynomial(values)
    with pytest.raises(TypeError, match=f"refusing {name} as a coefficient"):
        check_unimodal(values)  # every checker clears its input through Polynomial


@pytest.mark.parametrize("values", [
    [1, 2, 30], (1, 2, 30), range(1, 4), (v for v in (1, 2, 30)),
    Polynomial((1, 2, 30)), {0: 1, 1: 2, 2: 30}.values(),
])
def test_polynomial_takes_ordered_iterables(values):
    expected = tuple(values) if isinstance(values, range) else (1, 2, 30)
    assert Polynomial(values).coeffs == expected


def test_polynomial_evaluation_matches_power_sum():
    p = Polynomial((Fraction(1, 3), -2, 0, Fraction(5, 7)))
    for t in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5)):
        direct = sum(c * t ** k for k, c in enumerate(p.coeffs))
        assert p(t) == direct


def test_shift_algorithm_enum_values():
    assert ShiftAlgorithm.NAIVE_BINOMIAL.value == "naive"
    assert ShiftAlgorithm.HORNER_SYNTHETIC.value == "horner"


@pytest.mark.parametrize("algo", ALGOS)
def test_shift_worked_example(algo):
    # (1 + x + x^2) at x+1 is 3 + 3x + x^2.
    q = taylor_shift(Polynomial((1, 1, 1)), 1, algo)
    assert q.coeffs == (Fraction(3), Fraction(3), Fraction(1))


@pytest.mark.parametrize("algo", ALGOS)
def test_shift_negative_rational_example(algo):
    # (1 + x + x^2) at x - 3/2 is 7/4 - 2x + x^2, by hand.
    q = taylor_shift(Polynomial((1, 1, 1)), Fraction(-3, 2), algo)
    assert q.coeffs == (Fraction(7, 4), Fraction(-2), Fraction(1))


@pytest.mark.parametrize("algo", ALGOS)
def test_shift_by_zero_is_identity(algo):
    p = Polynomial((Fraction(5, 3), 0, -2, 7))
    assert taylor_shift(p, 0, algo).coeffs == p.coeffs


def test_shift_rejects_float_offset():
    with pytest.raises(TypeError):
        taylor_shift(Polynomial((1, 2)), 0.5)


@pytest.mark.parametrize("algo", ["naive", "horner", None])
def test_shift_refuses_an_algorithm_outside_the_enum(algo):
    # The enum's values are the CLI's text; taylor_shift takes only members.
    with pytest.raises(DomainError, match=f"^unknown shift algorithm {algo!r}$"):
        taylor_shift(Polynomial((1, 2)), 1, algo)


@given(coeff_lists, small_rationals)
def test_shift_algorithms_agree(coeffs, c):
    p = Polynomial(coeffs)
    naive = taylor_shift(p, c, ShiftAlgorithm.NAIVE_BINOMIAL)
    horner = taylor_shift(p, c, ShiftAlgorithm.HORNER_SYNTHETIC)
    assert naive.coeffs == horner.coeffs


@given(coeff_lists, small_rationals, small_rationals)
def test_shift_evaluation_oracle(coeffs, c, t):
    # q(t) = p(t + c) pointwise, independent of coefficient recurrences.
    p = Polynomial(coeffs)
    q = taylor_shift(p, c)
    assert q(t) == p(t + c)


@given(coeff_lists, small_rationals, small_rationals)
def test_shift_compose(coeffs, c, d):
    p = Polynomial(coeffs)
    once = taylor_shift(p, c + d)
    twice = taylor_shift(taylor_shift(p, c), d)
    assert once.coeffs == twice.coeffs


@given(coeff_lists, small_rationals)
def test_shift_invert(coeffs, c):
    p = Polynomial(coeffs)
    assert taylor_shift(taylor_shift(p, c), -c).coeffs == p.coeffs


def test_shift_large_degree_exact():
    rng = random.Random(90125)
    coeffs = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)) for _ in range(65)]
    p = Polynomial(coeffs)
    a = taylor_shift(p, 1, ShiftAlgorithm.NAIVE_BINOMIAL)
    b = taylor_shift(p, 1, ShiftAlgorithm.HORNER_SYNTHETIC)
    assert a.coeffs == b.coeffs
    t = Fraction(3, 7)
    assert a(t) == p(t + 1)


def test_mul_by_x_plus_one_worked_example():
    assert mul_by_x_plus_one(Polynomial((3, 3, 1))).coeffs == (
        Fraction(3), Fraction(6), Fraction(4), Fraction(1))


@given(coeff_lists)
def test_mul_by_x_plus_one_evaluation(coeffs):
    b = Polynomial(coeffs)
    prod = mul_by_x_plus_one(b)
    assert prod.degree == b.degree + 1
    for t in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        assert prod(t) == (t + 1) * b(t)


def test_boundary_coeffs_worked_example():
    # (1 + 2x + 3x^2)(x+1 substituted) = 6 + 8x + 3x^2.
    b = boundary_coeffs(Polynomial((1, 2, 3)))
    assert b == BoundaryCoeffs(Fraction(6), Fraction(8), Fraction(6), Fraction(8), Fraction(3))


def test_boundary_coeffs_against_full_shift():
    rng = random.Random(1729)
    for _ in range(60):
        m = rng.randint(2, 20)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m + 1)]
        p = Polynomial(coeffs)
        q = taylor_shift(p, 1)
        b = boundary_coeffs(p)
        assert b.b0 == q.coeffs[0]
        assert b.b1 == q.coeffs[1]
        assert b.b_m_minus_2 == q.coeffs[m - 2]
        assert b.b_m_minus_1 == q.coeffs[m - 1]
        assert b.b_m == q.coeffs[m]


def test_boundary_coeffs_needs_degree_two():
    with pytest.raises(DomainError):
        boundary_coeffs(Polynomial((1, 2)))


def test_normalize_trims_trailing_zeros():
    assert normalize(Polynomial((1, 2, 0, 0))).coeffs == (Fraction(1), Fraction(2))
    assert normalize(Polynomial((0, 0))).coeffs == (Fraction(0),)
    assert normalize(Polynomial((4,))).coeffs == (Fraction(4),)


@pytest.mark.parametrize("wrap", [list, Polynomial])
def test_transforms_take_a_list_or_a_polynomial(wrap):
    # As every checker and predicate does; a list used to raise AttributeError.
    values = [1, Fraction(2, 3), 3, 0]
    for algo in ALGOS:
        assert taylor_shift(wrap(values), 1, algo) == taylor_shift(Polynomial(values), 1, algo)
    assert mul_by_x_plus_one(wrap(values)).coeffs == (1, Fraction(5, 3), Fraction(11, 3), 3, 0)
    assert normalize(wrap(values)).coeffs == (1, Fraction(2, 3), 3)
    assert boundary_coeffs(wrap(values)) == boundary_coeffs(Polynomial(values))


# --- integer Horner kernel against the binomial oracle ---

def assert_matches_oracle(coeffs, c):
    p = Polynomial(coeffs)
    fast = taylor_shift(p, c, ShiftAlgorithm.HORNER_SYNTHETIC)
    assert fast.coeffs == taylor_shift(p, c, ShiftAlgorithm.NAIVE_BINOMIAL).coeffs
    assert all(type(b) is Fraction for b in fast.coeffs)
    assert len(fast.coeffs) == len(p.coeffs)


def test_horner_matches_oracle_on_seeded_inputs():
    rng = random.Random(20240)
    bound = 10 ** 6
    shifts = (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-7, 3),
              Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
    for trial in range(60):
        m = rng.randint(0, 64)
        coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(m + 1)]
        assert_matches_oracle(coeffs, shifts[trial % len(shifts)])


@pytest.mark.parametrize("c", [1, Fraction(1, 3), -1, 2, Fraction(-3, 2), 0])
def test_horner_matches_oracle_at_every_short_length(c):
    # Lengths 1..13 give 0..12 passes: each residue of the pass count mod 4,
    # with no four-pass sweep (length <= 4), with exactly one, and with a
    # remainder after several. Entries mix zeros, signs and 10^40 sizes.
    big = 10 ** 40
    pool = (0, 1, -1, big, -big + 7, 3 * big + 1, Fraction(big, 7), Fraction(-5, 3), 0, 2)
    for n in range(1, 14):
        for offset in range(3):
            coeffs = [pool[(offset + 3 * k) % len(pool)] for k in range(n)]
            assert_matches_oracle(coeffs, c)
            assert_matches_oracle([-v for v in coeffs], c)


BIG = 7 ** 5917  # about 5,000 decimal digits, past the int/str conversion limit


@pytest.mark.parametrize("coeffs, c", [
    ((Fraction(5, 3),), Fraction(-7, 3)),                       # degree 0
    ((0, 0, 0, 0), Fraction(3, 2)),                             # zero polynomial
    ((Fraction(1, 2), 0, 0, Fraction(-4, 9), 0, 3), 1),         # interior zeros
    ((Fraction(1, 2), 0, Fraction(-4, 9), 3), 0),               # c = 0
    ((Fraction(2, 5), -1, Fraction(7, 11), Fraction(-3, 4)), Fraction(-7, 3)),
    ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
      Fraction(1, 11), Fraction(1, 13)), Fraction(5, 17)),      # coprime denominators
    ((BIG, Fraction(-BIG, 3), Fraction(BIG + 1, BIG - 1), 1, Fraction(1, BIG)),
     Fraction(-7, 3)),                                          # huge numerators
    ((Fraction(BIG, 5), 2, Fraction(3, BIG)), Fraction(BIG, 11)),
])
def test_horner_matches_oracle_on_edge_cases(coeffs, c):
    assert_matches_oracle(coeffs, c)


# --- the cleared form: integer numerators over one common denominator ---

SHIFTS = (Fraction(1), Fraction(0), Fraction(-7, 3), Fraction(3, 2), Fraction(5, 7))
CLEARED_INPUTS = [
    (Fraction(5, 3),),                                           # degree 0
    (0, 0, 0, 0),                                                # zero polynomial
    (Fraction(1, 2), 0, 0, Fraction(-4, 9), 0, 3),               # interior zeros
    (BIG, Fraction(-BIG, 3), Fraction(BIG + 1, BIG - 1), 1, Fraction(1, BIG)),
    (Fraction(BIG, 5), 0, 2, Fraction(3, BIG)),                  # huge numerators
]


@pytest.mark.parametrize("c", SHIFTS)
@pytest.mark.parametrize("coeffs", CLEARED_INPUTS)
def test_cleared_shift_matches_oracle(coeffs, c):
    assert_matches_oracle(coeffs, c)


@pytest.mark.parametrize("c", SHIFTS)
def test_shifted_polynomial_equals_one_built_from_its_fractions(c):
    p = Polynomial((Fraction(1, 2), 0, Fraction(-4, 9), 3, 7))
    rebuilt = taylor_shift(p, c, ShiftAlgorithm.NAIVE_BINOMIAL)  # built from Fractions
    assert hash(taylor_shift(p, c)) == hash(rebuilt)  # before its Fractions are read
    shifted = taylor_shift(p, c)
    assert shifted == rebuilt and rebuilt == shifted
    assert hash(shifted) == hash((rebuilt.coeffs,))  # as for a frozen dataclass
    assert repr(shifted) == repr(rebuilt)
    assert shifted.degree == rebuilt.degree == 4
    assert shifted != Polynomial(list(rebuilt.coeffs) + [0])


def test_shifted_polynomial_pickles_like_one_built_from_fractions():
    shifted = taylor_shift(Polynomial((Fraction(1, 3), 2, Fraction(-5, 7))), Fraction(3, 2))
    rebuilt = Polynomial(shifted.coeffs)
    # The state a frozen dataclass pickled: its field dict.
    assert taylor_shift(rebuilt, 0).__reduce_ex__(2)[2] == {"coeffs": rebuilt.coeffs}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(taylor_shift(rebuilt, 0), protocol)
        assert data == pickle.dumps(rebuilt, protocol)
        back = pickle.loads(data)
        assert back == rebuilt and back.coeffs == rebuilt.coeffs
        assert taylor_shift(back, 1) == taylor_shift(rebuilt, 1)


def test_equal_polynomials_pickle_to_equal_bytes():
    # A polynomial keeps none of the caller's Fraction objects, so pickle's
    # memo cannot see one object passed twice.
    half = Fraction(1, 2)
    polys = [Polynomial([half, half]), Polynomial([Fraction(1, 2), Fraction(1, 2)]),
             Polynomial([Fraction(2, 4), Fraction(3, 6)]),
             taylor_shift(Polynomial([half, half]), 0)]
    assert len(set(polys)) == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert len({pickle.dumps(p, protocol) for p in polys}) == 1


@pytest.mark.parametrize("other", [(1, 2), [1, 2], (Fraction(1), Fraction(2)), 1])
def test_polynomial_equals_no_other_type(other):
    p = Polynomial((1, 2))
    assert p.__eq__(other) is NotImplemented
    assert p != other and not p == other and not other == p


def test_polynomial_is_immutable():
    # Plain AttributeError, as the records raise, not a subclass of it.
    for p in (Polynomial((1, 2)), taylor_shift(Polynomial((1, 2)), Fraction(1, 3))):
        with pytest.raises(AttributeError) as assign:
            p.coeffs = (Fraction(0),)
        with pytest.raises(AttributeError) as add:
            p.other = 1
        with pytest.raises(AttributeError) as delete:
            del p.coeffs
        assert [(type(i.value), str(i.value)) for i in (assign, add, delete)] == [
            (AttributeError, "cannot assign to field 'coeffs'"),
            (AttributeError, "cannot assign to field 'other'"),
            (AttributeError, "cannot delete field 'coeffs'")]
        assert p.coeffs in ((Fraction(1), Fraction(2)), (Fraction(5, 3), Fraction(2)))


def test_a_polynomial_passes_through_its_constructor():
    values = [Fraction(1, 2), Fraction(3), Fraction(-4, 9)]
    shifted = taylor_shift(Polynomial(values), Fraction(5, 7))
    assert Polynomial(shifted) is shifted
    assert shifted._coeffs is None  # passing through built no Fraction
    for p in (Polynomial(values), Polynomial((1, 2, 3)), pickle.loads(pickle.dumps(shifted))):
        assert Polynomial(p) is p
    rebuilt = Polynomial(Polynomial(values)).coeffs
    assert rebuilt == tuple(values) and all(type(v) is Fraction for v in rebuilt)
    with pytest.raises(TypeError):
        Polynomial(None)
    with pytest.raises(DomainError, match="^a coefficient sequence needs at least one entry$"):
        Polynomial(())


def test_coeffs_are_built_once():
    p = taylor_shift(Polynomial((Fraction(1, 2), 3, Fraction(2, 7))), Fraction(5, 7))
    assert all(p.coeffs[i] is p.coeffs[i] for i in range(3))
    assert p.coeffs is p.coeffs


def test_polynomial_keeps_the_callers_fractions():
    # Their values, as Fractions built from the cleared integers.
    values = [Fraction(1, 2), Fraction(3), Fraction(-4, 9)]
    p = Polynomial(values)
    taylor_shift(p, 1)
    boundary_coeffs(p)
    assert p.coeffs == tuple(values) and all(type(v) is Fraction for v in p.coeffs)
