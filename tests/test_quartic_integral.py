"""Numerical side: quadrature machinery and the quartic-integral identity.

Anchors come from integrals solvable by elementary means:

    x = 1, m = 0:  1/(t^2+1)^2 integrated over [0, inf) is pi/4
    x = 0, m = 0:  1/(t^4+1)  integrated over [0, inf) is pi/(2 sqrt 2)
    x = 0, m = 1:  1/(t^4+1)^2 integrated over [0, inf) is 3 pi/2^(7/2)

so the quadrature is validated before it is trusted against the closed form.
"""

import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from ratioshift import quartic_integral
from ratioshift.numeric_core import DomainError
from ratioshift.quartic_integral import (
    QuadratureError,
    _folded_level,
    _folded_level_down,
    _fsum_level,
    closed_form_rhs,
    folded_integrand,
    integrand,
    quadrature_lhs,
    simpson_refine,
    verify_identity,
)


# --- simpson_refine on integrals with known values ---

def test_simpson_polynomial_exact():
    assert abs(simpson_refine(lambda t: t * t, 0.0, 1.0, 1e-12) - 1.0 / 3.0) < 1e-12


def test_simpson_exponential():
    got = simpson_refine(math.exp, 0.0, 1.0, 1e-12)
    assert abs(got - (math.e - 1.0)) < 1e-11


def test_simpson_sine_over_full_period():
    got = simpson_refine(math.sin, 0.0, math.pi, 1e-12)
    assert abs(got - 2.0) < 1e-11


def test_simpson_value_is_pinned():
    # Recorded from the per-point implementation; no libm call in the integrand.
    got = simpson_refine(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, 1e-12)
    assert got.hex() == "0x1.921fb54442804p-1"


def test_simpson_requires_positive_tolerance():
    with pytest.raises(DomainError):
        simpson_refine(math.exp, 0.0, 1.0, 0.0)


def test_simpson_nonconvergence_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(quartic_integral, "_MAX_DOUBLINGS", 3)
    with pytest.raises(QuadratureError) as info:
        # Tolerance unreachable with two doublings of a rough integrand.
        simpson_refine(lambda t: abs(t - 1.0 / 3.0) ** 0.5, 0.0, 1.0, 1e-14)
    err = info.value
    assert err.iterations == 3
    assert math.isfinite(err.last_value)
    assert err.last_error > 0


# --- integrand folding ---

def test_integrand_values():
    assert integrand(0.0, 5.0, 3) == 1.0
    assert integrand(1.0, 1.0, 0) == 0.25


def _outcome(f, *args):
    """float.hex of f(*args), or the type and message of what it raised."""
    try:
        return f(*args).hex()
    except (OverflowError, ZeroDivisionError, QuadratureError) as exc:
        return type(exc), str(exc)


def _values(values):
    """float.hex of each value an iterable yields, then what it raised, if anything."""
    out = []
    try:
        for v in values:
            out.append(v.hex())
    except (OverflowError, ZeroDivisionError) as exc:
        out.append((type(exc), str(exc)))
    return out


def _literal_folded(u, x, m):
    return (1.0 + u ** (4 * m + 2)) / ((u * u + 2.0 * x) * u * u + 1.0) ** (m + 1)


def test_folded_integrand_is_the_literal_formula_bit_for_bit():
    # Near x = -1 with large m the denominator underflows to 0 at u = 1:
    # the error must be the formula's own, too.
    for u in [i / 16 for i in range(17)] + [1e-3, 0.999]:
        for x in (-0.999999, -0.5, 0.0, 0.3, 1.0, 1e3):
            for m in (0, 1, 7, 60):
                assert _outcome(folded_integrand, u, x, m) == _outcome(_literal_folded, u, x, m)
    # The integrand skips u ** (4m+2) for |u| <= 2^(-54/(4m+2)), where it
    # cannot change 1 + u^(4m+2): probe that threshold, its float neighbours,
    # and the u where u^(4m+2) = 2^-b for b = 49..54, some of which it changes.
    xs = (-0.9999999, -0.5, 0.0, 1.0, 1e10)
    for m in range(121):
        e = 4 * m + 2
        t = 2.0 ** (-54.0 / e)
        us = [t, math.nextafter(t, 0.0), math.nextafter(t, 1.0)]
        us += [2.0 ** (-b / e) for b in range(49, 55)]
        for u in us + [-u for u in us]:
            for x in xs:
                assert _outcome(folded_integrand, u, x, m) == _outcome(_literal_folded, u, x, m)
    # One whole level, its skipped prefix and the rest, summed as _simpson does.
    n = 1024
    h = 1.0 / n
    for m in (0, 3, 10, 49, 120):
        for x in xs:
            level = _outcome(lambda: math.fsum(_folded_level(0.0, h, n, x, m)))
            literal = _outcome(lambda: math.fsum(
                _literal_folded(0.0 + (i + 0.5) * h, x, m) for i in range(n)))
            assert level == literal


@pytest.mark.parametrize("m", [0, 14, 60])
def test_level_yields_n_points_each_the_literal_value(m):
    # The quadrature's levels: a = 0, h = 2^-j, n = 2^j, in index order and,
    # from _folded_level_down, in reverse. At m = 60 the numerator is skipped
    # below u = 0.86, so a small level ends in the first loop of one and the
    # second of the other; at m = 0 nearly every point is past the skip. At
    # x = -0.999999, m = 60 the denominator underflows to 0 near u = 1, so
    # either order must stop with the literal error at the literal point.
    for j in range(17):
        n = 1 << j
        h = 1.0 / n
        us = [(i + 0.5) * h for i in range(n)]
        for x in (-0.9, 0.3, -0.999999):
            assert _values(_folded_level(0.0, h, n, x, m)) == _values(
                _literal_folded(u, x, m) for u in us)
            assert _values(_folded_level_down(h, n, x, m)) == _values(
                _literal_folded(u, x, m) for u in reversed(us))


@pytest.mark.parametrize("h", [-0.0, 1.0])
def test_level_at_nan_yields_one_value_and_stops(h):
    values = list(itertools.islice(_folded_level(math.nan, h, 1, 0.3, 3), 3))
    assert len(values) == 1 and math.isnan(values[0])


def test_fold_matches_tail_on_samples():
    # folded(u) = integrand(1/u) / u^2 + integrand(u): check pointwise.
    for u in (0.2, 0.5, 0.9):
        for x, m in ((1.0, 0), (0.5, 2), (3.0, 4)):
            direct = integrand(u, x, m) + integrand(1.0 / u, x, m) / (u * u)
            assert abs(folded_integrand(u, x, m) - direct) < 1e-14 * direct


def test_fold_against_truncated_direct_integral():
    # Integrate the raw integrand on [0, 60]; the tail beyond is below
    # 1/(3*60^3) for m = 0, x = 1, so both routes must agree to ~1e-6.
    folded = quadrature_lhs(1.0, 0, 1e-10)
    direct = simpson_refine(lambda t: integrand(t, 1.0, 0), 0.0, 60.0, 1e-10)
    tail_bound = (60.0 ** -3) / 3.0
    assert abs(folded - direct) <= tail_bound + 1e-9


# --- anchors ---

def test_anchor_pi_over_4():
    assert abs(quadrature_lhs(1.0, 0, 1e-11) - math.pi / 4.0) < 1e-10


def test_anchor_pi_over_2_sqrt2():
    assert abs(quadrature_lhs(0.0, 0, 1e-11) - math.pi / (2.0 * math.sqrt(2.0))) < 1e-10


def test_anchor_3pi_over_2_pow_72():
    assert abs(quadrature_lhs(0.0, 1, 1e-11) - 3.0 * math.pi / 2.0 ** 3.5) < 1e-10


def test_closed_form_matches_anchor_values():
    assert abs(closed_form_rhs(1.0, 0) - math.pi / 4.0) < 1e-12
    assert abs(closed_form_rhs(0.0, 1) - 3.0 * math.pi / 2.0 ** 3.5) < 1e-12


# --- the identity itself ---

def test_verify_identity_worked_case():
    check = verify_identity(2.0, 3, 1e-8)
    assert check.passed
    assert check.rel_err <= 1e-8
    assert check.lhs > 0 and check.rhs > 0


def test_verify_identity_non_dyadic_x():
    # 0.3 is not a dyadic rational; the closed form must use the float's
    # exact value, not a re-parse, for lhs and rhs to agree this tightly.
    assert verify_identity(0.3, 2, 1e-8).passed


# lhs and rhs as float.hex, recorded from the implementation that called
# folded_integrand once per point and evaluated P_m(x) in Fractions: the
# streamed Simpson loop, its levels stepping u by h, and the integer closed
# form reproduce every bit.
# Near-grid points x + 1 = 10^-(k/5) of the benchmark, far x, m = 0 and 60,
# and the tolerance miss near x = -1 that the benchmark's tests pin.
_PINNED = [
    (-0.9999984151068075, 49, "0x1.2e670fbb53acdp+901", "0x1.2e670fbc49589p+901", True),
    (-0.999, 20, "0x1.628f68e545fc8p+181", "0x1.628f68e538e76p+181", True),
    (-0.9, 3, "0x1.616f9d1dedf93p+7", "0x1.616f9d1dca294p+7", True),
    (-0.36904265551980675, 60, "0x1.51db3e13ee6dep+10", "0x1.51db3e13ee6e7p+10", True),
    (0.0, 0, "0x1.1c5831ade73f8p+0", "0x1.1c5831add62e4p+0", True),
    (0.0, 60, "0x1.4cf86a48104cep-2", "0x1.4cf86a48104cep-2", True),
    (0.3, 2, "0x1.1ea5a5b2f3460p-1", "0x1.1ea5a5b313d76p-1", True),
    (1.0, 0, "0x1.921fb5442e805p-1", "0x1.921fb54442d16p-1", True),
    (2.0, 3, "0x1.ee663288b1dfcp-3", "0x1.ee663288fd1d7p-3", True),
    (0.01, 0, "0x1.1aeef0b3fdff3p+0", "0x1.1aeef0b3ed6eep+0", True),
    (100.0, 60, "0x1.088b7cacb6924p-7", "0x1.088b7cacb6923p-7", True),
    (1000.0, 7, "0x1.e22eeabb73165p-8", "0x1.e22eeabb73163p-8", True),
    (-0.9999988933762161, 53, "0x1.f8163cb1404f5p+1001", "0x1.f8179df4d185ap+1001", False),
]


@pytest.mark.parametrize("x, m, lhs, rhs, passed", _PINNED)
def test_float_results_are_pinned(x, m, lhs, rhs, passed):
    check = verify_identity(x, m, 1e-8)
    assert (check.lhs.hex(), check.rhs.hex(), check.passed) == (lhs, rhs, passed)


def test_estimate_needs_sixteen_panels():
    # S_4 and S_8 agree to 4e-11 here by chance; stopping at 8 panels gave
    # lhs 0x1.a6f940143ff4fp-2 and rel_err 2.9e-7.
    check = verify_identity(0.1533627156190939, 8, 1e-8)
    assert (check.lhs.hex(), check.rhs.hex(), check.passed) == (
        "0x1.a6f94817e1518p-2", "0x1.a6f94817eadd7p-2", True)
    assert check.rel_err < 1e-11


@pytest.mark.parametrize("m, error, message", [
    (54, OverflowError, "intermediate overflow in fsum"),
    (57, ZeroDivisionError, "float division by zero"),
])
def test_known_float_failures_are_pinned(m, error, message):
    # At x + 1 = 1e-6 the integrand passes 1e300 near u = 1: at m = 54 the
    # midpoint sum overflows, at m = 57 the denominator at u = 1 underflows to 0.
    with pytest.raises(error) as info:
        verify_identity(-0.999999, m, 1e-8)
    assert str(info.value) == message


def test_quadrature_is_literal_simpson_bit_for_bit():
    # simpson_refine builds each point as a + (i + 0.5) h, evaluates the
    # literal formula there and sums each level in index order: the
    # quadrature's stepped, prefix-skipping levels, summed top-down where the
    # value at u = 1 is the larger, must give every bit, and every error,
    # that it gives.
    rng = random.Random(2026)
    near = [(-1.0 + 10.0 ** -rng.uniform(0, 6), rng.randint(0, 60)) for _ in range(24)]
    far = [(10.0 ** rng.uniform(-2, 2), rng.randint(0, 60)) for _ in range(24)]
    pinned = [(x, m) for x, m, *_ in _PINNED] + [(-0.999999, 54), (-0.999999, 57)]
    # Near-boundary ops, whose levels are summed top-down.
    top_down = [(-1.0 + 10.0 ** -rng.uniform(5, 6), rng.randint(40, 60)) for _ in range(8)]
    # x + 1 = 10^-(k/5). At (k, m) = (28, 57), (29, 55..57) and (30, 53..55) a
    # top-down level overflows or sums to 2^1023 or more, and is summed again
    # in index order, which raises fsum's overflow; at (30, 56..57) the value
    # at u = 1 divides by zero before any level; the others pass.
    fallback = [(-1.0 + 10.0 ** (-k / 5), m) for k in (27, 28, 29, 30) for m in range(53, 58)]
    # Below x + 1 = 2^-30 every level is summed in index order: here 20 of them.
    unguarded = [(-1.0 + 2.0 ** -30.5, 0)]
    tol = 1e-10  # what verify_identity asks for at 1e-8
    for x, m in near + far + pinned + top_down + fallback + unguarded:
        literal = _outcome(simpson_refine, lambda u: _literal_folded(u, x, m), 0.0, 1.0,
                           tol / 2)
        assert _outcome(quadrature_lhs, x, m, tol) == literal, (x, m)


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 3.0],
    [2.0 ** 1022, 2.0 ** 1023 - 2.0 ** 970],  # at least 2^1023, still finite
    [1.0, math.inf],
    [1e308, 1e308, ZeroDivisionError("float division by zero")],
    [OverflowError("(34, 'Numerical result out of range')"), 1e308, 1e308],
])
def test_top_down_sum_is_the_index_order_sum(values):
    # Whatever the top-down pass gives, _fsum_level must give what fsum gives
    # in index order: in the last two, the first point to fail in index order
    # is not the first top-down.
    def level(a, h, n, order=lambda v: v):
        for v in order(values):
            if isinstance(v, Exception):
                raise v
            yield v

    def down(a, h, n):
        return level(a, h, n, reversed)

    n = len(values)
    assert _outcome(_fsum_level, level, down, 0.0, 1.0, n) == _outcome(
        lambda: math.fsum(level(0.0, 1.0, n)))


def test_verify_identity_json_shape():
    d = verify_identity(1.0, 0, 1e-8).to_json_dict()
    assert set(d) == {"m", "x", "lhs", "rhs", "rel_err", "tol", "pass"}
    assert d["pass"] is True


def test_domain_guards():
    with pytest.raises(DomainError):
        quadrature_lhs(-1.0, 0, 1e-8)
    with pytest.raises(DomainError):
        quadrature_lhs(1.0, -1, 1e-8)
    with pytest.raises(DomainError):
        verify_identity(1.0, 0, 0.0)


@pytest.mark.parametrize("x, m", [
    (Fraction(1, 3), 2),     # read as p / 2^e, it gave rel_err 0.17
    (Decimal("0.3"), 2),
    (True, 2),
    (1.0, 2.0),
    (1.0, True),
])
@pytest.mark.parametrize("check", [
    lambda x, m: quadrature_lhs(x, m, 1e-8),
    lambda x, m: closed_form_rhs(x, m),
    lambda x, m: verify_identity(x, m, 1e-8),
], ids=["quadrature_lhs", "closed_form_rhs", "verify_identity"])
def test_wrong_argument_types_are_refused_before_any_quadrature(check, x, m, monkeypatch):
    monkeypatch.setattr(quartic_integral, "_simpson",
                        lambda *args: pytest.fail("the quadrature ran"))
    with pytest.raises(TypeError, match="must be an int"):
        check(x, m)


def test_int_x_is_the_float_it_equals():
    assert verify_identity(2, 3, 1e-8) == verify_identity(2.0, 3, 1e-8)
    # P_3 at the int 2^53 + 1 read 0x1.f6a7a29553862p-29, where the quadrature
    # integrates at the float 2^53.
    big = 2 ** 53 + 1
    assert closed_form_rhs(big, 3).hex() == closed_form_rhs(float(big), 3).hex()


@pytest.mark.parametrize("x, tol", [(math.inf, 1e-8), (math.nan, 1e-8),
                                    (1.0, math.inf), (1.0, math.nan)])
def test_non_finite_inputs_are_domain_errors(x, tol):
    with pytest.raises(DomainError):
        verify_identity(x, 3, tol)


X_MAX = sys.float_info.max / 2  # the largest x whose 2x is finite


@pytest.mark.parametrize("check", [
    lambda x: quadrature_lhs(x, 3, 1e-8),
    lambda x: closed_form_rhs(x, 3),
    lambda x: verify_identity(x, 3, 1e-8),
], ids=["quadrature_lhs", "closed_form_rhs", "verify_identity"])
@pytest.mark.parametrize("x", [1e308, math.nextafter(X_MAX, math.inf), sys.float_info.max])
def test_x_past_half_the_largest_float_is_a_domain_error(check, x):
    with pytest.raises(DomainError, match="2x finite"):
        check(x)


def test_x_at_half_the_largest_float_is_in_the_domain():
    # Accepted; only the float evaluation itself can fail there.
    assert closed_form_rhs(X_MAX, 0) > 0
    with pytest.raises(OverflowError):
        closed_form_rhs(X_MAX, 3)


def test_integrand_decays_on_tail():
    values = [integrand(t, 0.5, 1) for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
