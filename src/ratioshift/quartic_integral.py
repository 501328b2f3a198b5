"""Floating-point verification of the quartic-integral identity.

For x > -1 and integer m >= 0,

    integral_0^inf dt / (t^4 + 2xt^2 + 1)^(m+1)
        = pi / (2^(m+3/2) (x+1)^(m+1/2)) * P_m(x),

with P_m the degree-m Boros-Moll polynomial. The left side is evaluated
numerically, the right side from the exact coefficients, and the two are
compared at a stated relative tolerance. The checks take
-1 < x <= (largest float) / 2, where 2x is still finite, and raise
DomainError for any other x; an x not an int or float, or an m not an int,
raises TypeError.

The improper integral is folded onto [0, 1] through the symmetry t -> 1/u:

    integral_0^inf f dt = integral_0^1 (1 + u^(4m+2)) / (u^4 + 2xu^2 + 1)^(m+1) du,

whose integrand is smooth and bounded for x > -1 (the denominator is
(u^2-1)^2 + 2(x+1)u^2 > 0 on (0, 1]), so there is no tail truncation at all.
Quadrature is iterated composite Simpson with panel doubling and a
Richardson error estimate, trusted from 16 panels on and capped in
refinement depth. It is one loop, ``_simpson``, that streams each level's
values into ``math.fsum`` from the level's larger end. A level is one
generator, ``_folded_level``, that forms each midpoint and its folded
integrand value in one frame, so a point costs one generator step. It steps
the midpoint by ``u += h``, which is exact: a level of midpoints starts at
0 with h = 2^-j, j <= 21, so each is an odd multiple of 2^-(j+1) below 1,
the float a + (i + 0.5) h would give, and an endpoint is a level of one
point. Where u^(4m+2) is too small to change 1 + u^(4m+2), the generator
does not compute it: the numerator is exactly 1.0 there, so every value and
every raised error is the literal formula's.

Where the value at u = 1 exceeds the one at u = 0 and x + 1 >= 2^-30, the
level is summed top-down instead, from ``_folded_level_down``, which yields
the same values from u = 1 - 2^-(j+1) down by the exact step ``u -= h``:
near x = -1, where the values grow by hundreds of orders of magnitude
towards u = 1, fsum takes them in about half the time. fsum returns the
correctly rounded exact sum in any order; the order decides only which
error a failing level raises, so a top-down level that raises, or sums to
2^1023 or more, is summed again in index order (see ``_fsum_level``).

This is the only module that touches floating point, and only at its
boundary: P_m(x) is evaluated by Horner's rule on integers (P_m's integer
numerators over their common denominator, x read as the exact ratio its
float denotes) and converted to float by one correctly rounded division.

``IntegralCheck`` is a NamedTuple: immutable, unpackable, and compared and
hashed as the tuple of its fields.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from .boros_moll import _check_int, bm_polynomial
from .numeric_core import DomainError

__all__ = [
    "IntegralCheck",
    "QuadratureError",
    "closed_form_rhs",
    "folded_integrand",
    "integrand",
    "quadrature_lhs",
    "simpson_refine",
    "verify_identity",
]

_MAX_DOUBLINGS = 22
# The integrand forms 2x, which overflows past half the largest float.
_X_MAX = sys.float_info.max / 2
# Coarser Simpson values can agree by chance, as S_4 and S_8 do at
# x = 0.1533627156190939, m = 8, so convergence is accepted from 16 panels on.
_MIN_PANELS = 16


class QuadratureError(RuntimeError):
    """Simpson panel doubling did not converge within the doubling cap."""

    def __init__(self, message: str, *, iterations: int, last_value: float,
                 last_error: float) -> None:
        super().__init__(
            f"{message} (iterations={iterations}, last_value={last_value!r}, "
            f"last_error_estimate={last_error!r})")
        self.iterations = iterations
        self.last_value = last_value
        self.last_error = last_error


def integrand(t: float, x: float, m: int) -> float:
    """The raw integrand 1 / (t^4 + 2xt^2 + 1)^(m+1)."""
    return ((t * t + 2.0 * x) * t * t + 1.0) ** (-(m + 1))


def _folded_level(a: float, h: float, n: int, x: float, m: int) -> Iterator[float]:
    """folded_integrand(u, x, m) at u = a + (i + 0.5) h for i < n, n >= 1, lazily
    and in index order. u steps by ``u += h`` up to last = a + (n - 0.5) h,
    exactly on the only levels there are: a = 0 with h = 2^-j, j <= 21 (each u
    an odd multiple of 2^-(j+1) below 1), and n = 1, where u = last = a. A NaN
    u fails ``u < last`` and ends the level.

    Each value is the literal formula's tree, operation for operation, so it
    is bit-identical: ``**`` converts an int exponent to float anyway, and
    the product stays left-associative ((u^2 + 2x) u) u.

    ``u ** e`` is skipped while |u| <= t = 2^(-54/e) (e = 4m + 2 is even, so
    u^e = |u|^e). There the exact u^e is at most t^e, which exceeds 2^-54 only
    by the rounding of t, a relative e 2^-52 or so. A faithful ``pow`` then
    returns less than 2^-53, half an ulp of 1.0, so 1.0 + u^e rounds to 1.0 and
    the numerator is exactly 1.0. The denominator's ``pow`` and the division
    still run, so every value and every error, and the point that raises it,
    are unchanged. u only grows, so only the first loop tests it.
    """
    e, k, tx = float(4 * m + 2), float(m + 1), 2.0 * x
    t = 2.0 ** (-54.0 / e)
    u, last = a + 0.5 * h, a + (n - 0.5) * h
    while -t <= u <= t:
        yield 1.0 / ((u * u + tx) * u * u + 1.0) ** k
        if not u < last:
            return
        u += h
    yield (1.0 + u ** e) / ((u * u + tx) * u * u + 1.0) ** k
    while u < last:
        u += h
        yield (1.0 + u ** e) / ((u * u + tx) * u * u + 1.0) ** k


def _folded_level_down(h: float, n: int, x: float, m: int) -> Iterator[float]:
    """The values of ``_folded_level(0.0, h, n, x, m)`` in reverse: u starts at
    (n - 0.5) h and steps by ``u -= h``, exact on the quadrature's levels
    (h = 2^-j, j <= 21, every u an odd multiple of 2^-(j+1)), and the level
    ends at u = -h/2, the first u below 0. The numerator's ``pow`` runs while
    u > t and is skipped below, as in ``_folded_level``: t > 0, so a level
    whose points all lie above t leaves the first loop at -h/2.
    """
    e, k, tx = float(4 * m + 2), float(m + 1), 2.0 * x
    t = 2.0 ** (-54.0 / e)
    u = (n - 0.5) * h
    while u > t:
        yield (1.0 + u ** e) / ((u * u + tx) * u * u + 1.0) ** k
        u -= h
    while u > 0.0:
        yield 1.0 / ((u * u + tx) * u * u + 1.0) ** k
        u -= h


def folded_integrand(u: float, x: float, m: int) -> float:
    """Integrand after folding [1, inf) back onto [0, 1] via t -> 1/u."""
    return next(_folded_level(u, -0.0, 1, x, m))


_Level = Callable[[float, float, int], Iterable[float]]


def _fsum_level(level: _Level, down: _Level | None, a: float, h: float, n: int) -> float:
    """``math.fsum(level(a, h, n))``, summed from the last value down where
    ``down`` is given and that gives the same float.

    fsum returns the correctly rounded exact sum (Shewchuk, 1997), so the
    order cannot move a finite result. It decides only which error a failing
    level raises: fsum's intermediate overflow or the integrand's own, at
    the first point that fails. ``down`` yields the same values in reverse,
    each >= 0. If it raises nothing and its sum is below 2^1023, the exact
    total is below 2^1023 plus half an ulp; in index order every partial sum
    of values >= 0, and so every addition fsum makes, stays near or below
    that total, short of overflow, and the integrand evaluates the same
    points by the same formula, so it raises nowhere either: index order
    gives the same float. Any other top-down outcome is summed again in
    index order, which raises what the literal order raises.
    """
    if down is not None:
        try:
            s = math.fsum(down(a, h, n))
        except ArithmeticError:
            pass
        else:
            if s < 2.0 ** 1023:
                return s
    return math.fsum(level(a, h, n))


def _simpson(level: _Level, a: float, b: float, tol: float,
             down: _Level | None = None) -> float:
    """Composite Simpson with panel doubling until the Richardson estimate
    |S_2n - S_n| / 15 drops to ``tol`` relative to the value; S_2n must have
    at least ``_MIN_PANELS`` panels (2 ``_MIN_PANELS`` subintervals), within
    ``_MAX_DOUBLINGS`` doublings.

    ``level(a, h, n)`` yields the integrand at a + (i + 0.5) h for i < n, in
    index order. The endpoints are its h = -0.0 case: a + (i + 0.5) (-0.0)
    is a for every float a, signed zero included. Function evaluations are
    reused across refinements by building Simpson values from the trapezoid
    ladder, S_2n = (4 T_2n - T_n) / 3. Each level stays lazy, a level holds
    up to 2^21 points, and ``math.fsum`` takes it from its larger end: where
    the value at b exceeds the one at a and ``down`` is given, ``down(a, h, n)``
    yields the level in reverse (see ``_fsum_level``); otherwise it takes
    ``level`` in index order. Summing values that shrink along the iterator
    is the cheaper order for fsum.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    fa, = level(a, -0.0, 1)
    fb, = level(b, -0.0, 1)
    if not fb > fa:
        down = None
    trap = 0.5 * (b - a) * (fa + fb)
    simpson_prev = None
    last_err = math.inf
    panels = 1
    for _ in range(_MAX_DOUBLINGS):
        h = (b - a) / panels
        midsum = _fsum_level(level, down, a, h, panels)
        trap_next = 0.5 * (trap + h * midsum)
        simpson = (4.0 * trap_next - trap) / 3.0
        if simpson_prev is not None:
            last_err = abs(simpson - simpson_prev) / 15.0
            scale = max(abs(simpson), 1e-300)
            if last_err <= tol * scale and panels >= _MIN_PANELS:
                return simpson
        trap, simpson_prev, panels = trap_next, simpson, panels * 2
    raise QuadratureError(
        "Simpson refinement did not converge",
        iterations=_MAX_DOUBLINGS,
        last_value=simpson_prev,
        last_error=last_err,
    )


def simpson_refine(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integrate the scalar ``f`` over [a, b] to relative tolerance ``tol``
    by composite Simpson with panel doubling (see ``_simpson``)."""
    return _simpson(lambda a, h, n: (f(a + (i + 0.5) * h) for i in range(n)),
                    a, b, tol)


def _check_domain(x: float, m: int) -> None:
    # closed_form_rhs reads x as p / 2^e: a Fraction or Decimal x would be
    # misread, and a float or bool m is no degree.
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise TypeError(f"x must be an int or float, got {type(x).__name__}")
    _check_int("m", m)
    if not -1 < x <= _X_MAX:
        raise DomainError(f"need finite x > -1 with 2x finite (x <= {_X_MAX!r}), got x = {x}")
    if m < 0:
        raise DomainError(f"need m >= 0, got m = {m}")


def quadrature_lhs(x: float, m: int, tol: float) -> float:
    """Numerical value of the quartic integral over [0, inf).

    Evaluated on the [0, 1] fold; estimated relative error at most ``tol``.
    """
    _check_domain(x, m)
    # A level may be summed top-down only if its values are all >= 0. For
    # x + 1 >= 2^-30 the exact denominator base (u^2 - 1)^2 + 2 (x + 1) u^2 is
    # at least x + 1 on [0, 1], while its float evaluation, from operands of
    # magnitude at most 2 (or all >= 0 for x >= 0), is off by a few ulps of 2,
    # about 2^-50: the float base stays positive, so every value is >= 0.
    down = ((lambda a, h, n: _folded_level_down(h, n, x, m))
            if x + 1.0 >= 2.0 ** -30 else None)
    # Halve the requested tolerance so the estimate has headroom.
    return _simpson(lambda a, h, n: _folded_level(a, h, n, x, m), 0.0, 1.0, tol / 2.0,
                    down)


def closed_form_rhs(x: float, m: int) -> float:
    """pi / (2^(m+3/2) (x+1)^(m+1/2)) * P_m(x).

    P_m is evaluated exactly at the dyadic rational p/q the float x denotes:
    with d the common denominator of P_m's integer numerators, Horner's rule
    on ints gives d q^m P_m(p/q), and one int true division (correctly
    rounded for any positive denominator, as ``float(Fraction)`` is) gives
    the float. q is a power of two, 2^e, so its powers are left shifts.
    """
    _check_domain(x, m)
    x = float(x)  # an int x is the float it rounds to, as in the quadrature
    coeffs, den = bm_polynomial(m)._cleared()
    p, q = x.as_integer_ratio()
    e = q.bit_length() - 1
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * p + (c << shift)
        shift += e
    p_m = acc / (den << e * m)
    return math.pi * p_m / (2.0 ** (m + 1.5) * (x + 1.0) ** (m + 0.5))


class IntegralCheck(NamedTuple):
    """One (m, x) comparison of quadrature against the closed form."""

    m: int
    x: float
    lhs: float
    rhs: float
    rel_err: float
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        """The fields in order, keyed by name; ``passed`` is keyed ``pass``."""
        d = self._asdict()
        d["pass"] = d.pop("passed")
        return d


def verify_identity(x: float, m: int, tol: float) -> IntegralCheck:
    """Populate an IntegralCheck; pass means rel_err <= tol.

    The quadrature runs two orders of magnitude tighter than the comparison
    tolerance so its own error does not consume the budget.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    lhs = quadrature_lhs(x, m, max(tol * 1e-2, 1e-13))
    rhs = closed_form_rhs(x, m)
    rel_err = abs(lhs - rhs) / abs(rhs)
    return IntegralCheck(m=m, x=x, lhs=lhs, rhs=rhs, rel_err=rel_err, tol=tol,
                         passed=rel_err <= tol)
