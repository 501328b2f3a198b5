"""Exact integer and rational arithmetic primitives.

Python's built-in ``int`` already provides exact arbitrary-precision signed
integers, and :class:`fractions.Fraction` keeps rationals in canonical form
(positive denominator, gcd-reduced numerator), so those are the scalar types
used throughout. This module adds the comparison and parsing primitives the
rest of the package is built on. Every inequality between ratios is decided
by cross-multiplication on exact integers, never by division. Text is read
by one grammar, ``p``, ``p/q`` or a decimal in ASCII digits, and then by
``Fraction``, which takes everything the grammar does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

# The canonical rational scalar. Immutable, always normalized.
Rational = Fraction

__all__ = [
    "DomainError",
    "ParseError",
    "Rational",
    "as_rational",
    "binomial",
    "clear_denominators",
    "parse_rational",
    "ratio_leq",
    "render_rational",
]


class DomainError(ValueError):
    """An operation was called outside its stated domain."""


class ParseError(ValueError):
    """Malformed rational text. ``position`` is the offending 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def binomial(n: int, k: int) -> int:
    """Return C(n, k) exactly; 0 when k > n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def ratio_leq(p_num: Fraction | int, p_den: Fraction | int,
              q_num: Fraction | int, q_den: Fraction | int) -> bool:
    """Decide p_num/p_den <= q_num/q_den without dividing.

    Denominators must be positive; cross-multiplication then preserves the
    inequality direction and is exact.
    """
    if p_den <= 0 or q_den <= 0:
        raise DomainError(
            f"ratio_leq requires positive denominators, got {p_den} and {q_den}"
        )
    return p_num * q_den <= q_num * p_den


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Return ([L * v for v in values], L) with L the lcm of the denominators.

    L is positive, so every sign, order and ratio among the values holds
    among the integers too.
    """
    pairs = [v.as_integer_ratio() for v in values]  # one call, not two properties
    lcm = math.lcm(*[d for _, d in pairs])
    return [n * (lcm // d) for n, d in pairs], lcm


# The one grammar: p, p/q, or a decimal with a digit on at least one side of
# the point, in ASCII digits. Fraction reads whatever matches, and refuses
# nothing of it but a zero denominator and a number past the interpreter's
# digit limit; the gate keeps out what Fraction alone would also take:
# exponents, underscores, spaces around "/" and non-ASCII digits.
_RATIONAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)\Z")


def _digits_limit_error(what: str, exc: ValueError) -> DomainError:
    # CPython (3.11, and 3.10.7 on) refuses int/str conversions past
    # sys.get_int_max_str_digits() digits, with a plain ValueError.
    return DomainError(f"{what} is too long to convert: {exc}")


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q``, or a decimal literal into an exact Fraction.

    A literal must match one grammar, ``_RATIONAL_RE``, before
    ``Fraction`` reads it. Decimals are scaled by a power of ten, never
    routed through floating point, so e.g. ``"0.1"`` is exactly 1/10. A
    zero denominator, or a literal with more digits than the interpreter
    converts, raises DomainError.
    """
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        # Report the first character that cannot appear in a literal, if any
        # (position 0 for an empty one).
        pos = next((i for i, ch in enumerate(stripped) if ch not in "+-/.0123456789"), 0)
        raise ParseError(f"malformed rational literal {stripped!r}", pos)
    try:
        return Fraction(stripped)
    except ZeroDivisionError as exc:
        raise DomainError(f"zero denominator in {stripped!r}") from exc
    except ValueError as exc:
        raise _digits_limit_error(f"a {len(stripped)}-character literal", exc) from exc


def render_rational(value: Fraction | int) -> str:
    """Canonical text form: ``p/q`` with q > 0 and gcd 1, or ``p`` when q = 1.

    The value is coerced by ``as_rational``, so a float or text raises
    TypeError; raises DomainError if p or q has more digits than the
    interpreter converts to text.
    """
    try:
        return str(as_rational(value))
    except ValueError as exc:
        raise _digits_limit_error("a rational", exc) from exc


def as_rational(value: Fraction | int) -> Fraction:
    """Coerce an exact scalar to Fraction, rejecting floats and text.

    Floats are refused everywhere exact values are expected; converting one
    silently would smuggle a binary approximation into exact arithmetic.
    Text is refused too: Fraction's own grammar takes exponents, so a short
    string such as "1e10000000" would build a huge int; ``parse_rational``
    is the bounded text path. A Fraction is immutable, so it is returned as
    is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing to treat float {value!r} as an exact rational; "
            "convert explicitly via Fraction if the dyadic value is intended"
        )
    if isinstance(value, str):
        raise TypeError(f"refusing to parse text {value!r} here; use parse_rational")
    return Fraction(value)
