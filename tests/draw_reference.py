"""Campaign draws rebuilt from hashlib and randint's rule alone.

The bits of the sha256 digests of a label "{seed}:{trial}:{name}", then
"{label}:1", "{label}:2" and so on, form one stream, each digest read as a
big-endian number from its lowest bit up. For a range of n values, read
k = n.bit_length() bits at a time, each group as a number with its last bit
the most significant, and take the first below n; the next range reads on
from there.
"""

import hashlib
from fractions import Fraction


def reference_draws(label, ranges):
    bits, block, pos, out = "", 0, 0, []
    for low, high in ranges:
        n = high - low + 1
        k = n.bit_length()
        while True:
            while len(bits) - pos < k:
                name = label if block == 0 else f"{label}:{block}"
                word = int.from_bytes(hashlib.sha256(name.encode()).digest(), "big")
                bits += format(word, "0256b")[::-1]
                block += 1
            value = int(bits[pos:pos + k][::-1], 2)
            pos += k
            if value < n:
                out.append(low + value)
                break
    return out


def reference_degree(seed, trial, low, high):
    return reference_draws(f"{seed}:{trial}:degree", [(low, high)])[0]


def reference_ratios(label, lows, bound, integer_only):
    """One Fraction per entry of ``lows``: a numerator in [low, bound], then,
    unless ``integer_only``, a denominator in [1, bound]."""
    ranges = []
    for low in lows:
        ranges.append((low, bound))
        if not integer_only:
            ranges.append((1, bound))
    flat = reference_draws(label, ranges)
    if integer_only:
        return [Fraction(v) for v in flat]
    return [Fraction(num, den) for num, den in zip(flat[::2], flat[1::2])]


def reference_nondecreasing(seed, trial, degree, bound, positive, integer_only):
    """A nondecreasing draw as Fractions: degree + 1 numerators in [low, bound]
    (low 1 if ``positive``, else 0) from "{seed}:{trial}:seq"; then, from
    "{seed}:{trial}:seq-den", in [1, bound], the degree + 1 denominators, the
    redraw's numerator and the redraw's denominator, or, if ``integer_only``,
    the redraw's numerator alone. The entries are sorted, and the redraw
    replaces the last one when every entry is zero."""
    nums = reference_draws(f"{seed}:{trial}:seq", [(1 if positive else 0, bound)] * (degree + 1))
    if integer_only:
        dens = [1] * (degree + 1)
        redraw = Fraction(reference_draws(f"{seed}:{trial}:seq-den", [(1, bound)])[0])
    else:
        *dens, num, den = reference_draws(f"{seed}:{trial}:seq-den", [(1, bound)] * (degree + 3))
        redraw = Fraction(num, den)
    draws = sorted(Fraction(num, den) for num, den in zip(nums, dens))
    if draws[-1] == 0:
        draws[-1] = redraw
    return draws
