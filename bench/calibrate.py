"""Calibration of call times against a fixed reference loop.

On a small shared host the speed of a core swings by up to 2x over periods
of a few seconds, most likely from other tenants' load, while CPU time
keeps equal to wall time. Longer runs do not average that out within the
benchmark's time budget. So calls run in blocks of about
``BLOCK_S`` seconds, each bracketed by a run of :func:`reference`, and a
block's times are scaled by ``NOMINAL_S`` over the mean of its two
reference times: a calibrated second is the time in which the reference
loop would run ``1 / NOMINAL_S`` times. The reference is benchmark code
that uses only the standard library, so a change to ratioshift cannot
move it. Like the workloads, it mixes ``Fraction`` arithmetic and a float
loop. Big-integer work, which dominates the costly ``boros_moll`` ops,
slowed down less under contention than this loop on the host it was tuned
on; adding such work to the loop made the other workloads noisier.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the reference time on an uncontended core of the 2-vCPU Xeon host
# with Python 3.11; it only sets the unit of calibrated seconds.
NOMINAL_S = 0.005
BLOCK_S = 0.1


def reference() -> float:
    """Run the fixed reference loop once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i * 7919 % 1000003, i * 104729 % 999983 + 1)
        if acc.denominator > 10 ** 60:
            acc = Fraction(acc.numerator % 10 ** 50, acc.denominator % 10 ** 50 + 1)
    total = 0.0
    for i in range(1, 6000):
        total += 1.0 / (i * i + 0.5 * i + 1.0) ** 1.5
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds between two reference runs into calibrated seconds."""
    return 2.0 * NOMINAL_S / (before + after)
