"""Seeded randomized campaigns over the exact contracts.

Campaign targets are rows of one table (``_TARGETS``, whose keys are
``TARGETS``), all run by one trial runner. A row names how a trial draws its
input (always a ``Polynomial`` of ints over one denominator; checks take it
and its shift as they are, and only theorem1 clears its shift again, through
``coeffs``), whether it shifts the input by the spec's ``shift_c`` (refused
for any target but corollary), its check, the degree below which a trial is
vacuous, and the example kinds it records. Every check returns the trial's
failing verdicts and the example kinds it keeps:

* ``theorem1``: shift a random nonnegative nondecreasing sequence by one,
  the result must be ratio monotone (vacuous below degree 1);
* ``lemma1``: random positive sextuples built to satisfy a/b <= c/d <= e/f,
  the mediant conclusion must hold;
* ``lemma2``: random ratio-monotone polynomials (produced as 1-shifts of
  nondecreasing sequences), multiplying by (x + 1) must preserve the
  property;
* ``lemma3``: random positive nondecreasing sequences, the gap must be
  nonnegative;
* ``corollary``: shift by a rational c >= 1, the result must be log-concave
  with no internal zeros (vacuous below degree 2; c < 1 runs are
  exploratory: failures are reported as findings, not violations);
* ``separation``: random positive sequences, searching for a log-concave
  sequence that is not spiral and a spiral sequence that is not log-concave,
  while auditing the implication lattice on every input. A trial makes two
  ``_draw_run`` calls (its degree, then every numerator and denominator in
  one call), builds ints over one common denominator, and runs the four
  lattice finders once to read their statuses as a tuple
  (``shape_props._lattice_statuses``). The audit and the example kinds
  depend on those four statuses alone, so the trial reads them from one row
  of ``_LATTICE_ROWS``, keyed by that tuple: a ``shape_props._LazyTable``
  that builds each of the at most 81 rows with ``_lattice_row``, from
  ``audit_statuses`` and the target's examples, on its key's first use in a
  process. A clean trial builds no dict, runs no audit and builds no
  verdict. Its outcome is a plain tuple of ints, bools and strings: a trial
  that meets an example carries its row's kinds and the draw's own ints and
  denominator, no ``Polynomial``, so a pool ships it cheaply. Only a violation, and the first example of each kind, are
  rendered as Fractions, with their verdicts.

The nondecreasing draws (theorem1, lemma2, lemma3, corollary) are built
cleared, in the lowest terms the constructor would give their Fractions, and
build no Fraction: each drawn ratio is reduced by its own gcd, so the lcm of
their denominators is already the lowest one and the row needs no gcd of its
own. The separation draw is built over the unreduced lcm of its drawn
denominators. Only lemma1's sextuple is built from Fractions and cleared by
the ``Polynomial`` constructor.

Every violation (or finding) has one shape: ``trial``, ``input`` (the drawn
sequence), ``verdicts`` (the failing verdicts as
``PropertyVerdict.to_json_dict()`` dicts), and, for targets that shift,
``shift_c`` and ``shifted``. A lemma predicate whose hypothesis the drawn
input breaks is a violation with a not-applicable verdict, and its trial is
vacuous. A trial with a violation records no examples.

Determinism: all per-trial randomness derives from sha256(seed, trial,
label), so a report is identical regardless of execution parallelism, and
every violation reproduces from (seed, trial index) alone. Each draw reads
streams of bits, each named by a label "{seed}:{trial}:{name}" (``degree``,
``seq`` and ``seq-den``, ``positive-seq`` or ``lemma1``): the sha256 digest
of the label, then those of "…:1", "…:2" and so on, each read as a
big-endian number from its lowest bit up. One reader, ``_draw_run``, takes
every value, as a run of values in one range from one stream, by CPython's
randint rule: for n values, take k = n.bit_length() bits and redraw while
the result is >= n. No trial builds a ``random.Random``. The degree has a
stream of its own, so ``gen_nondecreasing_seq`` rebuilds a trial's input
from its degree. The runs of a trial's values:

* theorem1, lemma2, lemma3, corollary: the numerators, in [0, bound] (in
  [1, bound] for lemma3), on ``seq``; then on ``seq-den``, in [1, bound],
  the denominators, then the numerator and the denominator of the redraw,
  or, in integer-only mode, the redraw's numerator alone;
* separation (``positive-seq``) and lemma1: each numerator in [1, bound],
  then, unless integer-only, its denominator in [1, bound].

Nondecreasing inputs are generated by sorting i.i.d. draws (unbiased over
multisets); the redraw is the ratio that replaces the last entry when every
draw is zero, read whether it is used or not. Entries are rationals with
numerator and denominator bounded by ``magnitude_bound``, or integers in
integer-only mode.

Besides the coverage counts, a report's ``stats`` say what the trials
exercised: the degree histogram (string keys, in ascending order), the
largest bit length of a drawn input's cleared numerators and of its common
denominator, the same for the shifted polynomial on targets that shift, and
the number of trials with a not-applicable verdict. They are read off the
ints a trial holds and gathered with the coverage and examples, one block of
trials at a time: each block's outcomes are split into columns in one pass
and folded into running totals. Like every field but ``wall_time`` they are
deterministic.

``CampaignSpec`` and ``CampaignReport`` are NamedTuples: immutable,
unpackable, and compared as the tuples of their fields (a report holds
dicts and lists, so it does not hash). A spec checks and normalises its
fields whenever one is built: by its constructor, ``_make``, ``_replace``,
or unpickling in a pool worker.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .numeric_core import DomainError, as_rational, render_rational
from .poly_ops import Polynomial, _from_cleared, taylor_shift
from .shape_props import (
    PropertyVerdict,
    Status,
    _FAILS,
    _HOLDS,
    _LATTICE,
    _LazyTable,
    _lattice_statuses,
    _verdict as _lattice_verdict,
    audit_implications,  # noqa: F401  bench/layers.py wraps these two names here
    audit_statuses,
    check_log_concave,
    check_no_internal_zeros,
    check_ratio_monotone,
    check_spiral,  # noqa: F401
)
from .theorem_engine import HypothesisError, lemma1_holds, lemma2_preserved, lemma3_gap

# hashlib loads OpenSSL, megabytes of memory for one digest per trial; the
# builtin module gives the same digests (CPython's random.py does the same).
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "TARGETS",
    "CampaignReport",
    "CampaignSpec",
    "gen_nondecreasing_seq",
    "run_campaign",
]

# The largest degree a campaign draws at. The longest run a draw reads is
# separation's, 2·(degree + 1) values, into a list sized before any value is
# read; past sys.maxsize // 2 - 1 that list could not be sized at all, and
# the bound keeps one degree below it.
_MAX_DEGREE = sys.maxsize // 2 - 2


def _require(name: str, value, kind: type = int) -> None:
    # Exact types: the draws take ints alone, and a bool, an int to Python,
    # would render in a report as true or false.
    if type(value) is not kind:
        raise DomainError(f"{name} must be {kind.__name__}, got {value!r}")


class _SpecFields(NamedTuple):
    target: str
    trials: int
    seed: int
    degree_range: tuple[int, int]
    magnitude_bound: int
    integer_only: bool
    shift_c: Fraction
    allow_c_below_one: bool


class CampaignSpec(_SpecFields):
    """Identity of a campaign; two runs with equal specs report identically.

    The fields live on a private NamedTuple, which cannot define ``__new__``
    in its own body; this subclass checks and normalises them there."""

    __slots__ = ()

    def __new__(cls, target: str, trials: int, seed: int,
                degree_range: tuple[int, int] = (2, 16), magnitude_bound: int = 10 ** 6,
                integer_only: bool = False, shift_c: Fraction = Fraction(1),
                allow_c_below_one: bool = False) -> CampaignSpec:
        if target not in TARGETS:
            raise DomainError(f"unknown target {target!r}, expected one of {TARGETS}")
        try:
            lo, hi = degree_range
        except (TypeError, ValueError):
            raise DomainError(f"degree range must be a pair, got {degree_range!r}") from None
        for name, value, kind in (
                ("trials", trials, int), ("seed", seed, int),
                ("magnitude bound", magnitude_bound, int),
                ("degree range start", lo, int), ("degree range end", hi, int),
                ("integer_only", integer_only, bool),
                ("allow_c_below_one", allow_c_below_one, bool)):
            _require(name, value, kind)
        if trials < 1:
            raise DomainError(f"trials must be >= 1, got {trials}")
        if not 0 <= lo <= hi:
            raise DomainError(f"invalid degree range {degree_range}")
        # Within a degree past _MAX_DEGREE separation's run is longer than a
        # list can be (OverflowError); below it a huge degree runs out of memory.
        # lemma1's sextuple draws no degree.
        if hi > _MAX_DEGREE and target != "lemma1":
            raise DomainError(f"degree range end {hi} is too large to draw "
                              f"(at most {_MAX_DEGREE})")
        if target == "lemma3" and lo < 2:
            raise DomainError("lemma3 campaigns need degree >= 2 (the gap references a_{m-2})")
        if magnitude_bound < 1:
            raise DomainError(f"magnitude bound must be >= 1, got {magnitude_bound}")
        shift_c = as_rational(shift_c)
        if target != "corollary" and (shift_c != 1 or allow_c_below_one):
            raise DomainError(
                f"{target} campaigns shift by 1 if at all; shift_c and "
                "allow_c_below_one are for corollary campaigns")
        if target == "corollary" and shift_c < 1 and not allow_c_below_one:
            raise DomainError(
                "corollary campaigns enforce c >= 1; pass allow_c_below_one "
                "for an exploratory run")
        # A list degree range would be unhashable.
        return super().__new__(cls, target, trials, seed, (lo, hi), magnitude_bound,
                               integer_only, shift_c, allow_c_below_one)

    @classmethod
    def _make(cls, iterable) -> CampaignSpec:
        # The NamedTuple's own _make, and _replace through it, skip __new__.
        return cls(*iterable)

    def to_json_dict(self) -> dict:
        """The fields in order, keyed by name; ``degree_range`` as a list and
        ``shift_c`` as its ``p/q`` string."""
        d = self._asdict()
        d["degree_range"] = list(self.degree_range)
        d["shift_c"] = render_rational(self.shift_c)
        return d

    @property
    def exploratory(self) -> bool:
        return self.target == "corollary" and self.shift_c < 1


class CampaignReport(NamedTuple):
    """Outcome of one campaign; wall_time is the only nondeterministic field."""

    spec: CampaignSpec
    trials_run: int
    coverage: dict[str, int]
    violations: list[dict]
    findings: list[dict]
    examples_found: dict[str, dict | None]
    stats: dict
    wall_time: float

    def to_json_dict(self) -> dict:
        """The fields in order, keyed by name; ``spec`` as its own
        ``to_json_dict()``."""
        d = self._asdict()
        d["spec"] = self.spec.to_json_dict()
        return d


def _draw_run(label: str, low: int, high: int, count: int) -> list[int]:
    """``count`` values in [low, high] from the bit stream of ``label``, by
    randint's rule (module docstring); every drawn value comes from here.
    n, k and the mask are computed once, and the inner loop takes each whole
    k-bit group a digest completes, with no per-value test of the bits
    left."""
    n = high - low + 1
    k = n.bit_length()
    mask = (1 << k) - 1
    out = [low] * count  # a count no list can hold raises MemoryError here, at once
    i = pool = avail = block = 0
    while i < count:
        name = f"{label}:{block}" if block else label
        pool |= int.from_bytes(_sha256(name.encode()).digest(), "big") << avail
        avail += 256
        block += 1
        for _ in range(avail // k):
            r = pool & mask
            pool >>= k
            if r < n:
                out[i] = low + r
                i += 1
                if i == count:
                    return out
        avail %= k
    return out


def gen_nondecreasing_seq(seed: int, trial: int, degree: int, bound: int,
                          *, integer_only: bool = False,
                          positive: bool = False) -> tuple[Fraction, ...]:
    """Deterministic nonnegative nondecreasing sequence with a_m > 0.

    Sorted i.i.d. draws; numerators in [0, bound] (or [1, bound] when
    ``positive``), denominators in [1, bound]. If the maximum lands on zero
    the whole sequence is zero, so the last entry is re-drawn positive.
    """
    for name, value, kind in (("seed", seed, int), ("trial", trial, int),
                              ("degree", degree, int), ("bound", bound, int),
                              ("integer_only", integer_only, bool),
                              ("positive", positive, bool)):
        _require(name, value, kind)
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    if degree > _MAX_DEGREE:  # CampaignSpec's guard
        raise DomainError(f"degree {degree} is too large to draw (at most {_MAX_DEGREE})")
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    return _gen_nondecreasing(seed, trial, degree, bound, integer_only, positive).coeffs


def _gen_nondecreasing(seed: int, trial: int, degree: int, bound: int, integer_only: bool,
                       positive: bool) -> Polynomial:
    """The draw of ``gen_nondecreasing_seq``, built cleared: the lowest-terms
    form that clearing its Fractions would give, with no Fraction built.

    Each draw num/den is reduced by its own gcd, a word-size one, and L is
    the lcm of the reduced denominators, so L is the lowest common
    denominator. Entry num/d then becomes the int num * (L // d). No prime p
    of L divides every one of those ints: the entry whose d holds p's full
    power in L has L // d prime to p, and its num is prime to d, so to p.
    So the ints over L are in lowest terms as they stand, and no gcd over
    the whole row and no division by it is needed. A zero entry reduces to
    0/1; when every entry is zero, L is 1 and the redraw, reduced the same
    way, alone sets the denominator."""
    label = f"{seed}:{trial}:seq"
    nums = _draw_run(label, 1 if positive else 0, bound, degree + 1)
    if integer_only:  # the second run holds the redraw's numerator alone
        nums += _draw_run(f"{label}-den", 1, bound, 1)
        dens = [1] * (degree + 2)
    else:  # the denominators, then the redraw's numerator and denominator
        dens = _draw_run(f"{label}-den", 1, bound, degree + 3)
        nums.append(dens.pop(-2))
        gcds = list(map(math.gcd, nums, dens))
        nums = [num // g for num, g in zip(nums, gcds)]
        dens = [d // g for d, g in zip(dens, gcds)]
    redraw_num, redraw_den = nums.pop(), dens.pop()
    # Integer keys over a common denominator sort as their Fractions would.
    den = math.lcm(*dens)
    keys = sorted([num * (den // d) for num, d in zip(nums, dens)])
    if keys[-1] == 0:  # every entry is zero, over the redraw's denominator too
        keys[-1], den = redraw_num, redraw_den
    return _from_cleared(keys, den)


def _gen_positive_seq(seed: int, trial: int, degree: int, bound: int,
                      integer_only: bool) -> Polynomial:
    """Unsorted i.i.d. positive draws num/den, for the separation search, as
    ints s over L, the lcm of the drawn denominators: entry i is s[i]/L.

    num and den both lie in [1, bound], so one ``_draw_run`` reads them all:
    each numerator, then, unless integer-only (den 1), its denominator."""
    label = f"{seed}:{trial}:positive-seq"
    if integer_only:
        return _from_cleared(_draw_run(label, 1, bound, degree + 1), 1)
    flat = _draw_run(label, 1, bound, 2 * degree + 2)
    dens = flat[1::2]
    lcm = math.lcm(*dens)
    return _from_cleared([num * (lcm // den) for num, den in zip(flat[::2], dens)], lcm)


def _pick_degree(seed: int, trial: int, degree_range: tuple[int, int]) -> int:
    """The trial's degree, uniform over ``degree_range``."""
    low, high = degree_range
    return _draw_run(f"{seed}:{trial}:degree", low, high, 1)[0]


def _render_seq(p: Polynomial) -> list[str]:
    # A cleared draw builds its Fractions here, on first read.
    return [render_rational(v) for v in p.coeffs]


# A draw takes the spec's fields, not the spec: _run_trial reads them once.
def _draw_nondecreasing(seed: int, trial: int, degree_range: tuple[int, int], bound: int,
                        integer_only: bool, positive: bool = False) -> Polynomial:
    return _gen_nondecreasing(seed, trial, _pick_degree(seed, trial, degree_range), bound,
                              integer_only, positive)


def _draw_positive(seed: int, trial: int, degree_range: tuple[int, int], bound: int,
                   integer_only: bool) -> Polynomial:
    return _gen_positive_seq(seed, trial, _pick_degree(seed, trial, degree_range), bound,
                             integer_only)


def _draw_sextuple(seed: int, trial: int, degree_range: tuple[int, int], bound: int,
                   integer_only: bool) -> Polynomial:
    """Positive (a, b, c, d, e, f) with a/b <= c/d <= e/f, for lemma1."""
    # Each numerator, then, unless integer-only, its denominator.
    flat = _draw_run(f"{seed}:{trial}:lemma1", 1, bound, 6 if integer_only else 12)
    nums, dens = (flat, [1] * 6) if integer_only else (flat[::2], flat[1::2])
    b, d, f, *ratios = map(Fraction, nums, dens)
    r1, r2, r3 = sorted(ratios)
    return Polynomial((r1 * b, b, r2 * d, d, r3 * f, f))


def _verdict(prop: str, holds: bool, detail: str) -> PropertyVerdict:
    """A Holds verdict, or a Fails verdict that says ``detail``; no witness."""
    if holds:
        return PropertyVerdict(prop, _HOLDS, None, "")
    return PropertyVerdict(prop, _FAILS, None, detail)


# Each check maps (drawn polynomial, shifted polynomial or None) to the
# trial's failing verdicts and the example kinds it keeps (None for none).
_CheckResult = tuple[Sequence[PropertyVerdict], tuple[str, ...] | None]


def _failing(*verdicts: PropertyVerdict) -> _CheckResult:
    """The result of a check that keeps no example: its verdicts that fail."""
    return [v for v in verdicts if v.status is not _HOLDS], None


def _check_theorem1(seq, shifted) -> _CheckResult:
    # .coeffs clears again. Passing shifted more than doubles theorem1
    # ops_per_s, but bench/run.py keeps two floats per op, so peak_rss_mb
    # would grow by 15-17%, past its 0.05 bound.
    return _failing(check_ratio_monotone(shifted.coeffs))


def _check_lemma1(seq, shifted) -> _CheckResult:
    # The mediant step does not change when all six entries scale by one positive lcm.
    return _failing(_verdict("lemma1", lemma1_holds(*seq._cleared()[0]),
                             "mediant conclusion (a+c)/(b+d) <= (e+c)/(f+d) is false"))


def _check_lemma2(seq, shifted) -> _CheckResult:
    return _failing(_verdict("lemma2", lemma2_preserved(shifted),
                             "ratio monotonicity lost after multiplying by (x+1)"))


def _check_lemma3(seq, shifted) -> _CheckResult:
    r = lemma3_gap(seq)
    if r.gap >= 0:
        return _failing()
    return _failing(_verdict("lemma3", False, f"gap {render_rational(r.gap)} < 0: "
                             f"lhs {render_rational(r.lhs)}, rhs {render_rational(r.rhs)}"))


def _check_corollary(seq, shifted) -> _CheckResult:
    return _failing(check_log_concave(shifted), check_no_internal_zeros(shifted))


def _lattice_row(key: tuple[Status, ...]) -> _CheckResult:
    """The separation check's result for a status key (``_lattice_statuses``,
    in ``_LATTICE`` order): an inconsistent audit's failing ``implications``
    verdict and no example, or no verdict and the example kinds the statuses
    give, from ``audit_statuses`` and the target's examples."""
    statuses = dict(zip(_LATTICE, key))
    inconsistent = [name for name, ok in audit_statuses(statuses) if not ok]
    if inconsistent:
        return (_verdict("implications", False,
                         f"implication audit inconsistent: {inconsistent}"),), None
    return (), tuple([kind for kind, holds, fails in _TARGETS["separation"].examples
                      if statuses[holds] is _HOLDS and statuses[fails] is _FAILS]) or None


_LATTICE_ROWS = _LazyTable(_lattice_row)


def _check_lattice(seq, shifted) -> _CheckResult:
    # Statuses only: run_campaign builds the full verdict of a kept example.
    return _LATTICE_ROWS[_lattice_statuses(seq._cleared()[0])]


class _Target(NamedTuple):
    """One campaign target: draw an input, maybe shift it by the spec's
    ``shift_c`` (1 for every target but corollary), check it.

    ``check`` returns the trial's failing verdicts, each a violation (a
    finding on exploratory runs), and the example kinds it keeps, or None;
    a trial of degree below ``min_degree`` is vacuous. Each example kind is
    (kind, property that holds, property that fails), both lattice
    properties; its payload quotes the failing verdict under that
    property's name, with underscores for hyphens.
    """

    draw: Callable[[int, int, tuple[int, int], int, bool], Polynomial]
    shifts: bool
    check: Callable[[Polynomial, Polynomial | None], _CheckResult]
    min_degree: int = 0
    examples: tuple[tuple[str, str, str], ...] = ()


_TARGETS = {
    "theorem1": _Target(_draw_nondecreasing, True, _check_theorem1, min_degree=1),
    "lemma1": _Target(_draw_sextuple, False, _check_lemma1),
    "lemma2": _Target(_draw_nondecreasing, True, _check_lemma2),
    "lemma3": _Target(partial(_draw_nondecreasing, positive=True), False, _check_lemma3),
    "corollary": _Target(_draw_nondecreasing, True, _check_corollary, min_degree=2),
    "separation": _Target(_draw_positive, False, _check_lattice, examples=(
        ("log-concave-not-spiral", "log-concave", "spiral"),
        ("spiral-not-log-concave", "spiral", "log-concave"),
    )),
}

TARGETS = tuple(_TARGETS)


# The largest bit lengths a report's stats give, in the order of a trial
# outcome's bits; the last two only for targets that shift.
_BIT_STATS = ("input_bits_max", "input_den_bits_max", "shifted_bits_max",
              "shifted_den_bits_max")


def _bit_lengths(p: Polynomial) -> tuple[int, int]:
    """The bit lengths of the largest numerator, by absolute value, and of the
    denominator of ``p``'s cleared form; two C passes find the largest, where
    a bit_length per int would cost a theorem1 trial twice as much."""
    ints, den = p._cleared()
    return max(max(ints), -min(ints)).bit_length(), den.bit_length()


def _run_trial(spec: CampaignSpec, trial: int) -> tuple:
    """The trial's outcome, a plain tuple: (trial, exercised, degree, bits,
    not_applicable, payload, kept). bits is ``_bit_lengths`` of the draw and,
    if any, of its shift; payload is the rendered violation, or None; kept
    is None, or (example kinds, the draw's ints, its denominator)."""
    target, _, seed, degree_range, bound, integer_only, shift_c, _ = spec
    draw, shifts, check, min_degree, _ = _TARGETS[target]
    seq = draw(seed, trial, degree_range, bound, integer_only)
    ints, den = seq._cleared()
    degree = len(ints) - 1
    # Every draw is nonnegative, so its largest int is its largest magnitude;
    # a shift by c < 0 can have negative coefficients.
    bits = max(ints).bit_length(), den.bit_length()
    shifted = None
    if shifts:
        shifted = taylor_shift(seq, shift_c)
        bits += _bit_lengths(shifted)
    exercised = degree >= min_degree
    try:
        failed, kinds = check(seq, shifted)
    except HypothesisError as exc:
        exercised = False
        failed = [PropertyVerdict(target, Status.NOT_APPLICABLE, None,
                                  f"generator produced a hypothesis violation: {exc}")]
    if failed:
        # Rendered only for a failing trial: rendering every trial's input
        # and shift costs theorem1 about a fifth of its throughput.
        payload = {"trial": trial, "input": _render_seq(seq),
                   "verdicts": [v.to_json_dict() for v in failed]}
        if shifted is not None:
            payload["shift_c"] = render_rational(shift_c)
            payload["shifted"] = _render_seq(shifted)
        return (trial, exercised, degree, bits,
                any(v.status is Status.NOT_APPLICABLE for v in failed), payload, None)
    return trial, exercised, degree, bits, False, None, kinds and (kinds, ints, den)


# Trials per block: run_campaign holds one block's outcomes at a time and
# folds them into running totals, so its memory does not grow with the trial
# count (about 0.4 KB per held outcome).
_BLOCK = 4096


def _outcome_blocks(spec: CampaignSpec, workers: int):
    """Yield the trials' outcomes in trial order, one list per block of at
    most ``_BLOCK`` trials, run here or by one pool of ``workers``."""
    blocks = (range(lo, min(lo + _BLOCK, spec.trials)) for lo in range(0, spec.trials, _BLOCK))
    if workers == 1:
        for block in blocks:
            yield [_run_trial(spec, t) for t in block]
        return
    from concurrent.futures import ProcessPoolExecutor

    run = partial(_run_trial, spec)
    chunk = max(1, min(spec.trials, _BLOCK) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for block in blocks:
            yield list(pool.map(run, block, chunksize=chunk))


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> CampaignReport:
    """Run all trials and assemble the report in trial-index order.

    ``jobs`` > 1 distributes trials over a process pool of at most ``jobs``
    workers, and no more than there are trials or CPUs; because each trial
    derives its randomness from (seed, trial) alone and results are
    assembled in trial order, the report does not depend on ``jobs``.
    Outcomes are split into columns and folded into the report's running
    values one block at a time, so memory stays flat however many trials run.
    """
    _require("jobs", jobs)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    # The pool starts all its workers on the first submit, needed or not.
    workers = min(jobs, spec.trials)
    if workers > 1:  # only then is the CPU count worth asking for
        workers = min(workers, os.cpu_count() or 1)

    example_kinds = _TARGETS[spec.target].examples
    kinds = [kind for kind, _, _ in example_kinds]
    non_vacuous = not_applicable = 0
    degrees: Counter = Counter()
    bits_max: list[int] = []
    payloads: list[dict] = []
    hit_counts = dict.fromkeys(kinds, 0)
    first_hits: dict[str, tuple[int, tuple]] = {}  # kind -> (trial, kept)
    for outcomes in _outcome_blocks(spec, workers):
        ids, exercised, degs, bits, na, pays, kept = zip(*outcomes)
        non_vacuous += sum(exercised)
        not_applicable += sum(na)
        degrees.update(degs)
        block_max = list(map(max, zip(*bits)))
        bits_max = list(map(max, bits_max, block_max)) if bits_max else block_max
        payloads += [p for p in pays if p is not None]
        for trial, hit in zip(ids, kept):
            if hit is not None:
                for kind in hit[0]:
                    hit_counts[kind] += 1
                    first_hits.setdefault(kind, (trial, hit))

    coverage = {"non_vacuous_trials": non_vacuous, **hit_counts}
    examples_found: dict[str, dict | None] = dict.fromkeys(kinds)
    for kind, _, fails in example_kinds:
        if kind in first_hits:
            trial, (_, ints, den) = first_hits[kind]
            seq = _from_cleared(ints, den)
            verdict = _lattice_verdict(fails, seq)
            examples_found[kind] = {"trial": trial, "sequence": _render_seq(seq),
                                    fails.replace("-", "_"): verdict.to_json_dict()}
    stats = {"degrees": {str(d): degrees[d] for d in sorted(degrees)},
             **dict(zip(_BIT_STATS, bits_max)),
             "not_applicable_trials": not_applicable}
    return CampaignReport(
        spec=spec,
        trials_run=spec.trials,
        coverage=coverage,
        violations=[] if spec.exploratory else payloads,
        findings=payloads if spec.exploratory else [],
        examples_found=examples_found,
        stats=stats,
        wall_time=time.perf_counter() - start,
    )
