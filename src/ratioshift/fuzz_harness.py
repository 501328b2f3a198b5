"""Seeded randomized campaigns over the exact contracts.

Campaign targets are rows of one table (``_TARGETS``, whose keys are
``TARGETS``), all run by one trial runner. A row names how a trial draws its
input (always a ``Polynomial``, cleared once when drawn; checks take it and
its shift as they are, and only theorem1 clears its shift again, through
``coeffs``), whether it shifts the input by the spec's ``shift_c`` (refused
for any target but corollary), the verdicts that must hold, the degree below
which a trial is vacuous, and the example kinds it records:

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
  while auditing the implication lattice on every input. A trial draws ints
  over one common denominator, reads the four lattice statuses off them
  (``shape_props._lattice_statuses``) and audits and picks examples on those
  statuses alone; only a violation or an example the report keeps is
  rendered as Fractions, with its verdict.

Every violation (or finding) has one shape: ``trial``, ``input`` (the drawn
sequence), ``verdicts`` (the failing verdicts as
``PropertyVerdict.to_json_dict()`` dicts), and, for targets that shift,
``shift_c`` and ``shifted``. A lemma predicate whose hypothesis the drawn
input breaks is a violation with a not-applicable verdict, and its trial is
vacuous. A trial with a violation records no examples.

Determinism: all per-trial randomness derives from sha256(seed, trial,
label), so a report is identical regardless of execution parallelism, and
every violation reproduces from (seed, trial index) alone. Every value is
drawn by ``_randints``, which runs CPython's own randint rule on the trial's
``random.Random``: for n values, take k = n.bit_length() bits from
``getrandbits`` and redraw while the result is >= n. That rule is the same
on CPython 3.10 to 3.13, so the stream and every report are those of
``rng.randint`` calls, in one Python frame per batch of draws instead of
three per value. Nondecreasing inputs are generated by sorting i.i.d.
draws (unbiased over multisets); entries are rationals with numerator and
denominator bounded by ``magnitude_bound``, or integers in integer-only
mode.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .numeric_core import DomainError, as_rational, render_rational
from .poly_ops import Polynomial, _from_cleared, taylor_shift
from .shape_props import (
    PropertyVerdict,
    Status,
    _lattice_statuses,
    audit_implications,  # noqa: F401  bench/layers.py wraps these two names here
    audit_statuses,
    check_log_concave,
    check_no_internal_zeros,
    check_ratio_monotone,
    check_spiral,  # noqa: F401
    lattice_verdicts,
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


def _require(name: str, value, kind: type = int) -> None:
    # Exact types: the draws take ints alone, and a bool, an int to Python,
    # would render in a report as true or false.
    if type(value) is not kind:
        raise DomainError(f"{name} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """Identity of a campaign; two runs with equal specs report identically."""

    target: str
    trials: int
    seed: int
    degree_range: tuple[int, int] = (2, 16)
    magnitude_bound: int = 10 ** 6
    integer_only: bool = False
    shift_c: Fraction = Fraction(1)
    allow_c_below_one: bool = False

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise DomainError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        try:
            lo, hi = self.degree_range
        except (TypeError, ValueError):
            raise DomainError(f"degree range must be a pair, got {self.degree_range!r}") from None
        for name, value, kind in (
                ("trials", self.trials, int), ("seed", self.seed, int),
                ("magnitude bound", self.magnitude_bound, int),
                ("degree range start", lo, int), ("degree range end", hi, int),
                ("integer_only", self.integer_only, bool),
                ("allow_c_below_one", self.allow_c_below_one, bool)):
            _require(name, value, kind)
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= lo <= hi:
            raise DomainError(f"invalid degree range {self.degree_range}")
        object.__setattr__(self, "degree_range", (lo, hi))  # a list would be unhashable
        if self.target == "lemma3" and lo < 2:
            raise DomainError("lemma3 campaigns need degree >= 2 (the gap references a_{m-2})")
        if self.magnitude_bound < 1:
            raise DomainError(f"magnitude bound must be >= 1, got {self.magnitude_bound}")
        object.__setattr__(self, "shift_c", as_rational(self.shift_c))
        if self.target != "corollary" and (self.shift_c != 1 or self.allow_c_below_one):
            raise DomainError(
                f"{self.target} campaigns shift by 1 if at all; shift_c and "
                "allow_c_below_one are for corollary campaigns")
        if (self.target == "corollary" and self.shift_c < 1
                and not self.allow_c_below_one):
            raise DomainError(
                "corollary campaigns enforce c >= 1; pass allow_c_below_one "
                "for an exploratory run")

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "trials": self.trials,
            "seed": self.seed,
            "degree_range": list(self.degree_range),
            "magnitude_bound": self.magnitude_bound,
            "integer_only": self.integer_only,
            "shift_c": render_rational(self.shift_c),
            "allow_c_below_one": self.allow_c_below_one,
        }

    @property
    def exploratory(self) -> bool:
        return self.target == "corollary" and self.shift_c < 1


@dataclass
class CampaignReport:
    """Outcome of one campaign; wall_time is the only nondeterministic field."""

    spec: CampaignSpec
    trials_run: int
    coverage: dict[str, int]
    violations: list[dict]
    findings: list[dict] = field(default_factory=list)
    examples_found: dict[str, dict | None] = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "trials_run": self.trials_run,
            "coverage": self.coverage,
            "violations": self.violations,
            "findings": self.findings,
            "examples_found": self.examples_found,
            "wall_time": self.wall_time,
        }


def _trial_rng(seed: int, trial: int, label: str) -> random.Random:
    """RNG derived from (seed, trial, label) only; stable across processes."""
    digest = _sha256(f"{seed}:{trial}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _randints(rng: random.Random, rounds: int, *ranges: tuple[int, int]) -> list[int]:
    """``rounds`` rounds of one ``rng.randint(low, high)`` per range, flat: the
    same values and generator state, by randint's own rule (module docstring)."""
    getrandbits = rng.getrandbits
    out = []
    for low, high in ranges * rounds:
        n = high - low + 1
        r = getrandbits(n.bit_length())
        while r >= n:
            r = getrandbits(n.bit_length())
        out.append(low + r)
    return out


def _draw_ratios(rng: random.Random, count: int, low: int, bound: int,
                 integer_only: bool) -> tuple[list[int], list[int]]:
    """``count`` draws num/den, num in [low, bound] and den in [1, bound] (den 1
    in integer-only mode), as numerators and denominators."""
    if integer_only:
        return _randints(rng, count, (low, bound)), [1] * count
    flat = _randints(rng, count, (low, bound), (1, bound))
    return flat[::2], flat[1::2]


def gen_nondecreasing_seq(seed: int, trial: int, degree: int, bound: int,
                          *, integer_only: bool = False,
                          positive: bool = False) -> tuple[Fraction, ...]:
    """Deterministic nonnegative nondecreasing sequence with a_m > 0.

    Sorted i.i.d. draws; numerators in [0, bound] (or [1, bound] when
    ``positive``), denominators in [1, bound]. If the maximum lands on zero
    the whole sequence is zero, so the last entry is re-drawn positive.
    """
    for name, value in (("seed", seed), ("trial", trial), ("degree", degree), ("bound", bound)):
        _require(name, value)
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    rng = _trial_rng(seed, trial, "seq")
    nums, dens = _draw_ratios(rng, degree + 1, 1 if positive else 0, bound, integer_only)
    # Sorting integer keys over a common denominator orders the draws as their
    # Fractions would; equal keys are equal Fractions, so the order is the same.
    lcm = math.lcm(*dens)
    keys = [num * (lcm // den) for num, den in zip(nums, dens)]
    order = sorted(range(degree + 1), key=keys.__getitem__)
    draws = [Fraction(nums[i], dens[i]) for i in order]
    if keys[order[-1]] == 0:
        (num,), (den,) = _draw_ratios(rng, 1, 1, bound, integer_only)
        draws[-1] = Fraction(num, den)
    return tuple(draws)


def _gen_positive_seq(seed: int, trial: int, degree: int, bound: int,
                      integer_only: bool) -> Polynomial:
    """Unsorted i.i.d. positive draws (those of ``_draw_ratios``), for the
    separation search, as ints s over L, the lcm of the drawn denominators:
    entry i is s[i]/L."""
    nums, dens = _draw_ratios(_trial_rng(seed, trial, "positive-seq"), degree + 1, 1, bound,
                              integer_only)
    lcm = math.lcm(*dens)
    return _from_cleared([num * (lcm // den) for num, den in zip(nums, dens)], lcm)


def _pick_degree(spec: CampaignSpec, trial: int) -> int:
    (degree,) = _randints(_trial_rng(spec.seed, trial, "degree"), 1, spec.degree_range)
    return degree


def _render_seq(p: Polynomial) -> list[str]:
    # A cleared draw builds its Fractions here, on first read.
    return [render_rational(v) for v in p.coeffs]


def _draw_nondecreasing(spec: CampaignSpec, trial: int, positive: bool = False) -> Polynomial:
    return Polynomial(gen_nondecreasing_seq(spec.seed, trial, _pick_degree(spec, trial),
                                            spec.magnitude_bound,
                                            integer_only=spec.integer_only, positive=positive))


def _draw_positive(spec: CampaignSpec, trial: int) -> Polynomial:
    return _gen_positive_seq(spec.seed, trial, _pick_degree(spec, trial),
                             spec.magnitude_bound, spec.integer_only)


def _draw_sextuple(spec: CampaignSpec, trial: int) -> Polynomial:
    """Positive (a, b, c, d, e, f) with a/b <= c/d <= e/f, for lemma1."""
    nums, dens = _draw_ratios(_trial_rng(spec.seed, trial, "lemma1"), 6, 1,
                              spec.magnitude_bound, spec.integer_only)
    b, d, f, *ratios = map(Fraction, nums, dens)
    r1, r2, r3 = sorted(ratios)
    return Polynomial((r1 * b, b, r2 * d, d, r3 * f, f))


def _verdict(prop: str, holds: bool, detail: str) -> PropertyVerdict:
    """A Holds verdict, or a Fails verdict that says ``detail``; no witness."""
    if holds:
        return PropertyVerdict(prop, Status.HOLDS, None, "")
    return PropertyVerdict(prop, Status.FAILS, None, detail)


# Each check maps (drawn polynomial, shifted polynomial or None) to the
# verdicts the trial computed, by property name; the lattice check maps its
# four properties to their statuses alone.

def _check_theorem1(seq, shifted) -> dict[str, PropertyVerdict]:
    # .coeffs clears again: faster trials would grow bench peak_rss_mb (ROADMAP item 1).
    return {"ratio-monotone": check_ratio_monotone(shifted.coeffs)}


def _check_lemma1(seq, shifted) -> dict[str, PropertyVerdict]:
    # The mediant step does not change when all six entries scale by one positive lcm.
    return {"lemma1": _verdict("lemma1", lemma1_holds(*seq._cleared()[0]),
                               "mediant conclusion (a+c)/(b+d) <= (e+c)/(f+d) is false")}


def _check_lemma2(seq, shifted) -> dict[str, PropertyVerdict]:
    return {"lemma2": _verdict("lemma2", lemma2_preserved(shifted),
                               "ratio monotonicity lost after multiplying by (x+1)")}


def _check_lemma3(seq, shifted) -> dict[str, PropertyVerdict]:
    r = lemma3_gap(seq)
    if r.gap >= 0:
        return {"lemma3": _verdict("lemma3", True, "")}
    return {"lemma3": _verdict("lemma3", False, f"gap {render_rational(r.gap)} < 0: "
                               f"lhs {render_rational(r.lhs)}, rhs {render_rational(r.rhs)}")}


def _check_corollary(seq, shifted) -> dict[str, PropertyVerdict]:
    return {"log-concave": check_log_concave(shifted),
            "no-internal-zeros": check_no_internal_zeros(shifted)}


_IMPLICATIONS_HOLD = PropertyVerdict("implications", Status.HOLDS, None, "")


def _check_lattice(seq, shifted) -> dict[str, PropertyVerdict | Status]:
    # Statuses only: run_campaign builds the full verdict of a kept example.
    checked = _lattice_statuses(seq._cleared()[0])
    inconsistent = [name for name, ok in audit_statuses(checked) if not ok]
    checked["implications"] = (
        _verdict("implications", False, f"implication audit inconsistent: {inconsistent}")
        if inconsistent else _IMPLICATIONS_HOLD)
    return checked


class _Target(NamedTuple):
    """One campaign target: draw an input, maybe shift it by the spec's
    ``shift_c`` (1 for every target but corollary), check it.

    ``must_hold`` names the verdicts whose failure is a violation (a finding
    on exploratory runs); a trial of degree below ``min_degree`` is vacuous.
    Each example kind is (kind, property that holds, property that fails),
    both lattice properties whose statuses the check returns; its payload
    quotes the failing verdict under that property's name, with underscores
    for hyphens.
    """

    draw: Callable[[CampaignSpec, int], Polynomial]
    shifts: bool
    check: Callable[..., dict[str, PropertyVerdict | Status]]
    must_hold: tuple[str, ...]
    min_degree: int = 0
    examples: tuple[tuple[str, str, str], ...] = ()


_TARGETS = {
    "theorem1": _Target(_draw_nondecreasing, True, _check_theorem1, ("ratio-monotone",),
                        min_degree=1),
    "lemma1": _Target(_draw_sextuple, False, _check_lemma1, ("lemma1",)),
    "lemma2": _Target(_draw_nondecreasing, True, _check_lemma2, ("lemma2",)),
    "lemma3": _Target(partial(_draw_nondecreasing, positive=True), False, _check_lemma3,
                      ("lemma3",)),
    "corollary": _Target(_draw_nondecreasing, True, _check_corollary,
                         ("log-concave", "no-internal-zeros"), min_degree=2),
    "separation": _Target(_draw_positive, False, _check_lattice, ("implications",), examples=(
        ("log-concave-not-spiral", "log-concave", "spiral"),
        ("spiral-not-log-concave", "spiral", "log-concave"),
    )),
}

TARGETS = tuple(_TARGETS)


@dataclass
class _TrialOutcome:
    trial: int
    exercised: bool
    payload: dict | None = None
    # Example kind -> cleared input; its verdict is built only if the report keeps it.
    examples: dict[str, Polynomial] = field(default_factory=dict)


def _run_trial(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    target = _TARGETS[spec.target]
    seq = target.draw(spec, trial)
    shifted = taylor_shift(seq, spec.shift_c) if target.shifts else None
    out = _TrialOutcome(trial, exercised=seq.degree >= target.min_degree)
    try:
        verdicts = target.check(seq, shifted)
        failed = [verdicts[prop] for prop in target.must_hold if not verdicts[prop].holds]
    except HypothesisError as exc:
        out.exercised = False
        failed = [PropertyVerdict(spec.target, Status.NOT_APPLICABLE, None,
                                  f"generator produced a hypothesis violation: {exc}")]
    if failed:
        # Rendered only for a failing trial: rendering every trial's input
        # and shift costs theorem1 about a fifth of its throughput.
        out.payload = {"trial": trial, "input": _render_seq(seq),
                       "verdicts": [v.to_json_dict() for v in failed]}
        if shifted is not None:
            out.payload["shift_c"] = render_rational(spec.shift_c)
            out.payload["shifted"] = _render_seq(shifted)
        return out
    for kind, holds, fails in target.examples:
        if verdicts[holds] is Status.HOLDS and verdicts[fails] is Status.FAILS:
            out.examples[kind] = seq
    return out


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> CampaignReport:
    """Run all trials and assemble the report in trial-index order.

    ``jobs`` > 1 distributes trials over a process pool of at most ``jobs``
    workers, and no more than there are trials or CPUs; because each trial
    derives its randomness from (seed, trial) alone and results are
    assembled in trial order, the report does not depend on ``jobs``.
    """
    _require("jobs", jobs)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    trials = range(spec.trials)
    # The pool starts all its workers on the first submit, needed or not.
    workers = min(jobs, spec.trials)
    if workers > 1:  # only then is the CPU count worth asking for
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, spec.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_run_trial, spec), trials, chunksize=chunk))
    else:
        outcomes = [_run_trial(spec, t) for t in trials]

    payloads = [o.payload for o in outcomes if o.payload is not None]
    coverage = {"non_vacuous_trials": sum(1 for o in outcomes if o.exercised)}
    examples_found: dict[str, dict | None] = {}
    for kind, _, fails in _TARGETS[spec.target].examples:
        hits = [o for o in outcomes if kind in o.examples]
        coverage[kind] = len(hits)
        examples_found[kind] = None
        if hits:
            seq = hits[0].examples[kind]
            verdict = lattice_verdicts(seq)[fails]
            examples_found[kind] = {"trial": hits[0].trial, "sequence": _render_seq(seq),
                                    fails.replace("-", "_"): verdict.to_json_dict()}
    return CampaignReport(
        spec=spec,
        trials_run=spec.trials,
        coverage=coverage,
        violations=[] if spec.exploratory else payloads,
        findings=payloads if spec.exploratory else [],
        examples_found=examples_found,
        wall_time=time.perf_counter() - start,
    )
