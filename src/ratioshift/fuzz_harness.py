"""Seeded randomized campaigns over the exact contracts.

Campaign targets:

* ``theorem1``: shift a random nonnegative nondecreasing sequence by one,
  the result must be ratio monotone;
* ``lemma1``: random positive sextuples built to satisfy a/b <= c/d <= e/f,
  the mediant conclusion must hold;
* ``lemma2``: random ratio-monotone polynomials (produced as 1-shifts of
  nondecreasing sequences), multiplying by (x + 1) must preserve the
  property;
* ``lemma3``: random positive nondecreasing sequences, the gap must be
  nonnegative;
* ``corollary``: shift by a rational c >= 1, the result must be log-concave
  with no internal zeros (c < 1 runs are exploratory: failures are reported
  as findings, not violations);
* ``separation``: random positive sequences, searching for a log-concave
  sequence that is not spiral and a spiral sequence that is not log-concave,
  while auditing the implication lattice on every input.

Determinism: all per-trial randomness derives from sha256(seed, trial,
label), so a report is identical regardless of execution parallelism, and
every violation reproduces from (seed, trial index) alone. Nondecreasing
inputs are generated by sorting i.i.d. draws (unbiased over multisets);
entries are rationals with numerator and denominator bounded by
``magnitude_bound``, or integers in integer-only mode.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .numeric_core import DomainError, as_rational, clear_denominators, render_rational
from .poly_ops import Polynomial, taylor_shift
from .shape_props import (
    Status,
    audit_implications,
    check_log_concave,
    check_no_internal_zeros,
    check_ratio_monotone,
    check_spiral,
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

TARGETS = ("theorem1", "lemma1", "lemma2", "lemma3", "corollary", "separation")

_SEPARATION_KINDS = ("log-concave-not-spiral", "spiral-not-log-concave")


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
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        lo, hi = self.degree_range
        if not 0 <= lo <= hi:
            raise DomainError(f"invalid degree range {self.degree_range}")
        if self.target == "lemma3" and lo < 2:
            raise DomainError("lemma3 campaigns need degree >= 2 (the gap references a_{m-2})")
        if self.magnitude_bound < 1:
            raise DomainError(f"magnitude bound must be >= 1, got {self.magnitude_bound}")
        object.__setattr__(self, "shift_c", as_rational(self.shift_c))
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


def _draw(rng: random.Random, low_num: int, bound: int, integer_only: bool) -> Fraction:
    num = rng.randint(low_num, bound)
    den = 1 if integer_only else rng.randint(1, bound)
    return Fraction(num, den)


def gen_nondecreasing_seq(seed: int, trial: int, degree: int, bound: int,
                          *, integer_only: bool = False,
                          positive: bool = False) -> tuple[Fraction, ...]:
    """Deterministic nonnegative nondecreasing sequence with a_m > 0.

    Sorted i.i.d. draws; numerators in [0, bound] (or [1, bound] when
    ``positive``), denominators in [1, bound]. If the maximum lands on zero
    the whole sequence is zero, so the last entry is re-drawn positive.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    rng = _trial_rng(seed, trial, "seq")
    low = 1 if positive else 0
    draws = [_draw(rng, low, bound, integer_only) for _ in range(degree + 1)]
    # Sorting integer keys is faster than comparing Fractions; equal keys are
    # equal Fractions, so the order is the same.
    keys, _ = clear_denominators(draws)
    draws = [draws[i] for i in sorted(range(len(draws)), key=keys.__getitem__)]
    if draws[-1] == 0:
        draws[-1] = _draw(rng, 1, bound, integer_only)
    return tuple(draws)


def _gen_positive_seq(seed: int, trial: int, degree: int, bound: int,
                      integer_only: bool) -> tuple[Fraction, ...]:
    """Unsorted i.i.d. positive draws, for the separation search."""
    rng = _trial_rng(seed, trial, "positive-seq")
    return tuple([_draw(rng, 1, bound, integer_only) for _ in range(degree + 1)])


def _pick_degree(spec: CampaignSpec, trial: int) -> int:
    lo, hi = spec.degree_range
    return _trial_rng(spec.seed, trial, "degree").randint(lo, hi)


def _render_seq(seq: tuple[Fraction, ...]) -> list[str]:
    return [render_rational(v) for v in seq]


@dataclass
class _TrialOutcome:
    trial: int
    exercised: bool = False
    violation: dict | None = None
    finding: dict | None = None
    examples: dict[str, dict] = field(default_factory=dict)


def _trial_theorem1(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    degree = _pick_degree(spec, trial)
    seq = gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound,
                                integer_only=spec.integer_only)
    shifted = taylor_shift(Polynomial(seq), 1)
    verdict = check_ratio_monotone(shifted.coeffs)
    out = _TrialOutcome(trial, exercised=degree >= 1)
    if not verdict.holds:
        out.violation = {
            "trial": trial,
            "input": _render_seq(seq),
            "shifted": _render_seq(shifted.coeffs),
            "verdict": verdict.to_json_dict(),
        }
    return out


def _trial_lemma1(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    rng = _trial_rng(spec.seed, trial, "lemma1")
    bound = spec.magnitude_bound
    b, d, f = (_draw(rng, 1, bound, spec.integer_only) for _ in range(3))
    r1, r2, r3 = sorted(_draw(rng, 1, bound, spec.integer_only) for _ in range(3))
    a, c, e = r1 * b, r2 * d, r3 * f
    sextuple = (a, b, c, d, e, f)
    out = _TrialOutcome(trial)
    try:
        conclusion = lemma1_holds(*sextuple)
    except HypothesisError as exc:
        out.violation = {
            "trial": trial,
            "input": _render_seq(sextuple),
            "detail": f"generator produced a hypothesis violation: {exc}",
        }
        return out
    out.exercised = True
    if not conclusion:
        out.violation = {
            "trial": trial,
            "input": _render_seq(sextuple),
            "detail": "mediant conclusion (a+c)/(b+d) <= (e+c)/(f+d) is false",
        }
    return out


def _trial_lemma2(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    degree = _pick_degree(spec, trial)
    base = gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound,
                                 integer_only=spec.integer_only)
    shifted = taylor_shift(Polynomial(base), 1)
    out = _TrialOutcome(trial)
    try:
        preserved = lemma2_preserved(shifted)
    except HypothesisError:
        out.violation = {
            "trial": trial,
            "input": _render_seq(shifted.coeffs),
            "detail": "1-shift of a nondecreasing sequence is not ratio monotone",
            "base": _render_seq(base),
        }
        return out
    out.exercised = True
    if not preserved:
        out.violation = {
            "trial": trial,
            "input": _render_seq(shifted.coeffs),
            "detail": "ratio monotonicity lost after multiplying by (x+1)",
            "base": _render_seq(base),
        }
    return out


def _trial_lemma3(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    degree = _pick_degree(spec, trial)
    seq = gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound,
                                integer_only=spec.integer_only, positive=True)
    report = lemma3_gap(seq)
    out = _TrialOutcome(trial, exercised=True)
    if report.gap < 0:
        out.violation = {
            "trial": trial,
            "input": _render_seq(seq),
            "lhs": render_rational(report.lhs),
            "rhs": render_rational(report.rhs),
            "gap": render_rational(report.gap),
        }
    return out


def _trial_corollary(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    degree = _pick_degree(spec, trial)
    seq = gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound,
                                integer_only=spec.integer_only)
    shifted = taylor_shift(Polynomial(seq), spec.shift_c)
    verdicts = (check_log_concave(shifted.coeffs),
                check_no_internal_zeros(shifted.coeffs))
    failed = [v.to_json_dict() for v in verdicts if not v.holds]
    out = _TrialOutcome(trial, exercised=degree >= 2)
    if failed:
        payload = {
            "trial": trial,
            "input": _render_seq(seq),
            "shift_c": render_rational(spec.shift_c),
            "shifted": _render_seq(shifted.coeffs),
            "verdicts": failed,
        }
        if spec.exploratory:
            out.finding = payload
        else:
            out.violation = payload
    return out


def _trial_separation(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    degree = _pick_degree(spec, trial)
    seq = _gen_positive_seq(spec.seed, trial, degree, spec.magnitude_bound,
                            spec.integer_only)
    out = _TrialOutcome(trial, exercised=True)
    inconsistent = [name for name, ok in audit_implications(seq) if not ok]
    if inconsistent:
        out.violation = {
            "trial": trial,
            "input": _render_seq(seq),
            "detail": f"implication audit inconsistent: {inconsistent}",
        }
        return out
    lc = check_log_concave(seq)
    sp = check_spiral(seq)
    if lc.status is Status.HOLDS and sp.status is Status.FAILS:
        out.examples["log-concave-not-spiral"] = {
            "trial": trial,
            "sequence": _render_seq(seq),
            "spiral": sp.to_json_dict(),
        }
    if sp.status is Status.HOLDS and lc.status is Status.FAILS:
        out.examples["spiral-not-log-concave"] = {
            "trial": trial,
            "sequence": _render_seq(seq),
            "log_concave": lc.to_json_dict(),
        }
    return out


_TRIAL_RUNNERS = {
    "theorem1": _trial_theorem1,
    "lemma1": _trial_lemma1,
    "lemma2": _trial_lemma2,
    "lemma3": _trial_lemma3,
    "corollary": _trial_corollary,
    "separation": _trial_separation,
}


def _run_trial(spec: CampaignSpec, trial: int) -> _TrialOutcome:
    return _TRIAL_RUNNERS[spec.target](spec, trial)


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> CampaignReport:
    """Run all trials and assemble the report in trial-index order.

    ``jobs`` > 1 distributes trials over a process pool; because each trial
    derives its randomness from (seed, trial) alone and results are
    assembled in trial order, the report does not depend on ``jobs``.
    """
    start = time.perf_counter()
    trials = range(spec.trials)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, spec.trials // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(partial(_run_trial, spec), trials, chunksize=chunk))
    else:
        outcomes = [_run_trial(spec, t) for t in trials]

    violations = [o.violation for o in outcomes if o.violation is not None]
    findings = [o.finding for o in outcomes if o.finding is not None]
    coverage = {"non_vacuous_trials": sum(1 for o in outcomes if o.exercised)}
    examples_found: dict[str, dict | None] = {}
    if spec.target == "separation":
        examples_found = {kind: None for kind in _SEPARATION_KINDS}
        for kind in _SEPARATION_KINDS:
            coverage[kind] = 0
        for outcome in outcomes:
            for kind, payload in outcome.examples.items():
                coverage[kind] += 1
                if examples_found[kind] is None:
                    examples_found[kind] = payload
    return CampaignReport(
        spec=spec,
        trials_run=spec.trials,
        coverage=coverage,
        violations=violations,
        findings=findings,
        examples_found=examples_found,
        wall_time=time.perf_counter() - start,
    )
