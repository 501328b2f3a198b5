"""Which calls into ratioshift's layers the traced run wraps, and the
per-layer metrics it derives from the spans.

Layers are module names. Each function is wrapped at the module whose code
looks it up, so ``run_campaign``, ``bm_polynomial`` and ``verify_identity``
run exactly as they do untraced.
"""

from __future__ import annotations

import math
from collections import defaultdict

from ratioshift import boros_moll, fuzz_harness, poly_ops, quartic_integral, shape_props

from spans import Tracer

_CHECKERS = {
    "check_ratio_monotone": "shape_props.ratio_monotone",
    "check_log_concave": "shape_props.log_concave",
    "check_spiral": "shape_props.spiral",
}

WRAPS = (
    (fuzz_harness, "run_campaign", "fuzz_harness.run_campaign"),
    (fuzz_harness, "gen_nondecreasing_seq", "fuzz_harness.gen"),
    (fuzz_harness, "_gen_positive_seq", "fuzz_harness.gen"),
    (fuzz_harness, "Polynomial", "poly_ops.construct"),
    (fuzz_harness, "taylor_shift", "poly_ops.shift"),
    *((fuzz_harness, attr, name) for attr, name in _CHECKERS.items()),
    (fuzz_harness, "audit_implications", "shape_props.audit"),
    # audit_implications and the boros_moll op look the checkers up here.
    *((shape_props, attr, name) for attr, name in _CHECKERS.items()),
    (shape_props, "check_unimodal", "shape_props.unimodal"),
    (boros_moll, "bm_polynomial", "boros_moll.polynomial"),
    (boros_moll, "bm_shifted_seq", "boros_moll.shifted_seq"),
    (boros_moll, "Polynomial", "poly_ops.construct"),
    (boros_moll, "taylor_shift", "poly_ops.shift"),
    (quartic_integral, "verify_identity", "quartic_integral.verify"),
    (quartic_integral, "quadrature_lhs", "quartic_integral.quadrature"),
    (quartic_integral, "closed_form_rhs", "quartic_integral.closed_form"),
    (quartic_integral, "bm_polynomial", "boros_moll.polynomial"),
)

DEGREE_BUCKETS = (("deg_0_64", 0, 64), ("deg_65_256", 65, 256), ("deg_257_up", 257, math.inf))
CHECKERS = ("ratio_monotone", "log_concave", "spiral", "unimodal", "audit")
INTEGRAL_FAILURES = ("OverflowError", "ZeroDivisionError", "QuadratureError",
                     "tolerance_miss", "other")


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def layer_metrics(tracer: Tracer, factors: list[float]) -> tuple[dict[str, tuple[float, str]], int]:
    """Per-layer metrics as name -> (value, unit), and the number of shifts
    whose output differs from the naive binomial oracle.

    Times are calibrated with the factor of the call each span belongs to.
    """
    spans = tracer.spans
    own = [t * factors[s.op] for t, s in zip(tracer.self_times(), spans)]
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s.name].append(i)
    out: dict[str, tuple[float, str]] = {}

    def calls_busy(prefix: str, name: str, *, self_s: bool = False) -> None:
        out[f"{prefix}.calls"] = (len(named[name]), "count")
        out[f"{prefix}.busy_s"] = (sum(duration(spans[i]) for i in named[name]), "s")
        if self_s:
            out[f"{prefix}.self_s"] = (sum(own[i] for i in named[name]), "s")

    def duration(span) -> float:
        return span.duration * factors[span.op]

    def us_per_call(group: list) -> float:
        return 1e6 * sum(map(duration, group)) / len(group) if group else 0.0

    shifts = [spans[i] for i in named["poly_ops.shift"]]
    calls_busy("poly_ops.shift", "poly_ops.shift")
    out["poly_ops.shift.us_per_call"] = (us_per_call(shifts), "us")
    for label, lo, hi in DEGREE_BUCKETS:
        group = [s for s in shifts if lo <= len(s.args[0].coeffs) - 1 <= hi]
        out[f"poly_ops.shift.us_per_call.{label}"] = (us_per_call(group), "us")
    done = [s for s in shifts if s.error is None]
    out["poly_ops.shift.inner_steps"] = (
        sum(len(s.args[0].coeffs) * (len(s.args[0].coeffs) - 1) // 2 for s in shifts), "count")
    out["poly_ops.shift.out_bits_max"] = (
        max((_bits(c) for s in done for c in s.result.coeffs), default=0), "bits")
    mismatches = sum(
        poly_ops.taylor_shift(s.args[0], s.args[1], poly_ops.ShiftAlgorithm.NAIVE_BINOMIAL).coeffs
        != s.result.coeffs for s in done)
    out["poly_ops.shift.oracle_mismatches"] = (mismatches, "count")
    calls_busy("poly_ops.construct", "poly_ops.construct")

    for checker in CHECKERS:
        name = f"shape_props.{checker}"
        calls_busy(name, name)
        results = [spans[i].result for i in named[name] if spans[i].error is None]
        if checker == "audit":
            fails = sum(not all(ok for _, ok in r) for r in results)
            na = 0
        else:
            fails = sum(r.status is shape_props.Status.FAILS for r in results)
            na = sum(r.status is shape_props.Status.NOT_APPLICABLE for r in results)
        out[f"{name}.fails"] = (fails, "count")
        out[f"{name}.na"] = (na, "count")

    calls_busy("fuzz_harness.gen", "fuzz_harness.gen")
    out["fuzz_harness.self_s"] = (sum(own[i] for i in named["fuzz_harness.run_campaign"]), "s")
    reports = [spans[i].result for i in named["fuzz_harness.run_campaign"]
               if spans[i].error is None]
    trials = sum(r.trials_run for r in reports)
    exercised = sum(r.coverage.get("non_vacuous_trials", 0) for r in reports)
    out["fuzz_harness.non_vacuous_frac"] = (exercised / trials if trials else 0.0, "ratio")

    calls_busy("boros_moll.shifted_seq", "boros_moll.shifted_seq", self_s=True)
    calls_busy("boros_moll.polynomial", "boros_moll.polynomial", self_s=True)

    calls_busy("quartic_integral.quadrature", "quartic_integral.quadrature")
    calls_busy("quartic_integral.closed_form", "quartic_integral.closed_form")
    verifies = [spans[i] for i in named["quartic_integral.verify"]]
    failed = dict.fromkeys(INTEGRAL_FAILURES, 0)
    for s in verifies:
        label = s.error if s.error else None if s.result.passed else "tolerance_miss"
        if label is not None:
            failed[label if label in failed else "other"] += 1
    for label, count in failed.items():
        out[f"quartic_integral.failed.{label}"] = (count, "count")
    out["quartic_integral.rel_err_max"] = (
        max((s.result.rel_err for s in verifies if s.error is None), default=0.0), "ratio")

    out["trace.missing_spans"] = (len(tracer.missing), "count")
    return out, mismatches
