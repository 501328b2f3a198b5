import hashlib
import io
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from draw_reference import (
    reference_degree,
    reference_draws,
    reference_nondecreasing,
    reference_ratios,
)

import ratioshift
from ratioshift import fuzz_harness, poly_ops
from ratioshift.cli import main as cli_main
from ratioshift.fuzz_harness import (
    TARGETS,
    CampaignSpec,
    gen_nondecreasing_seq,
    run_campaign,
)
from ratioshift.numeric_core import DomainError
from ratioshift.poly_ops import Polynomial, ShiftAlgorithm, taylor_shift
from ratioshift.shape_props import (
    PropertyVerdict,
    Status,
    Witness,
    _LazyTable,
    audit_statuses,
    check_log_concave,
    check_spiral,
)
from ratioshift.theorem_engine import HypothesisError, Lemma3Report


def report_json(spec, jobs=1):
    d = run_campaign(spec, jobs=jobs).to_json_dict()
    d.pop("wall_time")
    return json.dumps(d, sort_keys=True)


# --- generators ---

def test_gen_nondecreasing_seq_shape():
    seq = gen_nondecreasing_seq(11, 0, 6, 100)
    assert len(seq) == 7
    assert all(seq[i] <= seq[i + 1] for i in range(6))
    assert all(v >= 0 for v in seq)
    assert seq[-1] > 0


def test_gen_nondecreasing_seq_deterministic():
    assert gen_nondecreasing_seq(5, 17, 4, 50) == gen_nondecreasing_seq(5, 17, 4, 50)
    assert gen_nondecreasing_seq(5, 17, 4, 50) != gen_nondecreasing_seq(5, 18, 4, 50)
    assert gen_nondecreasing_seq(5, 17, 4, 50) != gen_nondecreasing_seq(6, 17, 4, 50)


def test_gen_nondecreasing_seq_integer_only():
    seq = gen_nondecreasing_seq(3, 2, 8, 40, integer_only=True)
    assert all(v.denominator == 1 for v in seq)


def test_gen_nondecreasing_seq_positive_flag():
    for trial in range(30):
        seq = gen_nondecreasing_seq(9, trial, 5, 12, positive=True)
        assert all(v > 0 for v in seq)


def test_gen_nondecreasing_seq_guards():
    with pytest.raises(DomainError):
        gen_nondecreasing_seq(1, 0, -1, 10)
    with pytest.raises(DomainError):
        gen_nondecreasing_seq(1, 0, 3, 0)
    with pytest.raises(DomainError):
        gen_nondecreasing_seq(1, 0, 3, 10.0)
    with pytest.raises(DomainError):
        gen_nondecreasing_seq(1, 0, 3.0, 10)
    # A float or text seed would draw silently, the float another sequence.
    for seed, trial in ((1.0, 0), ("1", 0), (True, 0), (1, 0.0), (1, "0")):
        with pytest.raises(DomainError, match="seed|trial"):
            gen_nondecreasing_seq(seed, trial, 3, 10)
    # Text or ints as flags would draw as their truth value, silently.
    for flag, value in (("integer_only", "no"), ("integer_only", 1), ("integer_only", None),
                        ("positive", 0), ("positive", None), ("positive", "yes")):
        with pytest.raises(DomainError, match=f"{flag} must be bool"):
            gen_nondecreasing_seq(1, 0, 3, 10, **{flag: value})


# --- the draw primitive ---
# Every drawn value comes from _draw_run, a run of values in one range, so
# every pinned report depends on it running randint's rule on the label's
# stream; the reference rebuilds that stream from hashlib and a string of
# its bits.

# The last four read k = 256, 256, 257 and 301 bits a draw: one whole digest, and more.
_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32,
           2 ** 32 + 1, 2 ** 33, 2 ** 64 + 1, 10 ** 6, 10 ** 18,
           2 ** 255, 2 ** 256 - 1, 2 ** 256, 2 ** 300 + 7]


@pytest.mark.parametrize("width", _WIDTHS)
@pytest.mark.parametrize("low", [0, 1, -5])
def test_randints_is_randint_stream(width, low):
    high = low + width - 1
    for seed in range(200):
        label = f"{seed}:{seed % 7}:seq"
        expected = reference_draws(label, [(low, high)] * 7)
        assert fuzz_harness._draw_run(label, low, high, 7) == expected


@pytest.mark.parametrize("low", [0, 1])
@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 100, 127, 128, 10 ** 6, 10 ** 18])
def test_randints_interleaves_numerator_and_denominator_ranges(low, bound):
    # Numerators in [low, bound], denominators in [1, bound]. At low 1 the
    # two ranges are one, so a single run read in pairs is the read of each
    # numerator's range, then its denominator's: separation and lemma1 draw
    # so. At low 0 the ranges differ (in k too at bounds 1, 3, 7 and 127),
    # so a nondecreasing draw reads its numerators on "seq" and the rest on
    # "seq-den", and each ratio pairs numerator i with denominator i.
    for seed in range(200):
        label = f"{seed}:0:positive-seq"
        if low == 1:
            expected = reference_draws(label, [(low, bound), (1, bound)] * 9)
            assert fuzz_harness._draw_run(label, 1, bound, 18) == expected
            assert fuzz_harness._gen_positive_seq(seed, 0, 8, bound, False).coeffs == tuple(
                map(Fraction, expected[::2], expected[1::2]))
        drawn = fuzz_harness._gen_nondecreasing(seed, 0, 8, bound, False, low == 1)
        nums = reference_draws(f"{seed}:0:seq", [(low, bound)] * 9)
        dens = reference_draws(f"{seed}:0:seq-den", [(1, bound)] * 11)
        ratios = sorted(map(Fraction, nums, dens))
        if ratios[-1] == 0:
            ratios[-1] = Fraction(*dens[-2:])
        assert drawn.coeffs == tuple(ratios)


# A clean campaign's report hashes only its spec, degree-driven counts and the
# largest bit lengths, so the pins do not guard every drawn value. These
# rebuild each input from the reference, as the draws are documented.

@pytest.mark.parametrize("integer_only", [False, True])
@pytest.mark.parametrize("positive", [False, True])
# At 127 a numerator in [0, b] reads one bit more than one or a denominator in
# [1, b]; at 128 all read eight.
@pytest.mark.parametrize("bound", [1, 2, 3, 100, 127, 128, 10 ** 6])
def test_gen_nondecreasing_seq_matches_randint_reference(bound, positive, integer_only):
    for trial in range(150):
        degree = trial % 9
        expected = reference_nondecreasing(13, trial, degree, bound, positive, integer_only)
        assert gen_nondecreasing_seq(13, trial, degree, bound, integer_only=integer_only,
                                     positive=positive) == tuple(expected)


@pytest.mark.parametrize("integer_only", [False, True])
@pytest.mark.parametrize("positive", [False, True])
# 360 = 2^3 3^2 5: many draws share small factors with their denominators.
@pytest.mark.parametrize("bound", [1, 2, 3, 100, 360, 10 ** 6])
def test_nondecreasing_draw_is_cleared_as_its_fractions(bound, positive, integer_only):
    # The draw is built cleared, without Fractions, each ratio reduced on its
    # own and no gcd over the row; its (ints, den) must be the lowest-terms
    # form that clearing the reference Fractions gives. Degrees 0..8 come
    # often (all-zero draws and their redraw at bounds 1 and 2), then every
    # degree up to 64, as theorem1 campaigns draw.
    degrees = [trial % 9 for trial in range(150)] + list(range(9, 65))
    for trial, degree in enumerate(degrees):
        draws = reference_nondecreasing(13, trial, degree, bound, positive, integer_only)
        ints, den = poly_ops.clear_denominators(draws)
        drawn = fuzz_harness._gen_nondecreasing(13, trial, degree, bound, integer_only, positive)
        assert drawn._cleared() == (tuple(ints), den)


@pytest.mark.parametrize("integer_only", [False, True])
@pytest.mark.parametrize("bound", [1, 3, 100, 10 ** 6])
def test_positive_and_lemma1_draws_match_randint_reference(bound, integer_only):
    for trial in range(150):
        expected = reference_ratios(f"13:{trial}:positive-seq", [1] * (trial % 9 + 1), bound,
                                    integer_only)
        drawn = fuzz_harness._gen_positive_seq(13, trial, trial % 9, bound, integer_only)
        assert list(drawn.coeffs) == expected
        b, d, f, *ratios = reference_ratios(f"13:{trial}:lemma1", [1] * 6, bound, integer_only)
        r1, r2, r3 = sorted(ratios)
        assert fuzz_harness._draw_sextuple(13, trial, (2, 16), bound, integer_only).coeffs == (
            r1 * b, b, r2 * d, d, r3 * f, f)


# --- the degree draw ---
# The degree takes randint's rule straight from the trial digest's bits; the
# reference rebuilds it from hashlib and a string of those bits.

@pytest.mark.parametrize("degree_range, trials", [
    ((0, 0), 2000), ((0, 2), 2000), ((0, 3), 2000), ((2, 6), 2000), ((2, 64), 2000),
    ((0, 2 ** 300), 300),
])
def test_degree_draw_matches_reference(degree_range, trials):
    for seed in (0, 13, 2024):
        # A range of 2**300 degrees is drawn, never run.
        for trial in range(trials):
            assert fuzz_harness._pick_degree(seed, trial, degree_range) == reference_degree(
                seed, trial, *degree_range)


@pytest.mark.parametrize("degree_range, critical", [
    ((2, 6), 18.47),  # chi-square, 4 degrees of freedom, p = 0.001
    ((0, 2), 13.82),  # 2 degrees of freedom
])
def test_degree_draw_is_uniform(degree_range, critical):
    counts = Counter(fuzz_harness._pick_degree(2024, trial, degree_range)
                     for trial in range(30_000))
    low, high = degree_range
    assert set(counts) == set(range(low, high + 1))
    expected = 30_000 / len(counts)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < critical


def test_campaigns_draw_without_randint(monkeypatch):
    # Every value comes from the trial's sha256 stream: no campaign of any
    # target constructs a random.Random or draws through randint.
    def refuse(self, *args):
        raise AssertionError("a campaign used random.Random")

    monkeypatch.setattr(random.Random, "__init__", refuse)
    monkeypatch.setattr(random.Random, "randint", refuse)
    for target in TARGETS:
        for integer_only in (False, True):
            spec = CampaignSpec(target=target, trials=200, seed=8, integer_only=integer_only)
            report = run_campaign(spec)
            assert report.trials_run == 200
            assert report.violations == []


_VALUE_LABELS = {"theorem1": ("seq", "seq-den"), "lemma2": ("seq", "seq-den"),
                 "lemma3": ("seq", "seq-den"), "corollary": ("seq", "seq-den"),
                 "lemma1": ("lemma1",), "separation": ("positive-seq",)}


@pytest.mark.parametrize("target", TARGETS)
def test_each_trial_seeds_one_generator(monkeypatch, target):
    # A trial draws only from the sha256 streams keyed "{seed}:{trial}": its
    # values come from one run per label, in the order of its labels (the
    # degree, where drawn, from its own), and no trial constructs a
    # random.Random.
    calls = []
    draw_run = fuzz_harness._draw_run
    monkeypatch.setattr(fuzz_harness, "_draw_run",
                        lambda label, *run: calls.append(label) or draw_run(label, *run))
    monkeypatch.setattr(random.Random, "__init__",
                        lambda self, *args: pytest.fail("a trial constructed a random.Random"))
    report = run_campaign(CampaignSpec(target=target, trials=200, seed=8))
    assert report.violations == []
    values = [label for label in calls if not label.endswith(":degree")]
    assert values == [f"8:{trial}:{name}" for trial in range(200)
                      for name in _VALUE_LABELS[target]]
    degrees = [label for label in calls if label.endswith(":degree")]
    assert degrees in ([], [f"8:{trial}:degree" for trial in range(200)])


# --- campaign spec validation ---

def test_spec_rejects_unknown_target():
    with pytest.raises(DomainError):
        CampaignSpec(target="nonsense", trials=10, seed=1)


def test_spec_rejects_bad_parameters():
    with pytest.raises(DomainError):
        CampaignSpec(target="lemma1", trials=0, seed=1)
    with pytest.raises(DomainError):
        CampaignSpec(target="lemma1", trials=10, seed=1, degree_range=(5, 3))
    with pytest.raises(DomainError):
        CampaignSpec(target="lemma3", trials=10, seed=1, degree_range=(1, 5))
    with pytest.raises(DomainError):
        CampaignSpec(target="lemma1", trials=10, seed=1, magnitude_bound=0)


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials", 10.0), ("trials", True), ("trials", "10"),
    ("seed", 1.0), ("seed", None), ("magnitude_bound", 100.0), ("magnitude_bound", "9"),
    ("degree_range", (2.0, 5.0)), ("degree_range", (2, 5.0)), ("degree_range", (2, 5, 7)),
    ("degree_range", (3,)), ("degree_range", 4), ("degree_range", None),
    ("integer_only", "no"), ("integer_only", 1), ("allow_c_below_one", 0),
])
def test_spec_rejects_mistyped_parameters(field, value):
    with pytest.raises(DomainError):
        CampaignSpec(**{"target": "theorem1", "trials": 10, "seed": 1, field: value})


def test_spec_corollary_small_shift_needs_flag():
    with pytest.raises(DomainError):
        CampaignSpec(target="corollary", trials=10, seed=1, shift_c=Fraction(1, 2))
    spec = CampaignSpec(target="corollary", trials=10, seed=1,
                        shift_c=Fraction(1, 2), allow_c_below_one=True)
    assert spec.exploratory


@pytest.mark.parametrize("target", [t for t in TARGETS if t != "corollary"])
@pytest.mark.parametrize("fields", [{"shift_c": Fraction(3, 2)}, {"shift_c": 2},
                                    {"shift_c": Fraction(1, 2), "allow_c_below_one": True},
                                    {"allow_c_below_one": True}])
def test_spec_refuses_shift_fields_outside_corollary(target, fields):
    # Only corollary trials shift by the spec's c; any other target would
    # report a c it never used.
    with pytest.raises(DomainError, match="corollary"):
        CampaignSpec(target=target, trials=10, seed=1, degree_range=(2, 4), **fields)
    assert CampaignSpec(target=target, trials=10, seed=1, degree_range=(2, 4),
                        shift_c=Fraction(1)).shift_c == 1


def test_spec_rejects_float_shift():
    with pytest.raises(TypeError):
        CampaignSpec(target="corollary", trials=10, seed=1, shift_c=1.5)


def test_spec_stores_degree_range_as_a_pair():
    # A list would compare unequal to the tuple spec and make hash() raise.
    listed = CampaignSpec(target="theorem1", trials=10, seed=1, degree_range=[2, 5])
    paired = CampaignSpec(target="theorem1", trials=10, seed=1, degree_range=(2, 5))
    assert listed.degree_range == (2, 5)
    assert listed == paired and hash(listed) == hash(paired)
    assert report_json(listed) == report_json(paired)


def test_spec_json_has_no_parallelism_field():
    # Worker count must not be part of campaign identity, or parallel runs
    # could legitimately report differently.
    d = CampaignSpec(target="lemma1", trials=10, seed=1).to_json_dict()
    assert "jobs" not in d
    assert d["shift_c"] == "1"


def test_targets_tuple():
    assert TARGETS == ("theorem1", "lemma1", "lemma2", "lemma3", "corollary",
                       "separation")


# --- campaign runs ---

@pytest.mark.parametrize("target", ["theorem1", "lemma1", "lemma2", "lemma3",
                                    "corollary"])
def test_small_campaigns_find_no_violations(target):
    spec = CampaignSpec(target=target, trials=120, seed=8)
    report = run_campaign(spec)
    assert report.trials_run == 120
    assert report.violations == []
    assert report.coverage["non_vacuous_trials"] == 120


def test_separation_campaign_finds_and_counts_examples():
    # About 1 in 294 trials at degrees 2..6 finds a spiral sequence that is
    # not log-concave; 3,000 trials expect about 10.
    spec = CampaignSpec(target="separation", trials=3_000, seed=7,
                        degree_range=(2, 6))
    report = run_campaign(spec)
    assert report.violations == []
    counts = report.coverage
    assert counts["log-concave-not-spiral"] > 0
    assert counts["spiral-not-log-concave"] > 0
    # Re-verify the recorded examples with fresh checker calls.
    lc = report.examples_found["log-concave-not-spiral"]
    seq = tuple(Fraction(v) for v in lc["sequence"])
    assert check_log_concave(seq).holds
    assert not check_spiral(seq).holds
    sp = report.examples_found["spiral-not-log-concave"]
    seq = tuple(Fraction(v) for v in sp["sequence"])
    assert check_spiral(seq).holds
    assert not check_log_concave(seq).holds


@pytest.mark.parametrize("target, per_trial", [
    ("theorem1", 1), ("lemma1", 1), ("lemma2", 0), ("lemma3", 0), ("corollary", 0),
    ("separation", 0),
])
def test_no_trial_clears_the_same_coefficients_twice(monkeypatch, target, per_trial):
    # Only lemma1's draw is cleared from Fractions; every other draw is built
    # cleared. Checks and predicates take a draw, and its shift, as they are;
    # theorem1 alone re-clears its shift through coeffs.
    # Separation finds a spiral sequence that is not log-concave in about 1
    # of 800 trials at degrees 2..16, so it runs enough trials (about 12
    # expected) to keep both kinds.
    trials = 10_000 if target == "separation" else 200
    calls = []
    clear = poly_ops.clear_denominators
    monkeypatch.setattr(poly_ops, "clear_denominators",
                        lambda values: calls.append(values) or clear(values))
    report = run_campaign(CampaignSpec(target=target, trials=trials, seed=8))
    assert report.violations == []
    assert len(calls) == trials * per_trial
    if target == "separation":  # its kept examples' verdicts clear nothing either
        assert all(report.examples_found.values())


def test_separation_trial_builds_no_bookkeeping(monkeypatch):
    # A clean separation trial builds no verdict through the harness and
    # runs no audit: it reads its row of a fresh table, where each status
    # key is audited on its first use alone. Unless it keeps an example, it
    # builds no examples dict. The kept examples' verdicts come from
    # shape_props._verdict, not the harness name.
    verdicts, outcomes, audited = [], [], []
    build, run_trial, audit = (fuzz_harness.PropertyVerdict, fuzz_harness._run_trial,
                               fuzz_harness.audit_statuses)

    def record(spec, trial):
        outcomes.append(run_trial(spec, trial))
        return outcomes[-1]

    monkeypatch.setattr(fuzz_harness, "PropertyVerdict",
                        lambda *args: verdicts.append(args) or build(*args))
    monkeypatch.setattr(fuzz_harness, "_run_trial", record)
    monkeypatch.setattr(fuzz_harness, "audit_statuses",
                        lambda statuses: audited.append(tuple(statuses.values()))
                        or audit(statuses))
    monkeypatch.setattr(fuzz_harness, "_LATTICE_ROWS", _LazyTable(fuzz_harness._lattice_row))
    report = run_campaign(CampaignSpec(target="separation", trials=2_000, seed=8,
                                       degree_range=(2, 6)))
    assert report.violations == []
    assert verdicts == []
    assert 1 < len(audited) == len(set(audited)) == len(fuzz_harness._LATTICE_ROWS)
    assert len(outcomes) == 2_000
    kept = [o[6] for o in outcomes if o[6] is not None]
    assert all(kinds for kinds, _, _ in kept)  # kinds only where an example was kept
    assert sum(len(kinds) for kinds, _, _ in kept) == sum(
        report.coverage[kind] for kind in report.examples_found)
    assert all(report.examples_found.values())
    # Each outcome is the clean trial's plain tuple, its degree and bit
    # lengths read off the rebuilt draw, and a kept example is that draw's
    # own ints and denominator.
    spec = report.spec
    for trial, outcome in enumerate(outcomes):
        seq = fuzz_harness._draw_positive(spec.seed, trial, spec.degree_range,
                                          spec.magnitude_bound, spec.integer_only)
        assert type(outcome) is tuple
        assert outcome == (trial, True, seq.degree, fuzz_harness._bit_lengths(seq),
                           False, None, outcome[6])
        assert outcome[6] is None or outcome[6][1:] == seq._cleared()


class _NoGlobals(pickle.Unpickler):
    """Loads only what needs no class or function: tuples, lists, dicts,
    strings, ints, bools and None."""

    def find_class(self, module, name):
        raise AssertionError(f"the pickle names {module}.{name}")


def test_separation_outcomes_pickle_as_plain_tuples():
    # What a pool ships to the parent: plain tuples, each kept example as
    # its kinds and the draw's ints and denominator, no Polynomial or Fraction.
    spec = CampaignSpec(target="separation", trials=2_000, seed=8, degree_range=(2, 6))
    block = [fuzz_harness._run_trial(spec, trial) for trial in range(spec.trials)]
    assert sum(outcome[6] is not None for outcome in block) > 10
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = _NoGlobals(io.BytesIO(pickle.dumps(block, protocol))).load()
        assert back == block and all(type(outcome) is tuple for outcome in back)


@pytest.mark.parametrize("target, c", [("theorem1", 1), ("corollary", -1), ("separation", 1)])
def test_stats_match_the_rebuilt_inputs(target, c):
    # Rebuilt from the reference degree and the Fractions of each input: the
    # histogram, the bit lengths over the lcm of the reduced denominators
    # (separation clears over the lcm of the drawn ones, so only its
    # numerator bound is checked), and, for an integer shift, the naive shift
    # over that same lcm; c = -1 gives negative shifted coefficients.
    spec = CampaignSpec(target=target, trials=200, seed=21, degree_range=(0, 5),
                        magnitude_bound=50, shift_c=Fraction(c),
                        allow_c_below_one=c < 1)
    report = run_campaign(spec)
    stats = report.stats
    degrees = Counter()
    bits = Counter()
    for trial in range(spec.trials):
        degree = reference_degree(spec.seed, trial, *spec.degree_range)
        degrees[degree] += 1
        if target == "separation":
            continue
        seq = gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound)
        lcm = math.lcm(*(v.denominator for v in seq))
        shifted = taylor_shift(Polynomial(seq), c, ShiftAlgorithm.NAIVE_BINOMIAL).coeffs
        for key, values in (("input", seq), ("shifted", shifted)):
            bits[f"{key}_bits_max"] = max(bits[f"{key}_bits_max"],
                                          *(int(v * lcm).bit_length() for v in values))
            bits[f"{key}_den_bits_max"] = max(bits[f"{key}_den_bits_max"], lcm.bit_length())
    assert stats["degrees"] == {str(d): degrees[d] for d in range(6)}
    assert list(stats["degrees"]) == sorted(stats["degrees"], key=int)
    assert stats["not_applicable_trials"] == sum(
        any(v["status"] == "not-applicable" for v in p["verdicts"])
        for p in report.violations + report.findings)
    assert (stats["not_applicable_trials"] > 0) == (c < 0)
    # The largest numerator is the largest in magnitude, whatever its sign.
    assert fuzz_harness._bit_lengths(Polynomial([Fraction(-1024, 3), 5])) == (11, 2)
    if target == "separation":
        assert set(stats) == {"degrees", "input_bits_max", "input_den_bits_max",
                              "not_applicable_trials"}
        assert 1 <= stats["input_bits_max"] <= (50 ** 6).bit_length()
    else:
        assert {k: stats[k] for k in bits} == bits
        assert len(stats) == 6


def test_exploratory_corollary_run_reports_findings_not_violations():
    spec = CampaignSpec(target="corollary", trials=150, seed=13,
                        shift_c=Fraction(1, 2), allow_c_below_one=True)
    report = run_campaign(spec)
    assert report.violations == []
    for finding in report.findings:
        assert finding["trial"] >= 0


# --- determinism ---

def test_rerun_reports_identically():
    spec = CampaignSpec(target="lemma3", trials=80, seed=21)
    assert report_json(spec) == report_json(spec)


def test_parallel_run_reports_identically():
    spec = CampaignSpec(target="theorem1", trials=150, seed=33,
                        degree_range=(2, 12))
    assert report_json(spec, jobs=1) == report_json(spec, jobs=3)
    # Separation outcomes carry their examples as cleared draws to the parent.
    spec = CampaignSpec(target="separation", trials=150, seed=33, degree_range=(2, 6),
                        magnitude_bound=100)
    assert report_json(spec, jobs=1) == report_json(spec, jobs=3)


@pytest.mark.parametrize("spec", [
    # Findings at trials 73, 84, 103, 122, 123, 125, 142 and 149: payloads
    # from six blocks of 7, three in one of them.
    CampaignSpec(target="corollary", trials=150, seed=2024, degree_range=(2, 12),
                 shift_c=Fraction(1, 2), allow_c_below_one=True),
    # Both example kinds, one first found at trial 102, and degrees 0..3.
    CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(0, 3),
                 magnitude_bound=3),
    CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(0, 3)),
], ids=["corollary-1/2", "separation", "theorem1"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_blocks_fold_into_the_one_block_report(monkeypatch, spec, jobs):
    # run_campaign folds its outcomes block by block; blocks of 7 trials
    # (the last one short) must give the report that one block gives.
    whole = report_json(spec)
    monkeypatch.setattr(fuzz_harness, "_BLOCK", 7)
    assert report_json(spec, jobs=jobs) == whole


@pytest.mark.parametrize("target", [t for t in TARGETS if t != "lemma1"])
def test_degree_past_any_list_is_refused_before_a_trial(monkeypatch, target):
    # Within a degree past the bound separation's run of 2·(degree + 1)
    # values could not be sized as a list at all (OverflowError). At it
    # every draw's run is refused at once (MemoryError), only because
    # _draw_run sizes its list before it reads a value: a run grown value by
    # value would allocate until the process is killed. So at the bound
    # every digest but the degree's raises, and such a run fails at once.
    real_sha256 = fuzz_harness._sha256

    def degree_digest_only(data):
        if not data.endswith(b":degree"):
            raise AssertionError(f"digest of {data!r} before the run's list was sized")
        return real_sha256(data)

    top = fuzz_harness._MAX_DEGREE
    with pytest.raises(DomainError, match=f"degree range end {top + 1} is too large"):
        run_campaign(CampaignSpec(target=target, trials=1, seed=0, degree_range=(top + 1,) * 2))
    # The spec itself is refused, so none past the bound can be built or serialised.
    for end in (top + 1, 10 ** 20):
        with pytest.raises(DomainError, match=f"^degree range end {end} is too large to draw "
                           fr"\(at most {top}\)$"):
            CampaignSpec(target=target, trials=1, seed=0, degree_range=(0, end))
    monkeypatch.setattr(fuzz_harness, "_sha256", degree_digest_only)
    with pytest.raises(MemoryError):
        run_campaign(CampaignSpec(target=target, trials=1, seed=0, degree_range=(top, top)))


def test_gen_nondecreasing_seq_refuses_a_degree_past_any_list():
    # run_campaign's guard, before any list is built; 10**20 used to end in a
    # bare OverflowError from the list a draw sizes.
    for degree in (fuzz_harness._MAX_DEGREE + 1, 10 ** 20):
        with pytest.raises(DomainError, match=f"^degree {degree} is too large to draw"):
            gen_nondecreasing_seq(1, 0, degree, 10)


def test_campaign_memory_does_not_grow_with_trials():
    # Each held trial outcome takes about 0.35 KB on a separation campaign:
    # holding all 30,000 peaked at 10.8 MB, one block at a time at 2.3 MB.
    import tracemalloc

    spec = CampaignSpec(target="separation", trials=30_000, seed=5, degree_range=(2, 6),
                        magnitude_bound=100)
    tracemalloc.start()
    try:
        run_campaign(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6


def test_different_seeds_differ():
    a = CampaignSpec(target="separation", trials=60, seed=1, degree_range=(2, 5))
    b = CampaignSpec(target="separation", trials=60, seed=2, degree_range=(2, 5))
    assert report_json(a) != report_json(b)


def test_report_json_is_serializable_and_shaped():
    spec = CampaignSpec(target="lemma1", trials=30, seed=3)
    d = run_campaign(spec).to_json_dict()
    parsed = json.loads(json.dumps(d))
    assert parsed["spec"]["target"] == "lemma1"
    assert parsed["trials_run"] == 30
    assert isinstance(parsed["violations"], list)
    assert isinstance(parsed["coverage"], dict)


# --- pinned report bytes ---
# sha256 of report_json(spec): every value drawn from its label's sha256
# stream by _draw_run, which the reference tests above rebuild from hashlib.
# The last epoch, where a nondecreasing draw reads its numerators on "seq"
# and the rest on "seq-den", recomputed 6 of the 15 digests once. The
# degrees did not move, separation and lemma1 draw as before, an
# integer-only nondecreasing draw keeps its numerators, and a clean report
# hashes only degree-driven counts and the largest bit lengths. The same
# bytes on CPython 3.10 to 3.13 and with two workers. The row comments name
# what each pin was first added to guard. A change to any layer a campaign
# runs through, other than a new epoch argued the same way, must leave these
# bytes alone.

@pytest.mark.parametrize("spec, digest", [
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(2, 20)),
     "a88da8fbed10d925a92319c2e3f6a79bbefbc742e6f1e77c0b437de0b3d4a425"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(2, 12),
                  shift_c=Fraction(3, 2)),
     "456cd530ccf7c449cbf907d79a47cc723694bb168fd3b84f02932a74515bdd40"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(2, 12),
                  shift_c=Fraction(1, 2), allow_c_below_one=True),
     "c204c14db6d6c0604d8537a1e5667c29062f1074cd2f503897781d21d65f2374"),
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 6),
                  magnitude_bound=100),
     "02f372c6cc9f9cb1065c598d1ce6a34dc3e04ff85a934cc1c67148009aaad517"),
    (CampaignSpec(target="lemma1", trials=60, seed=2024),
     "4dd1aeea99a8278a6bd83f617f08b42a12084912e3a8c971f0a8a1133602ad97"),
    (CampaignSpec(target="lemma2", trials=60, seed=2024, degree_range=(2, 12)),
     "30b00cf9990020f140ebe980b2d7a662fdb1b88a4fe3b7ade57a7517554813fe"),
    (CampaignSpec(target="lemma3", trials=60, seed=2024, degree_range=(2, 12)),
     "bf3c88d8ae63ddf497c5a8a512e1598c9b29e8c31a44c09782972c62079c260b"),
    # Degrees below each target's minimum count as vacuous trials.
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(0, 3),
                  integer_only=True),
     "27f25e80f3b43b74e31bb256c758d84091f852834e3bb8e535f665c379edaed5"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(0, 3),
                  shift_c=Fraction(3, 2)),
     "14a8b572cdefae0e7d35431c04797115912b5d13277731ce5b448ff371fb5fd0"),
    # These three added when separation trials began to decide on the cleared draw.
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 6),
                  magnitude_bound=100, integer_only=True),
     "bbc8a4e4c14c8a0e60ddac49b92b4d007befb7c4cbe283a6c0f305237700583e"),
    # Degrees 0 and 1 have empty chains; bound 3 draws ties and both example kinds.
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(0, 3),
                  magnitude_bound=3),
     "3d918c391b1db697938cd6cdff0453176771ca15da2c9f50500d3dde519958da"),
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 9),
                  magnitude_bound=10 ** 6),
     "7c1f6998f76e26bb1dce4354b4885d548bc1fd7041ef08672ff5e1d20dcdf22c"),
    # These three added when the draws left randint for getrandbits.
    (CampaignSpec(target="lemma1", trials=60, seed=2024, integer_only=True),
     "2bc848af8516ea52ee02acd85166260e21445c5fc87876dba4324e9de582539e"),
    (CampaignSpec(target="lemma3", trials=60, seed=2024, degree_range=(2, 12),
                  integer_only=True),
     "66fb4d816fc8d2e5ccc011957f5ceff0bb78e0798948de289d15e153efd16568"),
    # Entries 0 or 1: 14 of the 60 inputs draw all zeros and redraw their last entry.
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(0, 2),
                  magnitude_bound=1),
     "16a046f10ff17f4999b10d68b25a9d2c602adc77a943e07c75b22bd18a27d691"),
], ids=["theorem1", "corollary-3/2", "corollary-1/2", "separation", "lemma1", "lemma2",
        "lemma3", "theorem1-degree-0-integer", "corollary-3/2-degree-0",
        "separation-integer", "separation-degree-0-bound-3", "separation-degree-9",
        "lemma1-integer", "lemma3-integer", "theorem1-bound-1"])
def test_report_bytes_pinned(spec, digest):
    assert hashlib.sha256(report_json(spec).encode()).hexdigest() == digest


def test_package_import_leaves_openssl_unloaded():
    # Trial draws use the builtin sha256, not hashlib, which loads OpenSSL,
    # and no random.Random.
    src = str(Path(ratioshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ratioshift.cli; print('_hashlib' in sys.modules, 'random' in sys.modules)"
    # -S keeps site hooks, which may load anything, out of the picture.
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False", "False"]


def test_sha256_falls_back_to_hashlib_with_the_same_reports():
    # Without either builtin module the draws hash through hashlib, and the
    # pinned separation report keeps its bytes.
    src = str(Path(ratioshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from ratioshift import fuzz_harness as fh\n"
        "spec = fh.CampaignSpec(target='separation', trials=300, seed=2029,\n"
        "                       degree_range=(2, 6), magnitude_bound=100)\n"
        "d = fh.run_campaign(spec).to_json_dict()\n"
        "d.pop('wall_time')\n"
        "print(fh._sha256 is hashlib.sha256,\n"
        "      hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest())\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == [
        "True", "02f372c6cc9f9cb1065c598d1ce6a34dc3e04ff85a934cc1c67148009aaad517"]


# --- violation and finding paths ---
# No honest campaign fails, so these force a failing predicate at the name
# the trial runner looks up and check the payload every target shares.

def _forced_fail(prop):
    def fail(*args, **kwargs):
        return PropertyVerdict(prop, Status.FAILS, Witness((0,), (Fraction(7),)), "forced")
    return fail


def _drawn_input(spec, trial):
    # Re-derive a trial's sequence from (seed, trial) alone.
    degree = reference_degree(spec.seed, trial, *spec.degree_range)
    return gen_nondecreasing_seq(spec.seed, trial, degree, spec.magnitude_bound,
                                 integer_only=spec.integer_only,
                                 positive=spec.target == "lemma3")


def _assert_payloads(spec, payloads, *, shifts):
    assert [p["trial"] for p in payloads] == list(range(spec.trials))
    keys = {"trial", "input", "verdicts"} | ({"shift_c", "shifted"} if shifts else set())
    for p in payloads:
        assert set(p) == keys
        if spec.target != "lemma1":
            seq = _drawn_input(spec, p["trial"])
            assert p["input"] == [str(v) for v in seq]
        if shifts:
            shifted = taylor_shift(Polynomial(seq), Fraction(p["shift_c"]))
            assert p["shifted"] == [str(v) for v in shifted.coeffs]
        for v in p["verdicts"]:
            assert set(v) == {"property", "status", "witness", "detail"}
    json.dumps(payloads)


def test_theorem1_violation_payload(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "check_ratio_monotone", _forced_fail("ratio-monotone"))
    spec = CampaignSpec(target="theorem1", trials=5, seed=4, degree_range=(1, 6))
    report = run_campaign(spec)
    _assert_payloads(spec, report.violations, shifts=True)
    assert report.violations[0]["shift_c"] == "1"
    assert report.violations[0]["verdicts"] == [
        {"property": "ratio-monotone", "status": "fails",
         "witness": {"indices": [0], "values": ["7"]}, "detail": "forced"}]
    assert report.findings == []
    assert report.coverage["non_vacuous_trials"] == 5
    assert report.stats["not_applicable_trials"] == 0  # it fails; it is not vacuous


def test_lemma1_false_conclusion_is_violation(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "lemma1_holds", lambda *v: False)
    spec = CampaignSpec(target="lemma1", trials=4, seed=6)
    report = run_campaign(spec)
    _assert_payloads(spec, report.violations, shifts=False)
    a, b, c, d, e, f = (Fraction(v) for v in report.violations[0]["input"])
    assert a / b <= c / d <= e / f
    assert report.violations[0]["verdicts"][0]["status"] == "fails"
    assert report.coverage["non_vacuous_trials"] == 4


def test_lemma1_hypothesis_error_is_vacuous_violation(monkeypatch):
    def broken(*values):
        raise HypothesisError("hypothesis a/b <= c/d <= e/f does not hold")
    monkeypatch.setattr(fuzz_harness, "lemma1_holds", broken)
    spec = CampaignSpec(target="lemma1", trials=4, seed=6)
    report = run_campaign(spec)
    _assert_payloads(spec, report.violations, shifts=False)
    verdict = report.violations[0]["verdicts"][0]
    assert verdict["status"] == "not-applicable"
    assert "does not hold" in verdict["detail"]
    assert report.coverage["non_vacuous_trials"] == 0
    assert report.stats["not_applicable_trials"] == 4


def test_lemma2_violation_carries_base_and_shift(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "lemma2_preserved", lambda b: False)
    spec = CampaignSpec(target="lemma2", trials=4, seed=3, degree_range=(2, 8))
    report = run_campaign(spec)
    _assert_payloads(spec, report.violations, shifts=True)
    assert report.violations[0]["verdicts"][0]["property"] == "lemma2"


def test_lemma3_violation_keeps_both_sides_exactly(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "lemma3_gap",
                        lambda seq: Lemma3Report(m=seq.degree, lhs=Fraction(1, 3),
                                                 rhs=Fraction(1, 2)))
    spec = CampaignSpec(target="lemma3", trials=3, seed=2, degree_range=(2, 5))
    report = run_campaign(spec)
    _assert_payloads(spec, report.violations, shifts=False)
    detail = report.violations[0]["verdicts"][0]["detail"]
    assert "-1/6" in detail and "1/3" in detail and "1/2" in detail


@pytest.mark.parametrize("c, allow, field", [
    (Fraction(3, 2), False, "violations"),
    (Fraction(1, 2), True, "findings"),
])
def test_corollary_failures_route_by_exploratory(monkeypatch, c, allow, field):
    monkeypatch.setattr(fuzz_harness, "check_log_concave", _forced_fail("log-concave"))
    spec = CampaignSpec(target="corollary", trials=4, seed=5, degree_range=(2, 6),
                        shift_c=c, allow_c_below_one=allow)
    report = run_campaign(spec)
    payloads = getattr(report, field)
    other = report.findings if field == "violations" else report.violations
    assert other == []
    _assert_payloads(spec, payloads, shifts=True)
    assert payloads[0]["shift_c"] == str(c)
    assert [v["property"] for v in payloads[0]["verdicts"]] == ["log-concave"]


def test_every_status_key_gives_the_audit_and_examples_row():
    # All 3^4 keys, a fresh table: an inconsistent audit gives the failing
    # implications verdict a trial quotes and no example; a consistent one
    # gives no verdict and each kind whose first property holds while its
    # second fails, in the target's order.
    lattice = ("ratio-monotone", "spiral", "log-concave", "unimodal")
    rows = _LazyTable(fuzz_harness._lattice_row)
    for key in itertools.product(Status, repeat=4):
        statuses = dict(zip(lattice, key))
        inconsistent = [name for name, ok in audit_statuses(statuses) if not ok]
        failed, kinds = rows[key]
        if inconsistent:
            assert kinds is None
            assert [v.to_json_dict() for v in failed] == [{
                "property": "implications", "status": "fails", "witness": None,
                "detail": f"implication audit inconsistent: {inconsistent}"}]
        else:
            assert failed == ()
            assert kinds == (tuple(kind for kind, held, broken in (
                ("log-concave-not-spiral", "log-concave", "spiral"),
                ("spiral-not-log-concave", "spiral", "log-concave"))
                if statuses[held] is Status.HOLDS and statuses[broken] is Status.FAILS)
                or None)
    assert len(rows) == 81


def test_separation_inconsistent_audit_records_no_examples(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "audit_statuses",
                        lambda statuses: [("spiral=>unimodal", False)])
    # Rows already built hold the real audit's outcome.
    monkeypatch.setattr(fuzz_harness, "_LATTICE_ROWS", _LazyTable(fuzz_harness._lattice_row))
    spec = CampaignSpec(target="separation", trials=40, seed=7, degree_range=(2, 6))
    report = run_campaign(spec)
    assert len(report.violations) == 40
    p = report.violations[0]
    assert set(p) == {"trial", "input", "verdicts"}
    assert len(p["input"]) == reference_degree(spec.seed, 0, *spec.degree_range) + 1
    assert "spiral=>unimodal" in p["verdicts"][0]["detail"]
    assert report.coverage == {"non_vacuous_trials": 40, "log-concave-not-spiral": 0,
                               "spiral-not-log-concave": 0}
    assert report.examples_found == {"log-concave-not-spiral": None,
                                     "spiral-not-log-concave": None}


def test_cli_fuzz_exits_one_on_violation(monkeypatch, capsys):
    monkeypatch.setattr(fuzz_harness, "check_ratio_monotone", _forced_fail("ratio-monotone"))
    code = cli_main(["fuzz", "--target", "theorem1", "--trials", "3", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 1
    assert len(report["violations"]) == 3


# --- the worker pool and example rendering ---

class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs, trials, cpus, size", [
    (64, 10, 4, 4),      # capped by the CPUs
    (64, 3, 8, 3),       # capped by the trials
    (2, 10, 8, 2),       # as asked
    (5, 1, 8, None),     # one trial: no pool
    (5, 10, None, None),  # unknown CPU count counts as one: no pool
    (1, 10, 8, None),
])
def test_pool_is_bounded_by_trials_and_cpus(monkeypatch, jobs, trials, cpus, size):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    spec = CampaignSpec(target="theorem1", trials=trials, seed=3, degree_range=(2, 8))
    assert report_json(spec, jobs=jobs) == report_json(spec)
    assert _RecordingPool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize("jobs, trials", [(1, 10), (5, 1)])
def test_serial_run_leaves_cpu_count_unasked(monkeypatch, jobs, trials):
    def refuse():
        raise AssertionError("a serial run asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", refuse)
    spec = CampaignSpec(target="lemma1", trials=trials, seed=3)
    assert run_campaign(spec, jobs=jobs).trials_run == trials


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_domain_error(monkeypatch, capsys, jobs):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    spec = CampaignSpec(target="lemma1", trials=5, seed=1)
    with pytest.raises(DomainError, match="jobs"):
        run_campaign(spec, jobs=jobs)
    code = cli_main(["fuzz", "--target", "lemma1", "--trials", "5", "--jobs", str(jobs)])
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert _RecordingPool.sizes == []


@pytest.mark.parametrize("jobs", [2.0, "2", True, None])
def test_jobs_not_an_int_is_domain_error(monkeypatch, jobs):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    spec = CampaignSpec(target="lemma1", trials=5, seed=1)
    with pytest.raises(DomainError, match="jobs must be int"):
        run_campaign(spec, jobs=jobs)
    assert _RecordingPool.sizes == []


def test_separation_renders_only_the_kept_examples(monkeypatch):
    rendered = []
    render = fuzz_harness._render_seq
    monkeypatch.setattr(fuzz_harness, "_render_seq",
                        lambda seq: rendered.append(seq) or render(seq))
    # About 1 in 294 trials at degrees 2..6 finds a spiral sequence that is
    # not log-concave; 3,000 trials expect about 10.
    spec = CampaignSpec(target="separation", trials=3_000, seed=7, degree_range=(2, 6))
    report = run_campaign(spec)
    assert report.coverage["log-concave-not-spiral"] > 1
    assert report.coverage["spiral-not-log-concave"] > 1
    assert len(rendered) == 2
    assert [render(seq) for seq in rendered] == [
        example["sequence"] for example in report.examples_found.values()]
