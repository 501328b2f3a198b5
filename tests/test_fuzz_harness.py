import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ratioshift
from ratioshift import fuzz_harness, poly_ops
from ratioshift.cli import main as cli_main
from ratioshift.fuzz_harness import (
    TARGETS,
    CampaignSpec,
    _randints,
    _trial_rng,
    gen_nondecreasing_seq,
    run_campaign,
)
from ratioshift.numeric_core import DomainError
from ratioshift.poly_ops import Polynomial, taylor_shift
from ratioshift.shape_props import (
    PropertyVerdict,
    Status,
    Witness,
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


# --- the draw primitive ---
# Every pinned report depends on _randints yielding randint's exact stream.

_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32,
           2 ** 32 + 1, 2 ** 33, 2 ** 64 + 1, 10 ** 6, 10 ** 18]


@pytest.mark.parametrize("width", _WIDTHS)
@pytest.mark.parametrize("low", [0, 1, -5])
def test_randints_is_randint_stream(width, low):
    high = low + width - 1
    for seed in range(200):
        drawn = random.Random(seed)
        reference = random.Random(seed)
        assert _randints(drawn, 7, (low, high)) == [reference.randint(low, high)
                                                     for _ in range(7)]
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("low", [0, 1])
@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 100, 127, 128, 10 ** 6, 10 ** 18])
def test_randints_interleaves_numerator_and_denominator_ranges(low, bound):
    for seed in range(200):
        drawn = random.Random(seed)
        reference = random.Random(seed)
        expected = []
        for _ in range(9):
            expected += [reference.randint(low, bound), reference.randint(1, bound)]
        assert _randints(drawn, 9, (low, bound), (1, bound)) == expected
        assert drawn.getstate() == reference.getstate()


# A clean campaign's report hashes only its spec and coverage counts, so the
# pins above guard the degree draws but not the drawn values. These rebuild
# each input from randint calls, the way the draws were first written.

def _randint_ratio(rng, low, bound, integer_only):
    return Fraction(rng.randint(low, bound), 1 if integer_only else rng.randint(1, bound))


@pytest.mark.parametrize("integer_only", [False, True])
@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("bound", [1, 2, 3, 100, 10 ** 6])
def test_gen_nondecreasing_seq_matches_randint_reference(bound, positive, integer_only):
    for trial in range(150):
        degree = trial % 9
        rng = _trial_rng(13, trial, "seq")
        draws = sorted(_randint_ratio(rng, 1 if positive else 0, bound, integer_only)
                       for _ in range(degree + 1))
        if draws[-1] == 0:
            draws[-1] = _randint_ratio(rng, 1, bound, integer_only)
        assert gen_nondecreasing_seq(13, trial, degree, bound, integer_only=integer_only,
                                     positive=positive) == tuple(draws)


@pytest.mark.parametrize("integer_only", [False, True])
@pytest.mark.parametrize("bound", [1, 3, 100, 10 ** 6])
def test_positive_and_lemma1_draws_match_randint_reference(bound, integer_only):
    spec = CampaignSpec(target="lemma1", trials=1, seed=13, magnitude_bound=bound,
                        integer_only=integer_only)
    for trial in range(150):
        rng = _trial_rng(13, trial, "positive-seq")
        expected = [_randint_ratio(rng, 1, bound, integer_only) for _ in range(trial % 9 + 1)]
        drawn = fuzz_harness._gen_positive_seq(13, trial, trial % 9, bound, integer_only)
        assert list(drawn.coeffs) == expected
        rng = _trial_rng(13, trial, "lemma1")
        b, d, f = [_randint_ratio(rng, 1, bound, integer_only) for _ in range(3)]
        r1, r2, r3 = sorted(_randint_ratio(rng, 1, bound, integer_only) for _ in range(3))
        assert fuzz_harness._draw_sextuple(spec, trial).coeffs == (
            r1 * b, b, r2 * d, d, r3 * f, f)


def test_campaigns_draw_without_randint(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("a campaign drew through randint")

    monkeypatch.setattr(random.Random, "randint", refuse)
    for target in TARGETS:
        for integer_only in (False, True):
            spec = CampaignSpec(target=target, trials=12, seed=5, degree_range=(2, 7),
                                magnitude_bound=9, integer_only=integer_only)
            assert run_campaign(spec).trials_run == 12
    assert isinstance(_trial_rng(5, 0, "seq"), random.Random)


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
    spec = CampaignSpec(target="separation", trials=400, seed=7,
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
    ("theorem1", 2), ("lemma1", 1), ("lemma2", 1), ("lemma3", 1), ("corollary", 1),
    ("separation", 0),
])
def test_no_trial_clears_the_same_coefficients_twice(monkeypatch, target, per_trial):
    # A draw is cleared once; checks and predicates take it, and its shift,
    # as they are. theorem1 alone re-clears its shift through coeffs.
    calls = []
    clear = poly_ops.clear_denominators
    monkeypatch.setattr(poly_ops, "clear_denominators",
                        lambda values: calls.append(values) or clear(values))
    report = run_campaign(CampaignSpec(target=target, trials=200, seed=8))
    assert report.violations == []
    assert len(calls) == 200 * per_trial
    if target == "separation":  # its kept examples' verdicts clear nothing either
        assert all(report.examples_found.values())


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
# sha256 of report_json(spec). The first four were recorded before the
# integer kernel replaced Fraction arithmetic in the shift and the checkers,
# the rest before the six trial runners became one table. A change to any
# layer a campaign runs through must leave these bytes alone.

@pytest.mark.parametrize("spec, digest", [
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(2, 20)),
     "10c2a581824e1e64abbcbec9178a3894b9ce87de4404c74e0ee6becfb12714bc"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(2, 12),
                  shift_c=Fraction(3, 2)),
     "e7edb819d2adf022e24cd709f778d9649af38f2aba8bd140f745e98e5e057aa3"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(2, 12),
                  shift_c=Fraction(1, 2), allow_c_below_one=True),
     "4ac60e7f5d1fb0f9c974d6952a2e794706c894caaf990cf4296f348aaa8a2c6f"),
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 6),
                  magnitude_bound=100),
     "6228e55e81c265b78b3d155c908bd870423e569067e266bdf7fc1347ace306f3"),
    (CampaignSpec(target="lemma1", trials=60, seed=2024),
     "99f8e03a95c15a99f31345044f919115d55bbebde61d4cec63273ca8225c89b3"),
    (CampaignSpec(target="lemma2", trials=60, seed=2024, degree_range=(2, 12)),
     "726f8d30aee02024e5d81b5dfbc1a9054d3accdcfda4d7c79df9fcb806114012"),
    (CampaignSpec(target="lemma3", trials=60, seed=2024, degree_range=(2, 12)),
     "0234f12d2d1055f3b83dfb92af53a2d482aa06c91bd9bfab8ac29aacdf1aa48a"),
    # Degrees below each target's minimum count as vacuous trials.
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(0, 3),
                  integer_only=True),
     "6f1f2b8d3c014465ea6712ff36030096a262bb017a24bb8e03ef32472a55ec19"),
    (CampaignSpec(target="corollary", trials=60, seed=2024, degree_range=(0, 3),
                  shift_c=Fraction(3, 2)),
     "c3a7e479306feab5b277811d477e8c4bb2dc7ab965d78e508a82e014ae1948f8"),
    # These three before separation trials decided on the cleared draw.
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 6),
                  magnitude_bound=100, integer_only=True),
     "b3b8b27bd618928b8acf487560cb135c3c0176b1f55bc59ba41d08fb1f575934"),
    # Degrees 0 and 1 have empty chains; bound 3 draws ties and both example kinds.
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(0, 3),
                  magnitude_bound=3),
     "46b727110b9128110e628f9400e11e68eb1b7e89b2ce4cc22ca05cad50219690"),
    (CampaignSpec(target="separation", trials=300, seed=2029, degree_range=(2, 9),
                  magnitude_bound=10 ** 6),
     "711b66f3d177d7589d5208fa0cad11abe2b98ffae18d200cdc14373ea478516a"),
    # These three before the draws left randint for getrandbits.
    (CampaignSpec(target="lemma1", trials=60, seed=2024, integer_only=True),
     "49d640b91f27876909423be0700baae293582078f395f17ff77c3ba803efcdb5"),
    (CampaignSpec(target="lemma3", trials=60, seed=2024, degree_range=(2, 12),
                  integer_only=True),
     "526ce8f6220e6c78da040c2c7944aa5f3d27697969702df8e2831de10c7b7c6a"),
    # Entries 0 or 1: 13 of the 60 inputs draw all zeros and redraw their last entry.
    (CampaignSpec(target="theorem1", trials=60, seed=2024, degree_range=(0, 2),
                  magnitude_bound=1),
     "12c03959569df08dca7ab8f78d2336206ba26cbe182e0be759f9bbd96053d866"),
], ids=["theorem1", "corollary-3/2", "corollary-1/2", "separation", "lemma1", "lemma2",
        "lemma3", "theorem1-degree-0-integer", "corollary-3/2-degree-0",
        "separation-integer", "separation-degree-0-bound-3", "separation-degree-9",
        "lemma1-integer", "lemma3-integer", "theorem1-bound-1"])
def test_report_bytes_pinned(spec, digest):
    assert hashlib.sha256(report_json(spec).encode()).hexdigest() == digest


def test_package_import_leaves_openssl_unloaded():
    # Trial seeding uses the builtin sha256, not hashlib, which loads OpenSSL.
    src = str(Path(ratioshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ratioshift.cli; print('_hashlib' in sys.modules)"
    # -S keeps site hooks, which may load anything, out of the picture.
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


# --- violation and finding paths ---
# No honest campaign fails, so these force a failing predicate at the name
# the trial runner looks up and check the payload every target shares.

def _forced_fail(prop):
    def fail(*args, **kwargs):
        return PropertyVerdict(prop, Status.FAILS, Witness((0,), (Fraction(7),)), "forced")
    return fail


def _drawn_input(spec, trial):
    # Re-derive a trial's sequence from (seed, trial) alone.
    degree = _trial_rng(spec.seed, trial, "degree").randint(*spec.degree_range)
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


def test_separation_inconsistent_audit_records_no_examples(monkeypatch):
    monkeypatch.setattr(fuzz_harness, "audit_statuses",
                        lambda statuses: [("spiral=>unimodal", False)])
    spec = CampaignSpec(target="separation", trials=40, seed=7, degree_range=(2, 6))
    report = run_campaign(spec)
    assert len(report.violations) == 40
    p = report.violations[0]
    assert set(p) == {"trial", "input", "verdicts"}
    degree = _trial_rng(spec.seed, 0, "degree").randint(*spec.degree_range)
    assert len(p["input"]) == degree + 1
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
    spec = CampaignSpec(target="separation", trials=400, seed=7, degree_range=(2, 6))
    report = run_campaign(spec)
    assert report.coverage["log-concave-not-spiral"] > 1
    assert report.coverage["spiral-not-log-concave"] > 1
    assert len(rendered) == 2
    assert [render(seq) for seq in rendered] == [
        example["sequence"] for example in report.examples_found.values()]
