import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ratioshift
from ratioshift.fuzz_harness import (
    TARGETS,
    CampaignSpec,
    gen_nondecreasing_seq,
    run_campaign,
)
from ratioshift.numeric_core import DomainError
from ratioshift.shape_props import check_log_concave, check_spiral


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


def test_spec_corollary_small_shift_needs_flag():
    with pytest.raises(DomainError):
        CampaignSpec(target="corollary", trials=10, seed=1, shift_c=Fraction(1, 2))
    spec = CampaignSpec(target="corollary", trials=10, seed=1,
                        shift_c=Fraction(1, 2), allow_c_below_one=True)
    assert spec.exploratory


def test_spec_rejects_float_shift():
    with pytest.raises(TypeError):
        CampaignSpec(target="corollary", trials=10, seed=1, shift_c=1.5)


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
# sha256 of report_json(spec), recorded before the integer kernel replaced
# Fraction arithmetic in the shift and the checkers. A change to any layer a
# campaign runs through must leave these bytes alone.

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
], ids=["theorem1", "corollary-3/2", "corollary-1/2", "separation"])
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
