"""Package acceptance gate.

Each test runs one full acceptance workload at its stated tolerance and
prints exactly one line of the form

    ACCEPTANCE <nn> <label>: PASS|FAIL

Run ``pytest tests/test_acceptance.py -v -rA`` to see every line (pytest
shows captured output for failures by default; -rA includes passes).

Everything here is exact arithmetic except criterion 07, whose tolerances
are pinned at 1e-8 (grid) and 1e-9 (anchors).
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from draw_reference import reference_degree

from ratioshift.boros_moll import bm_polynomial, bm_ratio_identity, bm_shifted_seq
from ratioshift.fuzz_harness import (
    CampaignSpec,
    gen_nondecreasing_seq,
    run_campaign,
)
from ratioshift.poly_ops import Polynomial, ShiftAlgorithm, taylor_shift
from ratioshift.quartic_integral import quadrature_lhs, verify_identity
from ratioshift.shape_props import (
    check_log_concave,
    check_ratio_monotone,
    check_spiral,
)
from ratioshift.theorem_engine import (
    edge_inequality_holds,
    induction_replay_holds,
    lemma3_gap,
    s1_rearranged,
    s1_sum,
)

THEOREM1_SEED = 1001
THEOREM1_TRIALS = 10_000
THEOREM1_DEGREES = (2, 64)
BOUND = 10 ** 6


@contextmanager
def reported(num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


def test_01_theorem1_campaign():
    with reported(1, "1-shift outputs ratio monotone on 10k random inputs"):
        spec = CampaignSpec(target="theorem1", trials=THEOREM1_TRIALS,
                            seed=THEOREM1_SEED, degree_range=THEOREM1_DEGREES,
                            magnitude_bound=BOUND)
        started = time.perf_counter()
        report = run_campaign(spec)
        elapsed = time.perf_counter() - started
        assert report.trials_run == THEOREM1_TRIALS
        assert report.violations == []
        assert report.coverage["non_vacuous_trials"] == THEOREM1_TRIALS
        assert elapsed < 120.0, f"campaign took {elapsed:.1f}s, budget is 120s"


def test_02_lemma2_campaign():
    with reported(2, "times (x+1) preserves ratio monotonicity on 5k inputs"):
        spec = CampaignSpec(target="lemma2", trials=5_000, seed=2002)
        report = run_campaign(spec)
        assert report.trials_run == 5_000
        assert report.violations == []
        assert report.coverage["non_vacuous_trials"] == 5_000


def test_03_lemma3_gap():
    with reported(3, "quadratic-form gap >= 0 on 10k inputs, = 0 on constants"):
        spec = CampaignSpec(target="lemma3", trials=10_000, seed=3003)
        report = run_campaign(spec)
        assert report.trials_run == 10_000
        assert report.violations == []
        for length in range(3, 21):
            for value in (Fraction(1), Fraction(7, 3), Fraction(12)):
                assert lemma3_gap([value] * length).gap == 0


def test_04_proof_machinery_identities():
    with reported(4, "s1 identity, edge inequality, induction replay"):
        rng = random.Random(4004)
        for _ in range(10_000):
            m = rng.randint(1, 32)
            seq = [Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
                   for _ in range(m + 1)]
            assert s1_sum(seq) == s1_rearranged(seq)

        # The exact theorem1 campaign inputs, regenerated from the seed, with
        # each degree rebuilt from the trial digest; a short campaign's degree
        # histogram shows that they are the campaign's own.
        degrees = [reference_degree(THEOREM1_SEED, trial, *THEOREM1_DEGREES)
                   for trial in range(THEOREM1_TRIALS)]
        for trial, degree in enumerate(degrees):
            seq = gen_nondecreasing_seq(THEOREM1_SEED, trial, degree, BOUND)
            assert edge_inequality_holds(seq)
        short = run_campaign(CampaignSpec(target="theorem1", trials=300, seed=THEOREM1_SEED,
                                          degree_range=THEOREM1_DEGREES,
                                          magnitude_bound=BOUND))
        rebuilt = Counter(degrees[:300])
        assert short.stats["degrees"] == {str(d): rebuilt[d] for d in sorted(rebuilt)}

        algos = (ShiftAlgorithm.NAIVE_BINOMIAL, ShiftAlgorithm.HORNER_SYNTHETIC)
        for i in range(1_000):
            m = rng.randint(1, 24)
            coeffs = [Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 100))
                      for _ in range(m + 1)]
            assert induction_replay_holds(Polynomial(coeffs), algos[i % 2])


def test_05_corollary_campaigns():
    with reported(5, "shifts by 1, 3/2, 2 give log-concave, gap-free outputs"):
        for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
            spec = CampaignSpec(target="corollary", trials=2_000, seed=5005,
                                degree_range=(2, 24), shift_c=c)
            report = run_campaign(spec)
            assert report.trials_run == 2_000
            assert report.violations == [], f"violations at c={c}"
            assert report.coverage["non_vacuous_trials"] == 2_000


def test_06_boros_moll_family():
    with reported(6, "coefficient family exact through m=60, P1/P2 pinned"):
        assert bm_polynomial(1).coeffs == (Fraction(3, 2), Fraction(1))
        assert bm_polynomial(2).coeffs == (Fraction(21, 8), Fraction(15, 4),
                                           Fraction(3, 2))
        for m in range(0, 61):
            for k in range(m):
                chk = bm_ratio_identity(m, k)
                assert chk.equal, f"ratio identity broken at m={m}, k={k}"
                assert chk.below_one, f"ratio not < 1 at m={m}, k={k}"
            seq = bm_shifted_seq(m)
            assert all(v > 0 for v in seq)
            assert all(seq[k] <= seq[k + 1] for k in range(m))
            p = bm_polynomial(m)
            assert check_ratio_monotone(p.coeffs).holds
            assert check_log_concave(p.coeffs).holds


def test_07_quartic_integral():
    with reported(7, "quadrature matches closed form to 1e-8, anchors to 1e-9"):
        for m in range(0, 7):
            for x in (0.25, 0.5, 1.0, 2.0, 10.0):
                chk = verify_identity(x, m, 1e-8)
                assert chk.passed, f"rel err {chk.rel_err} at m={m}, x={x}"
        assert abs(quadrature_lhs(1.0, 0, 1e-11) - math.pi / 4.0) <= 1e-9
        assert abs(quadrature_lhs(0.0, 1, 1e-11) - 3.0 * math.pi / 2.0 ** 3.5) <= 1e-9


def test_08_shift_oracle():
    with reported(8, "naive and synthetic shifts agree; compose and invert"):
        rng = random.Random(8008)
        saw_negative_c = saw_fractional_c = False
        for _ in range(1_000):
            m = rng.randint(0, 24)
            coeffs = [Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 100))
                      for _ in range(m + 1)]
            c = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            d = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
            saw_negative_c = saw_negative_c or c < 0
            saw_fractional_c = saw_fractional_c or c.denominator > 1
            p = Polynomial(coeffs)
            naive = taylor_shift(p, c, ShiftAlgorithm.NAIVE_BINOMIAL)
            horner = taylor_shift(p, c, ShiftAlgorithm.HORNER_SYNTHETIC)
            assert naive.coeffs == horner.coeffs
            assert taylor_shift(taylor_shift(p, c), d).coeffs == \
                taylor_shift(p, c + d).coeffs
            assert taylor_shift(naive, -c).coeffs == p.coeffs
        assert saw_negative_c and saw_fractional_c


def test_09_separation_search():
    with reported(9, "fuzzer separates log-concavity from spirality both ways"):
        spec = CampaignSpec(target="separation", trials=10_000, seed=9009,
                            degree_range=(2, 6), magnitude_bound=100)
        report = run_campaign(spec)
        assert report.violations == []
        for kind, check_yes, check_no in (
                ("log-concave-not-spiral", check_log_concave, check_spiral),
                ("spiral-not-log-concave", check_spiral, check_log_concave)):
            assert report.coverage[kind] > 0, f"no {kind} example in 10k trials"
            payload = report.examples_found[kind]
            seq = tuple(Fraction(v) for v in payload["sequence"])
            assert check_yes(seq).holds
            assert not check_no(seq).holds


def test_10_deterministic_reports():
    with reported(10, "identical flags give identical reports, any job count"):
        for spec in (
                CampaignSpec(target="theorem1", trials=400, seed=1010,
                             degree_range=(2, 24)),
                CampaignSpec(target="separation", trials=400, seed=1010,
                             degree_range=(2, 6))):
            docs = []
            for jobs in (1, 1, 2, 3):
                d = run_campaign(spec, jobs=jobs).to_json_dict()
                d.pop("wall_time")
                docs.append(json.dumps(d, sort_keys=True))
            assert len(set(docs)) == 1
