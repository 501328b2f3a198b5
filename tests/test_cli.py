"""Command-line behavior: output formats, exit codes, input diagnostics.

Exit code contract: 0 when everything holds, 1 when a property fails or a
verification misses its tolerance, 2 on usage or input errors.
"""

import ast
import collections
import contextlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ratioshift
from ratioshift import cli, poly_ops
from ratioshift.cli import main
from ratioshift.fuzz_harness import TARGETS


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="coeffs.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- shift ---

def test_shift_outputs_one_rational_per_line(poly_file, capsys):
    path = poly_file("1\n1\n1\n")
    code, out, _ = run(capsys, "shift", "--c", "1", path)
    assert code == 0
    assert out.splitlines() == ["3", "3", "1"]


def test_shift_negative_rational_constant(poly_file, capsys):
    path = poly_file("1 1 1")
    code, out, _ = run(capsys, "shift", "--c", "-3/2", path)
    assert code == 0
    assert out.splitlines() == ["7/4", "-2", "1"]


def test_shift_naive_algo_flag(poly_file, capsys):
    path = poly_file("0\n0\n1\n")
    code, out, _ = run(capsys, "shift", "--c", "2", "--algo", "naive", path)
    assert code == 0
    assert out.splitlines() == ["4", "4", "1"]


def test_shift_accepts_comments_and_mixed_tokens(poly_file, capsys):
    path = poly_file("# header\n1/2 0.5  # same value twice\n3\n")
    code, out, _ = run(capsys, "shift", "--c", "0", path)
    assert code == 0
    assert out.splitlines() == ["1/2", "1/2", "3"]


def test_shift_zero_denominator_is_usage_error(poly_file, capsys):
    path = poly_file("1 2")
    code, _, err = run(capsys, "shift", "--c", "1/0", path)
    assert code == 2
    assert "zero denominator" in err


def test_shift_missing_file(capsys):
    code, _, err = run(capsys, "shift", "--c", "1", "/nonexistent/coeffs.txt")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("path", ["", "."])
def test_unreadable_path_is_one_cannot_read_line(capsys, path):
    # open() names the path it could not read: '' for an empty one.
    code, out, err = run(capsys, "check", "--props", "all", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"ratioshift: error: cannot read {path}: [Errno ")
    assert err.endswith(f": {path!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("shift", "--c", "1"), ("check", "--props", "all")])
def test_file_not_utf8_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe1 2 3\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"ratioshift: error: cannot read {path}: ")
    assert "utf-8" in err


def test_file_with_byte_order_mark_is_read(tmp_path, capsys):
    # Editors on some systems start UTF-8 text with U+FEFF; it is no token.
    path = tmp_path / "bom.txt"
    path.write_bytes("1\n1\n1\n".encode("utf-8-sig"))
    code, out, err = run(capsys, "shift", "--c", "1", str(path))
    assert (code, out.splitlines(), err) == (0, ["3", "3", "1"], "")


def test_bad_token_reports_line_and_column(poly_file, capsys):
    path = poly_file("1\n2 x7\n")
    code, _, err = run(capsys, "shift", "--c", "1", path)
    assert code == 2
    assert ":2:3:" in err


# CPython 3.11 (and 3.10.7 on) refuses int/str conversions past a digit
# limit, 4,300 by default; 0 means no limit.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(_DIGIT_LIMIT == 0,
                                       reason="interpreter has no int/str digit limit")


@needs_digit_limit
def test_shift_coefficient_past_digit_limit_is_usage_error(poly_file, capsys):
    path = poly_file("1" * (_DIGIT_LIMIT + 700))
    code, out, err = run(capsys, "shift", "--c", "1", path)
    assert (code, out) == (2, "")
    assert ":1:1:" in err and "too long to convert" in err


@needs_digit_limit
def test_shift_result_past_digit_limit_is_usage_error(poly_file, capsys):
    # Both inputs are under the limit; the constant coefficient of the
    # result, 1 + (10^k - 1) * 10^400, is over it.
    path = poly_file("1\n" + "9" * (_DIGIT_LIMIT - 300) + "\n")
    code, out, err = run(capsys, "shift", "--c", "1" + "0" * 400, path)
    assert (code, out) == (2, "")
    assert "too long to convert" in err


@needs_digit_limit
def test_check_detail_past_digit_limit_is_usage_error(poly_file, capsys):
    # The failing log-concavity detail quotes a_1^2 - a_2 a_0 = -10^(2k).
    a = "1" + "0" * (_DIGIT_LIMIT // 2 + 50)
    path = poly_file(f"{a} {a} 2{a}")
    code, out, err = run(capsys, "check", "--props", "log-concave", path)
    assert (code, out) == (2, "")
    assert "too long to convert" in err


def test_empty_file_is_usage_error(poly_file, capsys):
    path = poly_file("# nothing but comments\n")
    code, _, err = run(capsys, "shift", "--c", "1", path)
    assert code == 2
    assert "no coefficients" in err


# --- check ---

def test_check_all_holds_exit_zero(poly_file, capsys):
    # Only constant sequences satisfy all six properties at once
    # (nondecreasing plus final ratio a_m/a_0 <= 1 forces a_0 = a_m).
    path = poly_file("2\n2\n2\n")
    code, out, _ = run(capsys, "check", "--props", "all", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["inputs"]["coefficients"] == ["2", "2", "2"]
    assert [r["property"] for r in doc["results"]] == [
        "nonneg-nondecreasing", "unimodal", "spiral", "log-concave",
        "ratio-monotone", "no-internal-zeros"]
    assert all(r["status"] == "holds" for r in doc["results"])


def test_check_clears_the_file_once(poly_file, capsys, monkeypatch):
    # One Polynomial of the file goes to every requested checker.
    calls = []
    clear = poly_ops.clear_denominators
    monkeypatch.setattr(poly_ops, "clear_denominators",
                        lambda values: calls.append(values) or clear(values))
    path = poly_file("1/2 2/3 3/4 1/5")
    code, out, _ = run(capsys, "check", "--props", "all", path)
    assert code == 1 and len(json.loads(out)["results"]) == 6
    assert len(calls) == 1


def test_check_shifted_output_shape_props(poly_file, capsys):
    # A 1-shift image: unimodal falling tail, ratio monotone, log-concave.
    path = poly_file("3\n3\n1\n")
    code, out, _ = run(capsys, "check", "--props",
                       "ratio-monotone,log-concave,spiral,unimodal", path)
    assert code == 0
    assert all(r["status"] == "holds" for r in json.loads(out)["results"])


def test_check_failure_exit_one_with_witness(poly_file, capsys):
    path = poly_file("1\n1\n2\n")  # final ratio a_2/a_0 = 2 > 1
    code, out, _ = run(capsys, "check", "--props", "ratio-monotone", path)
    assert code == 1
    result = json.loads(out)["results"][0]
    assert result["status"] == "fails"
    assert result["witness"]["indices"] == [2, 0]
    assert result["witness"]["values"] == ["2", "1"]


def test_check_not_applicable_exit_one(poly_file, capsys):
    path = poly_file("1\n0\n2\n")
    code, out, _ = run(capsys, "check", "--props", "spiral", path)
    assert code == 1
    assert json.loads(out)["results"][0]["status"] == "not-applicable"


def test_check_unknown_property_usage_error(poly_file, capsys):
    path = poly_file("1 2 3")
    code, _, err = run(capsys, "check", "--props", "bogus", path)
    assert code == 2
    assert "unknown properties" in err


@pytest.mark.parametrize("props", ["all,foo", "foo,all", "log-concave,all,foo"])
def test_check_unknown_property_beside_all_usage_error(poly_file, capsys, props):
    # 'all' does not swallow a misspelt name next to it.
    path = poly_file("1 2 3")
    code, out, err = run(capsys, "check", "--props", props, path)
    assert code == 2
    assert out == ""
    assert "unknown properties ['foo']" in err


@pytest.mark.parametrize("props", [",", " , ,", ""])
def test_check_without_a_property_is_usage_error(poly_file, capsys, props):
    path = poly_file("1 2 3")
    code, out, err = run(capsys, "check", "--props", props, path)
    assert (code, out, err) == (2, "", "ratioshift: error: no properties requested\n")


def test_check_prop_list_order_preserved(poly_file, capsys):
    path = poly_file("1 2 3")
    code, out, _ = run(capsys, "check", "--props", "unimodal,spiral", path)
    del code
    names = [r["property"] for r in json.loads(out)["results"]]
    assert names == ["unimodal", "spiral"]


# C(200, k) 2^600 ties every ratio link exactly, so the checkers' floor view
# proves none of them and the exact products decide: it holds. One unit more
# on the last entry breaks chain A's first link. 2^k 3^(200-k) 2^600 ties
# every log-concave link exactly: it holds again. One unit less on entry 100
# breaks link 100 alone.
_TIE = [math.comb(200, k) << 600 for k in range(201)]
_GEO = [2 ** k * 3 ** (200 - k) << 600 for k in range(201)]


@pytest.mark.parametrize("row, props, indices", [
    (_TIE, "ratio-monotone,log-concave", None),
    (_TIE[:-1] + [_TIE[-1] + 1], "ratio-monotone,log-concave", [200, 0, 199, 1]),
    (_GEO, "log-concave", None),
    ([v - (k == 100) for k, v in enumerate(_GEO)], "log-concave", [99, 100, 101]),
], ids=["tie", "broken", "geo", "geo_broken"])
def test_check_decides_exact_ties_by_the_exact_products(poly_file, capsys, row, props,
                                                        indices):
    path = poly_file(" ".join(map(str, row)) + "\n")
    code, out, _ = run(capsys, "check", "--props", props, path)
    results = json.loads(out)["results"]
    if indices is None:
        assert code == 0
        assert all(r["status"] == "holds" for r in results)
    else:
        assert code == 1
        assert results[0]["witness"]["indices"] == indices


# --- boros-moll ---

def test_boros_moll_row(capsys):
    code, out, _ = run(capsys, "boros-moll", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["3/8", "3/4", "3/2"]


def test_boros_moll_power_basis(capsys):
    code, out, _ = run(capsys, "boros-moll", "--m", "2", "--power-basis")
    assert code == 0
    assert out.splitlines() == ["21/8", "15/4", "3/2"]


def test_boros_moll_json_report(capsys):
    code, out, _ = run(capsys, "boros-moll", "--m", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "boros-moll"
    assert doc["results"][0]["coefficients"] == ["1/2", "1"]
    assert "seconds" in doc["timing"]


def test_boros_moll_negative_m_usage_error(capsys):
    code, _, err = run(capsys, "boros-moll", "--m", "-1")
    assert code == 2
    assert "--m" in err


# --- verify-integral ---

def test_verify_integral_pass(capsys):
    code, out, _ = run(capsys, "verify-integral", "--m", "1", "--x", "0.5")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["pass"] is True
    assert result["rel_err"] <= 1e-8


def test_verify_integral_bad_tol(capsys):
    code, _, err = run(capsys, "verify-integral", "--m", "0", "--x", "1.0",
                       "--tol", "0")
    assert code == 2
    assert "tolerance" in err


def test_verify_integral_x_out_of_domain(capsys):
    code, _, err = run(capsys, "verify-integral", "--m", "0", "--x", "-2.0")
    assert code == 2
    assert "x > -1" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_integral_non_finite_tol_is_domain_error(capsys, tol):
    code, out, err = run(capsys, "verify-integral", "--m", "3", "--x", "1.0", "--tol", tol)
    assert (code, out) == (2, "")
    assert "tolerance must be finite" in err


@pytest.mark.parametrize("x", ["inf", "nan"])
def test_verify_integral_non_finite_x_is_domain_error(capsys, x):
    code, out, err = run(capsys, "verify-integral", "--m", "3", "--x", x)
    assert (code, out) == (2, "")
    assert "need finite x > -1" in err


def test_verify_integral_x_past_half_the_largest_float_is_domain_error(capsys):
    # 2x overflows there; the quadrature used to run on nan and exit 1.
    code, out, err = run(capsys, "verify-integral", "--m", "3", "--x", "1e308")
    assert (code, out) == (2, "")
    assert "2x finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("m, x, error", [
    ("2000", "1.0", "OverflowError: "),  # from pow; its text is the C library's
    ("54", "-0.999999", "OverflowError: intermediate overflow in fsum"),
    ("57", "-0.999999", "ZeroDivisionError: float division by zero"),
    ("3", "1e80", "OverflowError: "),  # (2x)^4 at u = 1, from pow
])
def test_verify_integral_float_failure_exits_one(capsys, m, x, error):
    code, out, err = run(capsys, "verify-integral", "--m", m, "--x", x)
    assert (code, out) == (1, "")
    assert err.startswith(f"ratioshift: the float check could not be completed: {error}")
    assert err.count("\n") == 1


def test_verify_integral_quadrature_not_converging_exits_one(capsys):
    # At x = 1e12 Simpson refinement does not converge within its iteration
    # limit: QuadratureError, exit 1, one line.
    code, out, err = run(capsys, "verify-integral", "--m", "3", "--x", "1e12")
    assert (code, out) == (1, "")
    assert err.startswith("ratioshift: quadrature did not converge:")
    assert err.count("\n") == 1


# --- fuzz ---

def test_fuzz_clean_campaign_exit_zero(capsys):
    code, out, _ = run(capsys, "fuzz", "--target", "lemma1", "--trials", "40",
                       "--seed", "5")
    assert code == 0
    report = json.loads(out)["results"][0]
    assert report["trials_run"] == 40
    assert report["violations"] == []
    assert report["spec"]["seed"] == 5


def test_fuzz_reports_are_flag_deterministic(capsys):
    argv = ("fuzz", "--target", "separation", "--trials", "60", "--seed", "9",
            "--degree-min", "2", "--degree-max", "5")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    a, b = json.loads(out1)["results"][0], json.loads(out2)["results"][0]
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_fuzz_prints_stats_inside_the_report(capsys):
    code, out, _ = run(capsys, "fuzz", "--target", "theorem1", "--trials", "30",
                       "--seed", "5", "--degree-min", "2", "--degree-max", "6")
    assert code == 0
    doc = json.loads(out)
    report = doc["results"][0]
    stats = report["stats"]
    assert set(stats) == {"degrees", "input_bits_max", "input_den_bits_max",
                          "shifted_bits_max", "shifted_den_bits_max",
                          "not_applicable_trials"}
    assert sum(stats["degrees"].values()) == 30
    assert set(stats["degrees"]) <= {"2", "3", "4", "5", "6"}
    # Timings stay out of the report and its stats: wall_time and the CLI timing block.
    assert "timing" not in report and "timing" not in stats
    assert "seconds" in doc["timing"]


# Separation trials read their audit and examples from a table of rows,
# keyed by the four statuses, that each process builds for itself, and every
# draw reads runs of one range each in one loop: a pool of two must report
# what one process does.
@pytest.mark.parametrize("target, argv", [
    ("separation", ("--trials", "20000", "--degree-max", "6")),
    *((target, ("--trials", "5000"))
      for target in ("lemma3", "lemma1", "theorem1", "lemma2", "corollary")),
])
def test_fuzz_reports_the_same_with_one_or_two_jobs(capsys, target, argv):
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "fuzz", "--target", target, "--seed", "7", *argv,
                           "--jobs", jobs)
        results = json.loads(out)["results"]
        for result in results:
            result.pop("wall_time")
        reports.append((code, results))
    assert reports[0] == reports[1]


def test_fuzz_corollary_small_c_needs_flag(capsys):
    code, _, err = run(capsys, "fuzz", "--target", "corollary", "--trials", "10",
                       "--seed", "1", "--c", "1/2")
    assert code == 2
    assert "c >= 1" in err
    code, out, _ = run(capsys, "fuzz", "--target", "corollary", "--trials", "10",
                       "--seed", "1", "--c", "1/2", "--allow-c-below-one")
    assert code == 0
    assert json.loads(out)["results"][0]["violations"] == []


def test_fuzz_refuses_c_outside_corollary(capsys):
    # theorem1 trials shift by 1; a report must not name a c it never used.
    code, out, err = run(capsys, "fuzz", "--target", "theorem1", "--trials", "10",
                         "--seed", "1", "--c", "3/2")
    assert code == 2
    assert out == ""
    assert "corollary" in err
    code, out, _ = run(capsys, "fuzz", "--target", "separation", "--trials", "10",
                       "--seed", "1", "--c", "1/2", "--allow-c-below-one")
    assert code == 2
    assert out == ""


def test_fuzz_lemma3_degree_guard(capsys):
    code, _, err = run(capsys, "fuzz", "--target", "lemma3", "--trials", "10",
                       "--seed", "1", "--degree-min", "1")
    assert code == 2
    assert "lemma3" in err


def test_fuzz_out_of_memory_is_input_error(capsys, monkeypatch):
    # Stands in for a degree too large to hold, such as --degree-min 10**11.
    def exhaust(spec, jobs=1):
        raise MemoryError

    monkeypatch.setattr(cli, "run_campaign", exhaust)
    code, out, err = run(capsys, "fuzz", "--target", "theorem1", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "ratioshift: error: out of memory\n"


@pytest.mark.parametrize("target", ["theorem1", "lemma2", "lemma3", "corollary", "separation"])
def test_fuzz_degree_past_any_list_is_input_error(capsys, target):
    # A degree whose draw could not even be listed used to end in an
    # OverflowError traceback ("cannot fit 'int' into an index-sized integer").
    code, out, err = run(capsys, "fuzz", "--target", target, "--trials", "2",
                         "--degree-max", "100000000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("ratioshift: error: degree range end 100000000000000000000 ")
    assert err.count("\n") == 1
    # lemma1 draws no degree, so the range does not stop it.
    code, _, _ = run(capsys, "fuzz", "--target", "lemma1", "--trials", "2",
                     "--degree-max", "100000000000000000000")
    assert code == 0


def test_fuzz_unknown_target_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--target", "nope", "--trials", "5"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("option, argv", [
    ("--c", ("shift", "FILE", "--c=--")), ("--c", ("shift", "FILE", "--c", "--")),
    ("--algo", ("shift", "FILE", "--c", "1", "--algo=--")),
    ("--props", ("check", "FILE", "--props=--")),
    ("--m", ("boros-moll", "--m=--")),
    ("--m", ("verify-integral", "--m=--", "--x", "1")),
    ("--x", ("verify-integral", "--m", "1", "--x=--")),
    ("--tol", ("verify-integral", "--m", "1", "--x", "1", "--tol=--")),
    ("--target", ("fuzz", "--target=--")),
    ("--c", ("fuzz", "--target", "lemma1", "--c", "--")),
    ("--trials", ("fuzz", "--target", "lemma1", "--trials=--")),
    ("--tri", ("fuzz", "--target", "lemma1", "--tri=--")),
    ("--m", ("--", "boros-moll", "--m=--")),
    ("--c", ("shift", "FILE", "--", "--c=--")),
])
def test_dashdash_as_an_option_value_is_usage_error(poly_file, capsys, option, argv):
    # Older argparse hands an option value of "--" to the program as an
    # empty list, which ended in an AttributeError or TypeError traceback,
    # and newer argparse as the string "--", each option failing in its own
    # way. main refuses it before parsing, so every version gives this line.
    path = poly_file("1 2 3\n")
    code, out, err = run(capsys, *[path if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"ratioshift: error: {option}: '--' is not a value\n"


# --- parser-level behavior ---

def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("ratioshift ")


# --- any argv: an exit code, never an exception ---
# A seeded fuzz of main, standard library only. Each case is a subcommand
# with up to two of its options given an edge value: four times in five
# from a pool that fits the option's type (int-shaped for --m, --trials and
# the other int options, float-shaped for --x and --tol, rational text for
# --c, comma lists for --props), else from the general edge pool, which a
# choice option (--algo, --target) always takes. Each other option takes a
# value from a small valid pool, or one time in five from its own invalid
# values (fft, 1.5, 1e80, 1e308, -2, a --degree-min above every
# --degree-max). A required option is left out one time in twenty, and in
# 8% of the cases a junk token, --help and --version among them, goes
# anywhere. The coefficient file holds valid, edge, random or special bytes,
# or is missing, or is a directory. main returns 0, 1 or 2; only argparse's
# own exits (usage errors, --help, --version) leave it, as SystemExit with 2
# or 0, which __main__.run passes on. Trials, degrees and m stay small, and
# --trials is always given, since its default is 1,000. The 60-digit number
# is withheld where it names an amount of work: as --trials or --jobs it
# would run for ages or start a pool, and as --x the quadrature runs all its
# doublings before it gives up.

_SIXTY = "1" * 60
_EDGE = ["--", "-", "0/0", "1/0", "nan", "inf", "\ufeff1", _SIXTY, "-3", "true"]
_WORK = {"--trials", "--jobs", "--x"}
_INT_EDGE = ["0", "-3", _SIXTY]
_FLOAT_EDGE = ["0", "-3", "nan", "inf", "1e-300"]
_TYPED_EDGE = {
    **dict.fromkeys(["--m", "--trials", "--seed", "--degree-min", "--degree-max",
                     "--bound", "--jobs"], _INT_EDGE),
    "--x": _FLOAT_EDGE, "--tol": _FLOAT_EDGE,
    "--c": ["0", "-3", _SIXTY, "0/0", "1/0", "-7/2", "0.5"],
    "--props": [",", "all,all", " spiral , unimodal "],
}
_OPTIONS = {
    "shift": {"--c": ["1", "-3/2", "0", "2/3"], "--algo": ["horner", "naive"]},
    "check": {"--props": ["all", "log-concave", "ratio-monotone,spiral",
                          "unimodal,no-internal-zeros,nonneg-nondecreasing"]},
    "boros-moll": {"--m": [str(m) for m in range(13)]},
    "verify-integral": {"--m": [str(m) for m in range(13)],
                        "--x": ["2.0", "-0.5", "0", "-0.99", "1e3"],
                        "--tol": ["1e-8", "1e-3"]},
    "fuzz": {"--target": list(TARGETS), "--trials": ["1", "3", "5"],
             "--seed": ["0", "7"], "--degree-min": ["0", "2"],
             "--degree-max": ["3", "5", "8"], "--bound": ["1", "10", "1000000"],
             "--c": ["1", "1", "3/2", "1/2"], "--jobs": ["1"]},
}
_INVALID = {"--algo": ["fft"], "--m": ["1.5"], "--x": ["1e80", "1e308", "-2"],
            "--degree-min": ["-2", "8"]}
_REQUIRED = {"--c", "--props", "--m", "--x", "--target"}
_FLAGS = {"boros-moll": ("--power-basis", "--json"),
          "fuzz": ("--integer-only", "--allow-c-below-one")}
_JUNK = ["--", "-", "--bogus", "--help", "--version", "--m", "-1", "nan", "\uff11", ""]
# C(12, k) 2^600: every ratio link an exact tie, long and wide enough for the
# finders' floor view; one unit more on a_12 breaks chain A's first link.
_WIDE = [math.comb(12, k) << 600 for k in range(13)]
_SPECIAL_FILES = [b"1/0", "\uff11\uff12 \uff13".encode(), b"1" * 4301, b"", b"# only\n",
                  b"1e5 2", b"\xff\xfe1",
                  *(" ".join(map(str, row)).encode()
                    for row in (_WIDE, _WIDE[:-1] + [_WIDE[-1] + 1]))]
_JSON_COMMANDS = {"check", "verify-integral", "fuzz"}


def _seeded_case(rng, drawn):
    """The subcommand, one argument list (``FILE`` for the coefficient
    file, ``MISSING`` for a file that is not there) and the file's bytes.
    Each value it takes from _EDGE, _INVALID or _JUNK goes into ``drawn`` as
    (pool name, value)."""
    def draw(name, pool):
        value = rng.choice(pool)
        drawn.add((name, value))
        return value

    command = rng.choice(list(_OPTIONS))
    argv = [command]
    options = _OPTIONS[command]
    edged = rng.sample(list(options), min(len(options), rng.choice([0, 0, 1, 1, 2])))
    for option, pool in options.items():
        if option == "--trials" or rng.random() < (0.95 if option in _REQUIRED else 0.7):
            if option in edged:
                typed = option in _TYPED_EDGE and rng.random() < 0.8
                pool = _TYPED_EDGE[option] if typed else _EDGE
                pool = [v for v in pool if not (v == _SIXTY and option in _WORK)]
                value = rng.choice(pool) if typed else draw("edge", pool)
            elif option in _INVALID and rng.random() < 0.2:
                value = draw("invalid", _INVALID[option])
            else:
                value = rng.choice(pool)
            argv += [f"{option}={value}"] if rng.random() < 0.2 else [option, value]
    argv += [flag for flag in _FLAGS.get(command, ()) if rng.random() < 0.3]
    if command in ("shift", "check") and rng.random() < 0.95:
        argv.insert(rng.choice([1, len(argv)]), rng.choice(["FILE"] * 8 + ["MISSING", "."]))
    if rng.random() < 0.08:
        argv.insert(rng.randint(0, len(argv)), draw("junk", _JUNK))
    kind = rng.randrange(5)
    if kind == 0:  # valid rationals
        tokens = [f"{rng.randint(-5, 50)}/{rng.randint(1, 9)}" for _ in range(rng.randint(1, 9))]
    elif kind == 1:  # valid entries with one edge token among them
        tokens = [str(rng.randint(0, 9)) for _ in range(rng.randint(0, 8))]
        tokens.insert(rng.randint(0, len(tokens)), draw("edge", _EDGE))
    elif kind == 2:  # a nondecreasing row, maybe with a 60-digit entry
        tokens = sorted((rng.choice([str(rng.randint(1, 99)), _SIXTY])
                         for _ in range(rng.randint(1, 9))), key=int)
    elif kind == 3:  # random bytes
        return command, argv, bytes(rng.randrange(256) for _ in range(rng.randint(0, 30)))
    else:  # a special file
        return command, argv, rng.choice(_SPECIAL_FILES)
    sep = rng.choice([" ", "\n", " # note\n"])
    return command, argv, ("\ufeff" * (rng.random() < 0.1) + sep.join(tokens)).encode()


def test_seeded_argv_ends_in_an_exit_code(tmp_path):
    rng = random.Random(31)
    path = tmp_path / "coeffs.txt"
    files = {"FILE": str(path), "MISSING": str(tmp_path / "missing.txt")}
    commands, drawn, codes = set(), set(), collections.Counter()
    for _ in range(600):
        command, argv, content = _seeded_case(rng, drawn)
        path.write_bytes(content)
        argv = [files.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
        commands.add(command)
        codes[code] += 1
        if code == "exit 0":  # --help or --version
            assert out.getvalue() and err.getvalue() == "", argv
        elif code == "exit 2":  # argparse: a usage line, then its error
            assert out.getvalue() == "", argv
            assert ": error: " in err.getvalue().splitlines()[-1], argv
        elif code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("ratioshift: error: "), argv
            assert err.getvalue().count("\n") == 1, argv
        elif command in _JSON_COMMANDS or "--json" in argv:
            assert code in (0, 1), argv
            if code == 1 and out.getvalue() == "":  # a float check not completed
                assert command == "verify-integral", argv
                assert err.getvalue().count("\n") == 1, argv
            else:
                assert json.loads(out.getvalue())["command"] == command, argv
        else:
            assert code == 0, argv
    assert commands == set(_OPTIONS)
    assert set(codes) == {0, 1, 2, "exit 0", "exit 2"}
    # 179 of the 600 cases reach a verdict (exit 0 or 1): the floor has room
    # for small changes to the pools.
    assert codes[0] + codes[1] >= 150, codes
    assert drawn >= {*(("edge", v) for v in _EDGE), *(("junk", v) for v in _JUNK),
                     *(("invalid", v) for pool in _INVALID.values() for v in pool)}


# --- the console script: failed writes and interrupts ---
# A failed write to stdout and an interrupt are exits that only the console
# script, __main__.run, decides, so these tests launch it in a fresh
# interpreter as `python -m ratioshift`. Every write to stdout goes through
# cli._write, which flushes it: with stdout buffered (the default for a pipe
# or a file) a write fails in that flush; unbuffered, it fails in the write
# itself.

_SRC = str(Path(ratioshift.__file__).resolve().parent.parent)


def _console(*argv, unbuffered=False, **popen):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = _SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "ratioshift", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **popen)


@pytest.mark.parametrize("argv, unbuffered", [
    (("boros-moll", "--m", "400"), False), (("boros-moll", "--m", "400"), True),
    (("boros-moll", "--m", "3"), False),
    # argparse writes --help and --version itself and exits through
    # SystemExit; left to itself it drops a write that fails at once (stdout
    # unbuffered) and exits 0. Subcommand parsers write the same way.
    (("--version",), False), (("--version",), True),
    (("--help",), False), (("--help",), True), (("fuzz", "--help"), True),
    # Each subcommand's own writes; FILE is a coefficient file.
    *((argv, unbuffered) for argv in (
        ("shift", "FILE", "--c", "1"), ("check", "FILE", "--props", "all"),
        ("verify-integral", "--m", "2", "--x", "1"),
        ("fuzz", "--target", "theorem1", "--trials", "20"),
        ("boros-moll", "--m", "3", "--json"))
      for unbuffered in (False, True)),
])
def test_closed_pipe_is_one_line_and_exit_two(poly_file, argv, unbuffered):
    # As `ratioshift boros-moll --m 400 | head -c 10`, with the reader gone
    # before the first write, so the write fails whatever its size.
    path = poly_file("1\n2\n2\n")
    argv = [path if arg == "FILE" else arg for arg in argv]
    proc = _console(*argv, unbuffered=unbuffered, stdout=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "ratioshift: error: cannot write output\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_device_is_one_line_and_exit_two(poly_file, unbuffered):
    path = poly_file("2\n2\n2\n")
    with open("/dev/full", "w") as full:
        proc = _console("check", "--props", "all", path, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "ratioshift: error: cannot write output\n"


def test_only_cli_write_writes_to_stdout():
    # A print to stdout, or a call on sys.stdout, outside cli._write would
    # leave a failed write unmapped: buffered, Python's flush at exit would
    # end a closed pipe in exit 120 and an "Exception ignored" message.
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writer = [node for node in tree.body if path.name == "cli.py"
                  and isinstance(node, ast.FunctionDef) and node.name == "_write"]
        allowed = {id(node) for top in writer for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = ast.unparse(node.func)
            to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                            for k in node.keywords)
            if ((func == "print" and not to_stderr)
                    or (func.startswith("sys.stdout.") and func != "sys.stdout.fileno")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_interrupt_is_one_line_and_exit_130():
    # A campaign far longer than the test, interrupted once it runs; the
    # timeout bounds it if the interrupt were lost.
    proc = _console("fuzz", "--target", "theorem1", "--trials", str(10 ** 8),
                  stdout=subprocess.PIPE)
    try:
        time.sleep(1.5)  # past the imports, into the campaign
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert (out, err) == ("", "ratioshift: interrupted\n")


# A meta path finder that raises KeyboardInterrupt when asked for one module,
# as a SIGINT would while the package loads; then the CLI is launched as
# `python -m ratioshift` does, or as the script that pip writes for the
# console script's target in pyproject.toml.
_INTERRUPT_AT = """
import sys
class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == {module!r}:
            raise KeyboardInterrupt
sys.meta_path.insert(0, Interrupt())
sys.argv = ["ratioshift", "--version"]
"""
_SCRIPT = re.search(r'^ratioshift = "([\w.]+):(\w+)"$',
                    (Path(_SRC).parent / "pyproject.toml").read_text(encoding="utf-8"), re.M)
_LAUNCH = {
    "python -m": "import runpy\n"
                 "runpy.run_module('ratioshift', run_name='__main__', alter_sys=True)",
    "console script": f"from {_SCRIPT[1]} import {_SCRIPT[2]}; sys.exit({_SCRIPT[2]}())",
}


@pytest.mark.parametrize("launch", _LAUNCH)
@pytest.mark.parametrize("module", ["ratioshift.numeric_core", "ratioshift.shape_props",
                                    "ratioshift.fuzz_harness", "ratioshift.cli", "argparse"])
def test_interrupt_while_the_package_loads_is_one_line_and_exit_130(launch, module):
    code = _INTERRUPT_AT.format(module=module) + _LAUNCH[launch]
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": _SRC},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "ratioshift: interrupted\n")
