"""Command-line behavior: output formats, exit codes, input diagnostics.

Exit code contract: 0 when everything holds, 1 when a property fails or a
verification misses its tolerance, 2 on usage or input errors.
"""

import json
import sys

import pytest

from ratioshift import poly_ops
from ratioshift.cli import main


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


def test_check_prop_list_order_preserved(poly_file, capsys):
    path = poly_file("1 2 3")
    code, out, _ = run(capsys, "check", "--props", "unimodal,spiral", path)
    del code
    names = [r["property"] for r in json.loads(out)["results"]]
    assert names == ["unimodal", "spiral"]


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
])
def test_verify_integral_float_failure_exits_one(capsys, m, x, error):
    code, out, err = run(capsys, "verify-integral", "--m", m, "--x", x)
    assert (code, out) == (1, "")
    assert err.startswith(f"ratioshift: the float check could not be completed: {error}")
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


def test_fuzz_unknown_target_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--target", "nope", "--trials", "5"])
    assert info.value.code == 2
    capsys.readouterr()


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
