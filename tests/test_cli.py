"""Command-line behavior: output formats, exit codes, input diagnostics.

Exit code contract: 0 when everything holds, 1 when a property fails or a
verification misses its tolerance, 2 on usage or input errors.
"""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratioshift
from ratioshift import cli, poly_ops
from ratioshift.cli import main
from ratioshift.fuzz_harness import TARGETS
from ratioshift.shape_props import CHECKERS


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
    ("3", "1e80", "OverflowError: "),  # (2x)^4 at u = 1, from pow
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
# argv is built from the real subcommands and flags, values near and past
# their limits, junk tokens and coefficient files of any bytes. main returns
# 0, 1 or 2; only argparse's own exits (usage errors, --help, --version)
# leave it, as SystemExit with 2 or 0, which entry maps the same way. Every
# number is bounded (degree <= 8, trials <= 5, m <= 20) so no example runs a
# long campaign or quadrature.

def _mostly(valid, *invalid):
    """Tokens drawn from ``valid`` three times in four, else from ``invalid``."""
    return st.sampled_from([*valid, *valid, *valid, *invalid])


# C(12, k) 2^600: every ratio link an exact tie, long and wide enough for the
# finders' floor view; one unit more on a_12 breaks chain A's first link.
_WIDE = [math.comb(12, k) << 600 for k in range(13)]

_FILES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"1/0", "\uff11\uff12 \uff13".encode(), b"1" * 4301, b"", b"# only\n",
                     b"1 2 3", b"0 1 0 2", b"-1/2 3 0.25", b"1e5 2", b"\xff\xfe1",
                     *(" ".join(map(str, row)).encode()
                       for row in (_WIDE, _WIDE[:-1] + [_WIDE[-1] + 1]))]),
    st.lists(st.fractions(max_denominator=50).map(str), min_size=1, max_size=9)
    .map(lambda tokens: " ".join(tokens).encode()),
)

_RATIONALS = _mostly(["1", "-3/2", "0", "2/3", "1/2", "3", "-0.25"],
                     "1/0", "abc", "\uff11", "1" + "0" * 400)
_UP_TO = {n: [str(k) for k in range(n + 1)] for n in (5, 8, 20)}
_OPTIONS = {
    "shift": {"--c": _RATIONALS, "--algo": _mostly(["horner", "naive"], "fft")},
    "check": {"--props": st.lists(_mostly([*CHECKERS, "all"], "foo", ""),
                                  min_size=1, max_size=3).map(",".join)},
    "boros-moll": {"--m": _mostly(_UP_TO[20], "-1", "x", "1.5")},
    "verify-integral": {
        "--m": _mostly(_UP_TO[20], "-1", "x", "1.5"),
        "--x": _mostly(["2.0", "-0.5", "0", "-0.99", "1e3", "1e-300"],
                       "1e80", "1e308", "-1", "-2", "nan", "inf", "x"),
        "--tol": _mostly(["1e-8", "1e-3"], "0", "-1", "nan", "inf", "x"),
    },
    "fuzz": {
        "--target": _mostly(TARGETS, "nope"),
        "--trials": _mostly(_UP_TO[5], "-1", "x"),
        "--seed": _mostly(_UP_TO[8], "-3"),
        "--degree-min": _mostly(_UP_TO[5], "-2", "8"),
        "--degree-max": _mostly(_UP_TO[8][4:], "-1", "0"),
        "--bound": _mostly(["1", "2", "10", "1000000"], "0", "-1"),
        # A --c other than 1 is an error outside corollary.
        "--c": _mostly(["1", "1", "3/2"], "1/2", "-3/2", "0", "x"),
        "--jobs": _mostly(["1"], "0", "-1"),
    },
}
_FLAGS = {"boros-moll": ("--power-basis", "--json"),
          "fuzz": ("--integer-only", "--allow-c-below-one")}
_JUNK = st.sampled_from(["--", "-", "--bogus", "--help", "--version", "--m", "-1", "nan",
                         "\uff11", ""])
_USUALLY = _mostly([True], False)
_ALMOST_ALWAYS = _mostly([True] * 6, False)  # what is required is left out 1 time in 19
_REQUIRED = ("--c", "--props", "--m", "--x", "--target")


@st.composite
def _argv(draw):
    command = draw(_mostly(list(_OPTIONS), "nope", ""))
    argv = [command]
    optional = st.booleans() if command == "fuzz" else _USUALLY  # fuzz has the most
    for option, values in _OPTIONS.get(command, {}).items():
        if draw(_ALMOST_ALWAYS if option in _REQUIRED else optional):
            argv += [option, draw(values)]
    argv += [flag for flag in _FLAGS.get(command, ()) if draw(st.booleans())]
    if command in ("shift", "check") and draw(_ALMOST_ALWAYS):
        argv.append(draw(_mostly(["FILE"], "missing.txt", ".")))
    if not draw(_USUALLY):  # a junk token, one time in four
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argv(), _FILES)
def test_any_argv_ends_in_an_exit_code(argv, content):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coeffs.txt")
        with open(path, "wb") as f:
            f.write(content)
        argv = [path if a == "FILE" else os.path.join(tmp, a) if a == "missing.txt" else a
                for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2)
                return
    assert code in (0, 1, 2)
    if code == 2:
        # An input error prints one line and nothing on stdout.
        assert out.getvalue() == ""
        assert err.getvalue().startswith("ratioshift: error: ")
        assert err.getvalue().count("\n") == 1


# --- the console script: failed writes and interrupts ---
# main() returns exit codes to its caller; these run entry(), as the
# installed console script does, in a fresh interpreter. With stdout
# buffered (the default for a pipe or a file) a write fails when entry
# flushes it; unbuffered, it fails in the write itself.

_SRC = str(Path(ratioshift.__file__).resolve().parent.parent)


def _entry(*argv, unbuffered=False, **popen):
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
])
def test_closed_pipe_is_one_line_and_exit_two(argv, unbuffered):
    # As `ratioshift boros-moll --m 400 | head -c 10`, with the reader gone
    # before the first write, so the write fails whatever its size.
    proc = _entry(*argv, unbuffered=unbuffered, stdout=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "ratioshift: error: cannot write output\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_device_is_one_line_and_exit_two(poly_file, unbuffered):
    path = poly_file("2\n2\n2\n")
    with open("/dev/full", "w") as full:
        proc = _entry("check", "--props", "all", path, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "ratioshift: error: cannot write output\n"


def test_interrupt_is_one_line_and_exit_130():
    # A campaign far longer than the test, interrupted once it runs; the
    # timeout bounds it if the interrupt were lost.
    proc = _entry("fuzz", "--target", "theorem1", "--trials", str(10 ** 8),
                  stdout=subprocess.PIPE)
    try:
        time.sleep(1.5)  # past the imports, into the campaign
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert (out, err) == ("", "ratioshift: interrupted\n")
