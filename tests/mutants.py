"""Mutation checks: each entry breaks one piece of the package on purpose and
names the tests that must then fail.

Run it from the repository root with ``python tests/mutants.py``. It uses
the standard library and pytest, and pytest does not collect it (its name
does not start with ``test_``). For each entry it copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
entry's ``old`` text with its ``new`` text in ``file`` there, and runs the
entry's tests against that copy with ``-x -q -p no:cacheprovider``. The
mutant is killed when a test fails. It survives when every test passes.
Any other outcome is an error: nothing collected, a collection error, or
no result within ``TIMEOUT_S``. The script prints one line per entry and
exits 1 if any mutant survived or any run ended in an error.

``tests/test_mutants.py`` checks in tier-1 that every ``old`` text occurs
exactly once in its file. A change that removes a mutated line must then
update this list on purpose. A change that adds a fast path adds the
mutants that guard it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

_LATTICE_TEST = "tests/test_shape_props.py::test_lattice_statuses_match_fraction_reference"
_DRAW_TEST = "tests/test_fuzz_harness.py::test_gen_nondecreasing_seq_matches_randint_reference"
_STREAM_TEST = "tests/test_fuzz_harness.py::test_randints_is_randint_stream"
_PARSE_TEST = "tests/test_numeric_core.py::test_parse_rational_rejects"
_SHIFT_TEST = "tests/test_poly_ops.py::test_horner_matches_oracle_at_every_short_length"
_ROW_TEST = "tests/test_boros_moll.py::test_row_recurrence_matches_coefficient_formula"
_LEVEL_TEST = "tests/test_quartic_integral.py::test_level_yields_n_points_each_the_literal_value"
_QUADRATURE_TEST = "tests/test_quartic_integral.py::test_quadrature_is_literal_simpson_bit_for_bit"
_REPORT_TEST = "tests/test_records.py::test_report_is_the_fields_in_order_and_survives_json"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each under tests/


MUTANTS = (
    # The lattice statuses read the four finders by name, in _LATTICE order.
    Mutant("lattice: spiral and log-concave slots swapped",
           "src/ratioshift/shape_props.py",
           "_HOLDS if _spiral_w(s) is None else _FAILS,\n"
           "                _HOLDS if _log_concave_w(s) is None else _FAILS,",
           "_HOLDS if _log_concave_w(s) is None else _FAILS,\n"
           "                _HOLDS if _spiral_w(s) is None else _FAILS,",
           (_LATTICE_TEST,)),
    Mutant("lattice: a nonpositive row always unimodal",
           "src/ratioshift/shape_props.py",
           "_NOT_APPLICABLE,\n            _HOLDS if _unimodal_w(s) is None else _FAILS)",
           "_NOT_APPLICABLE,\n            _HOLDS)",
           (_LATTICE_TEST,)),
    Mutant("lattice: a zero entry taken as positive",
           "src/ratioshift/shape_props.py",
           "    if min(s) > 0:\n",
           "    if min(s) >= 0:\n",
           (_LATTICE_TEST,)),
    # A positive-only property is not applicable on a zero entry.
    Mutant("verdict: a zero entry taken as positive",
           "src/ratioshift/shape_props.py",
           "    if positive_only and min(s) <= 0:\n",
           "    if positive_only and min(s) < 0:\n",
           ("tests/test_shape_props.py::test_log_concave_not_applicable_on_zero",)),
    # A separation row's example kinds: the first property holds, the second fails.
    Mutant("separation examples: holds and fails swapped",
           "src/ratioshift/fuzz_harness.py",
           "if statuses[holds] is _HOLDS and statuses[fails] is _FAILS",
           "if statuses[fails] is _HOLDS and statuses[holds] is _FAILS",
           ("tests/test_fuzz_harness.py::test_separation_campaign_finds_and_counts_examples",)),
    # lemma2_preserved decides ratio monotonicity on the cleared ints.
    Mutant("lemma2: a zero entry taken as positive",
           "src/ratioshift/theorem_engine.py",
           "return min(s) > 0 and _ratio_monotone_w(s) is None",
           "return min(s) >= 0 and _ratio_monotone_w(s) is None",
           (_LATTICE_TEST,)),
    Mutant("lemma2: no positivity test",
           "src/ratioshift/theorem_engine.py",
           "return min(s) > 0 and _ratio_monotone_w(s) is None",
           "return _ratio_monotone_w(s) is None",
           (_LATTICE_TEST,)),
    # The floor view only proves a link; it never decides a failure.
    Mutant("floor view: one + 1 dropped",
           "src/ratioshift/shape_props.py",
           "(t[n0] + 1) * (t[d1] + 1)",
           "(t[n0] + 1) * t[d1]",
           ("tests/test_shape_props.py::test_integer_checkers_match_fraction_reference",)),
    # One reader, _draw_run, takes every value by CPython's randint rule.
    Mutant("randint rule: r <= n kept",
           "src/ratioshift/fuzz_harness.py",
           "            if r < n:\n",
           "            if r <= n:\n",
           (_STREAM_TEST,)),
    Mutant("randint rule: (n - 1).bit_length() bits",
           "src/ratioshift/fuzz_harness.py",
           "    k = n.bit_length()\n",
           "    k = (n - 1).bit_length()\n",
           (_STREAM_TEST,)),
    # A nondecreasing draw reads two runs, on the seq and seq-den labels.
    Mutant("draw: seq and seq-den labels swapped",
           "src/ratioshift/fuzz_harness.py",
           "    nums = _draw_run(label, 1 if positive else 0, bound, degree + 1)\n"
           "    if integer_only:  # the second run holds the redraw's numerator alone\n"
           "        nums += _draw_run(f\"{label}-den\", 1, bound, 1)\n"
           "        dens = [1] * (degree + 2)\n"
           "    else:  # the denominators, then the redraw's numerator and denominator\n"
           "        dens = _draw_run(f\"{label}-den\", 1, bound, degree + 3)\n",
           "    nums = _draw_run(f\"{label}-den\", 1 if positive else 0, bound, degree + 1)\n"
           "    if integer_only:  # the second run holds the redraw's numerator alone\n"
           "        nums += _draw_run(label, 1, bound, 1)\n"
           "        dens = [1] * (degree + 2)\n"
           "    else:  # the denominators, then the redraw's numerator and denominator\n"
           "        dens = _draw_run(label, 1, bound, degree + 3)\n",
           (_DRAW_TEST,)),
    Mutant("draw: the redraw's numerator read from the numerator run",
           "src/ratioshift/fuzz_harness.py",
           "nums += _draw_run(f\"{label}-den\", 1, bound, 1)",
           "nums += _draw_run(label, 1, bound, 1)",
           (_DRAW_TEST,)),
    Mutant("draw: the denominator run one value shorter",
           "src/ratioshift/fuzz_harness.py",
           "dens = _draw_run(f\"{label}-den\", 1, bound, degree + 3)",
           "dens = _draw_run(f\"{label}-den\", 1, bound, degree + 2)",
           (_DRAW_TEST,)),
    Mutant("draw: low ignored for positive",
           "src/ratioshift/fuzz_harness.py",
           "_draw_run(label, 1 if positive else 0, bound, degree + 1)",
           "_draw_run(label, 0, bound, degree + 1)",
           (_DRAW_TEST,)),
    # A shift by 1/q runs its passes four per sweep, then the rest in the
    # general single-pass loop. Loosened by one, the guard lets a sweep run
    # with three passes left, and its fourth pass then has no step: that
    # mutant is equivalent.
    Mutant("shift sweep: guard loosened by two",
           "src/ratioshift/poly_ops.py",
           "while i + 4 < n:",
           "while i + 2 < n:",
           (_SHIFT_TEST,)),
    Mutant("shift sweep: a tail step writes the wrong accumulator",
           "src/ratioshift/poly_ops.py",
           "out[i + 2] = s1 + s2",
           "out[i + 2] = s1 + s3",
           (_SHIFT_TEST,)),
    Mutant("shift sweep: the single passes start one late",
           "src/ratioshift/poly_ops.py",
           "for i in range(i, n - 1):",
           "for i in range(i + 1, n - 1):",
           (_SHIFT_TEST,)),
    Mutant("shift sweep: the passes left skipped",
           "src/ratioshift/poly_ops.py",
           "    if p != 0:\n",
           "    if p not in (0, 1):\n",
           (_SHIFT_TEST,)),
    # parse_rational gates its text on one anchored ASCII grammar before
    # Fraction reads it.
    Mutant("parser: grammar unanchored",
           "src/ratioshift/numeric_core.py",
           r'|\.[0-9]+)\Z")',
           r'|\.[0-9]+)")',
           (_PARSE_TEST,)),
    Mutant("parser: underscores taken as digits",
           "src/ratioshift/numeric_core.py",
           r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)\Z",
           r"[+-]?(?:[0-9_]+(?:/[0-9_]+)?|[0-9_]+\.[0-9_]*|\.[0-9_]+)\Z",
           (_PARSE_TEST,)),
    # The Boros-Moll row steps from C(2m, m) by the ratio recurrence.
    Mutant("bm row: the recurrence's (k + 1) changed",
           "src/ratioshift/boros_moll.py",
           "((2 * m - 2 * k - 1) * (k + 1))",
           "((2 * m - 2 * k - 1) * (k + 2))",
           (_ROW_TEST,)),
    Mutant("bm row: started at C(2m, m - 1)",
           "src/ratioshift/boros_moll.py",
           "v = comb(2 * m, m)",
           "v = comb(2 * m, m - 1)",
           (_ROW_TEST,)),
    # Quadrature levels step u by h from a + h/2 to a + (n - 1/2) h and skip
    # u^(4m+2) for |u| <= 2^(-54/(4m+2)). A level whose value at u = 1 is the
    # larger is summed top-down, then again in index order if that raises or
    # reaches 2^1023. Choosing the other order is equivalent (the same
    # floats, summed slower), so it is not in the list.
    Mutant("level: skip threshold 2^(-50/e)",
           "src/ratioshift/quartic_integral.py",
           "    t = 2.0 ** (-54.0 / e)\n    u, last = ",
           "    t = 2.0 ** (-50.0 / e)\n    u, last = ",
           ("tests/test_quartic_integral.py::"
            "test_folded_integrand_is_the_literal_formula_bit_for_bit",)),
    Mutant("level: one-sided skip test",
           "src/ratioshift/quartic_integral.py",
           "    while -t <= u <= t:\n",
           "    while u <= t:\n",
           ("tests/test_quartic_integral.py::"
            "test_folded_integrand_is_the_literal_formula_bit_for_bit",)),
    Mutant("level: starts at a + h",
           "src/ratioshift/quartic_integral.py",
           "u, last = a + 0.5 * h, a + (n - 0.5) * h",
           "u, last = a + h, a + (n - 0.5) * h",
           (_LEVEL_TEST,)),
    Mutant("level: last point at a + n h",
           "src/ratioshift/quartic_integral.py",
           "u, last = a + 0.5 * h, a + (n - 0.5) * h",
           "u, last = a + 0.5 * h, a + n * h",
           (_LEVEL_TEST,)),
    Mutant("level: the prefix loop runs past its last point",
           "src/ratioshift/quartic_integral.py",
           "        if not u < last:\n",
           "        if u > last:\n",
           (_LEVEL_TEST,)),
    Mutant("level: a NaN u spins",
           "src/ratioshift/quartic_integral.py",
           "    while u < last:\n",
           "    while not u >= last:\n",
           ("tests/test_quartic_integral.py::test_level_at_nan_yields_one_value_and_stops",)),
    Mutant("top-down level: skip threshold 2^(-50/e)",
           "src/ratioshift/quartic_integral.py",
           "    t = 2.0 ** (-54.0 / e)\n    u = (n - 0.5) * h\n",
           "    t = 2.0 ** (-50.0 / e)\n    u = (n - 0.5) * h\n",
           (_LEVEL_TEST,)),
    Mutant("top-down level: starts at (n + 0.5) h",
           "src/ratioshift/quartic_integral.py",
           "    u = (n - 0.5) * h\n",
           "    u = (n + 0.5) * h\n",
           (_LEVEL_TEST, _QUADRATURE_TEST)),
    Mutant("top-down level: no index-order fallback",
           "src/ratioshift/quartic_integral.py",
           "        try:\n"
           "            s = math.fsum(down(a, h, n))\n"
           "        except ArithmeticError:\n"
           "            pass\n"
           "        else:\n"
           "            if s < 2.0 ** 1023:\n"
           "                return s\n",
           "        return math.fsum(down(a, h, n))\n",
           ("tests/test_quartic_integral.py::test_top_down_sum_is_the_index_order_sum",)),
    # argparse reads an option value of "--" as an empty list, or as "--".
    Mutant("cli: '--' taken as an option value",
           "src/ratioshift/cli.py",
           "        if option.startswith(\"--\") and sep and value == \"--\":\n",
           "        if False:\n",
           ("tests/test_cli.py::test_dashdash_as_an_option_value_is_usage_error",)),
    # A report is its record's fields in order, keyed by name; each key or
    # value it renders differently has one line of its own.
    Mutant("report: passed not renamed pass",
           "src/ratioshift/quartic_integral.py",
           "        d[\"pass\"] = d.pop(\"passed\")\n",
           "",
           (f"{_REPORT_TEST}[IntegralCheck]",)),
    Mutant("report: degree_range left a tuple",
           "src/ratioshift/fuzz_harness.py",
           "        d[\"degree_range\"] = list(self.degree_range)\n",
           "",
           (f"{_REPORT_TEST}[CampaignSpec]",)),
    Mutant("report: spec left unrendered",
           "src/ratioshift/fuzz_harness.py",
           "        d[\"spec\"] = self.spec.to_json_dict()\n",
           "",
           (f"{_REPORT_TEST}[CampaignReport]",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error: ...' for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="ratioshift-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        path = work / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error: no result in {TIMEOUT_S} s"
    # pytest exits 0 when every test passed and 1 when some test failed; 2
    # (interrupted, as by a collection error), 4 (usage) and 5 (no tests) are errors.
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return f"error: pytest exit {proc.returncode}: {last}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        bad += outcome != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
