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
