"""Batch command-line front end.

Exit codes are uniform across subcommands: 0 when every check holds, 1 when
a mathematical property failed or was not applicable or a float check could
not be completed, 2 on usage or input errors. JSON reports carry exact
values as canonical ``p/q`` strings (never JSON numbers); only the
quartic-integral fields are decimal floats.

Coefficient files are whitespace- or newline-separated rational tokens
(``p``, ``p/q``, or an exact decimal); ``#`` starts a comment.

``main`` returns these codes, or leaves through argparse's own
``SystemExit`` (0 for ``--help`` and ``--version``, 2 for a usage error).
Every write to stdout, argparse's own included, goes through ``_write``,
which flushes it and raises ``_OutputError`` when it fails. The console
script is ``__main__.run``: it calls ``main`` and owns two exits of its
own, 2 on that ``_OutputError`` (a closed pipe, a full disk) and 130 on an
interrupt, each with one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .boros_moll import bm_polynomial, bm_shifted_seq
from .fuzz_harness import TARGETS, CampaignSpec, run_campaign
from .numeric_core import DomainError, ParseError, Rational, parse_rational, render_rational
from .poly_ops import Polynomial, ShiftAlgorithm, taylor_shift
from .quartic_integral import QuadratureError, verify_identity
from .shape_props import CHECKERS

__all__ = ["main"]


class _UsageError(Exception):
    """Maps to exit code 2."""


class _OutputError(Exception):
    """Stdout could not be written; ``__main__.run`` maps it to exit code 2."""


def _write(text: str) -> None:
    """The program's one writer to stdout. It flushes each write, so a write
    that fails (a closed pipe, a full disk) fails here, buffered or not."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError from exc


class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of its own output to stdout (``--help``,
    ``--version``) and exits 0; this sends that output to ``_write``
    instead. Its subparsers are of this class too."""

    def _print_message(self, message: str, file=None) -> None:
        if file is not sys.stdout:
            return super()._print_message(message, file)
        _write(message)


def _read_coefficients(path: str) -> list:
    try:
        with open(path, encoding="utf-8-sig") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    coeffs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            try:
                coeffs.append(parse_rational(match.group()))
            except (ParseError, DomainError) as exc:
                raise _UsageError(
                    f"{path}:{lineno}:{match.start() + 1}: {exc}") from exc
    if not coeffs:
        raise _UsageError(f"{path}: no coefficients found")
    return coeffs


def _parse_c(text: str) -> Rational:
    try:
        return parse_rational(text)
    except (ParseError, DomainError) as exc:
        raise _UsageError(f"--c: {exc}") from exc


def _emit(args: argparse.Namespace, inputs: dict, results: list) -> None:
    _write(json.dumps({
        "command": args.command,
        "version": __version__,
        "inputs": inputs,
        "results": results,
        "timing": {"seconds": time.perf_counter() - args.started},
    }, indent=2) + "\n")


def _cmd_shift(args: argparse.Namespace) -> int:
    coeffs = _read_coefficients(args.file)
    shifted = taylor_shift(Polynomial(coeffs), _parse_c(args.c), ShiftAlgorithm(args.algo))
    # Render every coefficient before printing any, so a coefficient too long
    # to render (DomainError, exit 2) leaves stdout empty.
    _write("\n".join([render_rational(value) for value in shifted.coeffs]) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    names = [p.strip() for p in args.props.split(",") if p.strip()]
    unknown = [n for n in names if n not in CHECKERS and n != "all"]
    if unknown:
        raise _UsageError(
            f"unknown properties {unknown}; choose from {list(CHECKERS)} or 'all'")
    if "all" in names:
        names = list(CHECKERS)
    if not names:
        raise _UsageError("no properties requested")
    coeffs = _read_coefficients(args.file)
    poly = Polynomial(coeffs)  # cleared once, for every checker
    verdicts = [CHECKERS[name](poly) for name in names]
    _emit(args,
          {"file": args.file,
           "coefficients": [render_rational(v) for v in coeffs],
           "props": names},
          [v.to_json_dict() for v in verdicts])
    return 0 if all(v.holds for v in verdicts) else 1


def _cmd_boros_moll(args: argparse.Namespace) -> int:
    if args.m < 0:
        raise _UsageError(f"--m must be >= 0, got {args.m}")
    basis = "power-basis" if args.power_basis else "coefficients"
    values = bm_polynomial(args.m).coeffs if args.power_basis else bm_shifted_seq(args.m)
    rendered = [render_rational(v) for v in values]
    if args.json:
        _emit(args, {"m": args.m, "mode": basis},
              [{"m": args.m, "basis": basis, "coefficients": rendered}])
    else:
        _write("\n".join(rendered) + "\n")
    return 0


def _cmd_verify_integral(args: argparse.Namespace) -> int:
    if args.m < 0:
        raise _UsageError(f"--m must be >= 0, got {args.m}")
    try:
        check = verify_identity(args.x, args.m, args.tol)
    except (OverflowError, ZeroDivisionError) as exc:
        # A float over- or underflowed on the way: the check could not be
        # completed, like a quadrature that does not converge.
        print(f"ratioshift: the float check could not be completed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"ratioshift: quadrature did not converge: {exc}", file=sys.stderr)
        return 1
    _emit(args, {"m": args.m, "x": args.x, "tol": args.tol}, [check.to_json_dict()])
    return 0 if check.passed else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        target=args.target,
        trials=args.trials,
        seed=args.seed,
        degree_range=(args.degree_min, args.degree_max),
        magnitude_bound=args.bound,
        integer_only=args.integer_only,
        shift_c=_parse_c(args.c),
        allow_c_below_one=args.allow_c_below_one,
    )
    report = run_campaign(spec, jobs=args.jobs)
    _emit(args, {"target": args.target}, [report.to_json_dict()])
    return 1 if report.violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratioshift",
        description="Exact Taylor shifts and coefficient-shape certification.")
    parser.add_argument("--version", action="version", version=f"ratioshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift", help="Taylor-shift a coefficient file by a rational c")
    p.add_argument("file", help="coefficient file, ascending degree")
    p.add_argument("--c", required=True, help="shift constant (rational text)")
    p.add_argument("--algo", choices=[a.value for a in ShiftAlgorithm],
                   default=ShiftAlgorithm.HORNER_SYNTHETIC.value)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("check", help="run shape-property checkers on a coefficient file")
    p.add_argument("file", help="coefficient file, ascending degree")
    p.add_argument("--props", required=True,
                   help=f"comma list from {list(CHECKERS)} or 'all'")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("boros-moll", help="emit a Boros-Moll coefficient row")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--power-basis", action="store_true",
                   help="expand into power-basis coefficients of P_m(x)")
    p.add_argument("--json", action="store_true", help="wrap output in a JSON report")
    p.set_defaults(func=_cmd_boros_moll)

    p = sub.add_parser("verify-integral",
                       help="compare quadrature of the quartic integral to the closed form")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify_integral)

    p = sub.add_parser("fuzz", help="run a seeded randomized campaign")
    p.add_argument("--target", required=True, choices=TARGETS)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree-min", type=int, default=2)
    p.add_argument("--degree-max", type=int, default=16)
    p.add_argument("--bound", type=int, default=10 ** 6)
    p.add_argument("--c", default="1", help="shift constant for corollary campaigns")
    p.add_argument("--integer-only", action="store_true")
    p.add_argument("--allow-c-below-one", action="store_true",
                   help="permit exploratory corollary runs with c < 1")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def _argv_for_parser(argv: list[str]) -> list[str]:
    """argv with each ``--c X`` glued into ``--c=X``: argparse treats "-3/2"
    after "--c" as an unknown flag. An option value of "--" (``--c=--``, or
    ``--c --`` once glued) reaches the program as an empty list from older
    argparse (3.11, 3.12.1) and as the string "--" from newer (3.12.10,
    3.13), so it is refused here, and every version says the same. Where a
    bare "--" ends the options differs between versions too, so every token
    is checked."""
    glued = []
    for arg in argv:
        if glued and glued[-1] == "--c":
            glued[-1] = arg = f"--c={arg}"
        else:
            glued.append(arg)
        option, sep, value = arg.partition("=")
        if option.startswith("--") and sep and value == "--":
            raise _UsageError(f"{option}: '--' is not a value")
    return glued


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_argv_for_parser(sys.argv[1:] if argv is None else argv))
        args.started = time.perf_counter()  # the clock of a report's "timing" block
        return args.func(args)
    # An input too large to hold, such as a campaign of degree 10**11, ends
    # in a MemoryError, which seldom carries a message.
    except (_UsageError, DomainError, ParseError, MemoryError) as exc:
        print(f"ratioshift: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
