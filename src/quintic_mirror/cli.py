"""Command-line driver: invariants, verification reports, graph-sum oracle.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or
precondition errors (a degenerate weight configuration or an unwritable
``--out`` path included), 3 on an internal error: any other exception is
a program bug, reported as "internal error: ..." rather than blamed on the
input.  A reader that closes stdout early is not one: exit 141, as a shell
reports SIGPIPE, with nothing on stderr.  Output is deterministic for a
fixed seed and never contains floating point; rationals print as "p/q"
(or "p" for integers).

Each ``verify`` check accepts only the options it reads, its parameters
in ``verify.py``; any other option exits 2.  descendents reads none;
picard-fuchs and mirror-identity read --order; case-i and case-ii read
--m --l --order; recursion-i/-ii/-cy, class-p, phi-poly and transformations
also read --seed and --lambda.  An option not given takes its ``DEFAULTS``
value; without --lambda, weights are sampled from --seed.

Every process imports this module, so its start-up is part of every
run.  No stdlib module is imported only for annotations, and ``json`` and
``csv`` are imported on the output paths that use them.  Everything a
command runs is imported at module top: deferring it would only move its
cost from start-up into the command.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from .errors import (DegenerateLambda, DomainError, PoleError,
                     StructureError)
from .localization import MAX_DEGREE, oracle_crosscheck
from .mirror import InvariantTable, quintic_invariants
from .report import Check, all_passed, report_json, report_text
from .verify import CHECKS

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141     # 128 + SIGPIPE, as a shell reports it

# The value an option takes when it is not given.
DEFAULTS = {"m": 4, "l": 5, "order": 6, "seed": 0}
HELP = {"m": "ambient projective dimension", "l": "hypersurface degree",
        "order": "q-truncation order", "seed": "seed for weight sampling"}
VERIFY_FLAGS = {"m": "--m", "l": "--l", "order": "--order", "seed": "--seed",
                "lam": "--lambda"}


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def parse_lambda(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintic-mirror",
        description="Exact hypergeometric engine for rational-curve counts "
                    "on hypersurfaces; all arithmetic over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="also write the report to this file")

    def ints(p: argparse.ArgumentParser, defaults: dict, *names) -> None:
        """Integer options; one missing from ``defaults`` is left out of
        the namespace unless it is typed."""
        for name in names:
            p.add_argument(f"--{name}", type=int,
                           default=defaults.get(name, argparse.SUPPRESS),
                           help=f"{HELP[name]} (default {DEFAULTS[name]})")

    p_inv = sub.add_parser("invariants",
                           help="genus-0 invariants and virtual counts")
    ints(p_inv, DEFAULTS, "m", "l", "order")
    shared(p_inv)

    p_ver = sub.add_parser(
        "verify", help="run a named identity check",
        description="Run a named identity check. Each check accepts only "
                    "the options it reads; any other option exits 2.")
    p_ver.add_argument("check", choices=sorted(CHECKS))
    # Only typed options reach the namespace, so cmd_verify can tell them
    # from defaults.
    ints(p_ver, {}, "m", "l", "order", "seed")
    p_ver.add_argument("--lambda", dest="lam", type=parse_lambda,
                       default=argparse.SUPPRESS, metavar="a,b,c,...",
                       help="explicit weight tuple (rationals p/q); "
                            "sampled from --seed when omitted")
    shared(p_ver)

    p_orc = sub.add_parser("oracle",
                           help="fixed-point graph-sum cross-check")
    p_orc.add_argument("--degree", type=int, default=1,
                       help=f"curve degree, 1 to {MAX_DEGREE} (default 1)")
    p_orc.add_argument("--trials", type=int, default=3)
    ints(p_orc, DEFAULTS, "seed")
    shared(p_orc)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    text += "" if text.endswith("\n") else "\n"
    print(text, end="", flush=True)     # a closed stdout raises in main
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write the report to {out_path}: "
                              f"{exc.strerror or exc}") from None


def _csv(rows: list[list]) -> str:
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _format_invariants(table, m: int, l: int, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(
            {"m": m, "l": l,
             "rows": [{"d": d, "N": str(N), "n": str(n)}
                      for d, N, n in table.rows()]},
            indent=2, sort_keys=True)
    if fmt == "csv":
        return _csv([["d", "N_d", "n_d"]]
                    + [[d, str(N), str(n)] for d, N, n in table.rows()])
    lines = [f"{'d':>3}  {'N_d':>28}  {'n_d':>20}"]
    for d, N, n in table.rows():
        lines.append(f"{d:>3}  {str(N):>28}  {str(n):>20}")
    return "\n".join(lines)


def _format_checks(checks: list[Check], fmt: str) -> str:
    if fmt == "json":
        return report_json(checks)
    if fmt == "csv":
        return _csv([["check", "identity", "passed", "detail"]]
                    + [[c.name, c.identity, "pass" if c.passed else "fail",
                        c.detail] for c in checks])
    return report_text(checks)


def cmd_invariants(args) -> int:
    if (args.m, args.l) != (4, 5):
        sys.stderr.write(
            "invariant extraction is implemented for the quintic in P^4 "
            "(--m 4 --l 5) only\n")
        return USAGE_ERROR
    if args.order < 0:
        sys.stderr.write("order must be nonnegative\n")
        return USAGE_ERROR
    if args.order == 0:
        _emit(_format_invariants(
            InvariantTable(0, [], []), args.m, args.l, args.format), args.out)
        return 0
    table = quintic_invariants(args.order)
    nonint = table.nonintegral_degrees()
    text = _format_invariants(table, args.m, args.l, args.format)
    if nonint:
        text += f"\nWARNING: non-integral virtual counts at degrees {nonint}"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    check = CHECKS[args.check]
    # The check's parameter names (through a functools.wraps wrapper too),
    # read from its code object: importing inspect would slow every start.
    code = getattr(check, "__wrapped__", check).__code__
    reads = code.co_varnames[:code.co_argcount]
    given = {k: v for k, v in vars(args).items() if k in VERIFY_FLAGS}
    unread = [VERIFY_FLAGS[name] for name in given if name not in reads]
    if unread:
        sys.stderr.write(f"verify {args.check} does not read "
                         f"{' '.join(unread)}\n")
        return USAGE_ERROR
    defaults = {name: DEFAULTS[name] for name in reads if name in DEFAULTS}
    checks = check(**{**defaults, **given})
    _emit(_format_checks(checks, args.format), args.out)
    return 0 if all_passed(checks) else CHECK_FAILED


def cmd_oracle(args) -> int:
    check = oracle_crosscheck(args.degree, trials=args.trials,
                              seed=args.seed)
    _emit(_format_checks([check], args.format), args.out)
    return 0 if check.passed else CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"invariants": cmd_invariants, "verify": cmd_verify,
                "oracle": cmd_oracle}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # Stdout to devnull, so the interpreter's last flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except (DomainError, StructureError) as exc:
        sys.stderr.write(f"{exc}\n")
        return USAGE_ERROR
    except (DegenerateLambda, PoleError) as exc:
        sys.stderr.write(f"degenerate weight configuration: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        import traceback        # only on this path: it slows every start-up
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
