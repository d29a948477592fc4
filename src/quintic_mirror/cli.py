"""Command-line driver: invariants, verification reports, graph-sum oracle.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or
precondition errors (a degenerate weight configuration included), and 3
on an internal error: any other exception is a program bug, reported as
"internal error: ..." rather than blamed on the input.  Output is
deterministic for a fixed seed and never contains floating point;
rationals print as "p/q" (or "p" for integers).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .errors import (DegenerateLambda, DomainError, PoleError,
                     StructureError)
from .localization import MAX_DEGREE, oracle_crosscheck
from .mirror import InvariantTable, quintic_invariants
from .report import Check, all_passed, report_json, report_text
from .verify import CHECKS, run_check

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


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

    def shared(p: argparse.ArgumentParser, seed: bool = True) -> None:
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for weight sampling (default 0)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="also write the report to this file")

    def model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, default=4,
                       help="ambient projective dimension (default 4)")
        p.add_argument("--l", type=int, default=5,
                       help="hypersurface degree (default 5)")
        p.add_argument("--order", type=int, default=6,
                       help="q-truncation order (default 6)")

    p_inv = sub.add_parser("invariants",
                           help="genus-0 invariants and virtual counts")
    model(p_inv)
    shared(p_inv, seed=False)

    p_ver = sub.add_parser("verify", help="run a named identity check")
    p_ver.add_argument("check", choices=sorted(CHECKS))
    model(p_ver)
    p_ver.add_argument("--hbar-depth", type=int, default=None,
                       help="depth of the 1/hbar expansion where needed")
    p_ver.add_argument("--lambda", dest="lam", type=parse_lambda,
                       default=None, metavar="a,b,c,...",
                       help="explicit weight tuple (rationals p/q)")
    shared(p_ver)

    p_orc = sub.add_parser("oracle",
                           help="fixed-point graph-sum cross-check")
    p_orc.add_argument("--degree", type=int, default=1,
                       help=f"curve degree, 1 to {MAX_DEGREE} (default 1)")
    p_orc.add_argument("--trials", type=int, default=3)
    shared(p_orc)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _format_invariants(table, m: int, l: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"m": m, "l": l,
             "rows": [{"d": d, "N": str(N), "n": str(n)}
                      for d, N, n in table.rows()]},
            indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "N_d", "n_d"])
        for d, N, n in table.rows():
            writer.writerow([d, str(N), str(n)])
        return buf.getvalue().rstrip("\n")
    lines = [f"{'d':>3}  {'N_d':>28}  {'n_d':>20}"]
    for d, N, n in table.rows():
        lines.append(f"{d:>3}  {str(N):>28}  {str(n):>20}")
    return "\n".join(lines)


def _format_checks(checks: list[Check], fmt: str) -> str:
    if fmt == "json":
        return report_json(checks)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "identity", "passed", "detail"])
        for c in checks:
            writer.writerow([c.name, c.identity,
                             "pass" if c.passed else "fail", c.detail])
        return buf.getvalue().rstrip("\n")
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
    checks = run_check(args.check, args.m, args.l, args.order, args.seed,
                       lam=args.lam, hbar_depth=args.hbar_depth)
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
    try:
        if args.command == "invariants":
            return cmd_invariants(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "oracle":
            return cmd_oracle(args)
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
    parser.error("no command given")
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
