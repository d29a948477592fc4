"""Command-line driver: invariants, verification reports, graph-sum oracle.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or
precondition errors (a degenerate weight configuration or an unwritable
``--out`` path included), 3 on an internal error: any other exception,
``StructureError`` too (every denominator splits into linear forms), is
a program bug, reported as "internal error: ..." rather than blamed on
the input.  A reader that closes stdout early is not one: exit 141, as a
shell reports SIGPIPE, with nothing on stderr, after writing any
``--out`` file.  Output is deterministic for a fixed seed and never
contains floating point; rationals print as "p/q" (or "p" for integers).

Each ``verify`` check accepts only the options it reads, the parameters
of its function in ``verify.CHECKS``; any other option exits 2.
descendents reads none; picard-fuchs and mirror-identity read --order;
case-i and case-ii read --m --l --order; recursion-i/-ii/-cy, class-p,
phi-poly and transformations also read --seed and --lambda.  An option
not given takes the default in the check's signature, which lies in the
check's domain, so every bare command runs; without --lambda, weights are
sampled from --seed.  ``invariants`` computes the quintic in P^4 and
reads only --order; ``DEFAULTS`` serves it and ``oracle``.

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

from .errors import DegenerateLambda, DomainError, PoleError
from .localization import MAX_DEGREE, oracle_crosscheck
from .mirror import InvariantTable, quintic_invariants
from .report import Check, all_passed, report_json, report_text
from .verify import CHECKS

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141     # 128 + SIGPIPE, as a shell reports it

# The value an option of invariants or oracle takes when it is not given.
DEFAULTS = {"order": 6, "seed": 0}
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
        the namespace unless it is typed, and takes the check's default."""
        for name in names:
            p.add_argument(f"--{name}", type=int,
                           default=defaults.get(name, argparse.SUPPRESS),
                           help=f"{HELP[name]} (default "
                                f"{defaults.get(name, 'from the check')})")

    p_inv = sub.add_parser("invariants",
                           help="genus-0 invariants and virtual counts")
    ints(p_inv, DEFAULTS, "order")
    shared(p_inv)

    p_ver = sub.add_parser(
        "verify", help="run a named identity check",
        description="Run a named identity check. Each check accepts only "
                    "the options it reads; any other option exits 2. A "
                    "missing option takes the check's own default.")
    p_ver.add_argument("check", choices=sorted(CHECKS))
    # Only typed options reach the namespace: the rest take the check's
    # own defaults.
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
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull, so the
        # interpreter's last flush cannot raise, and still write the file.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _write_out(text, out_path)
        raise
    _write_out(text, out_path)


def _write_out(text: str, out_path: str | None) -> None:
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


def _format_invariants(table, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(
            {"m": 4, "l": 5,        # the quintic in P^4
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
    if args.order < 0:
        sys.stderr.write("order must be nonnegative\n")
        return USAGE_ERROR
    if args.order == 0:
        _emit(_format_invariants(InvariantTable(0, [], []), args.format),
              args.out)
        return 0
    table = quintic_invariants(args.order)
    nonint = table.nonintegral_degrees()
    text = _format_invariants(table, args.format)
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
    checks = check(**given)
    _emit(_format_checks(checks, args.format), args.out)
    return 0 if all_passed(checks) else CHECK_FAILED


def cmd_oracle(args) -> int:
    check = oracle_crosscheck(args.degree, trials=args.trials,
                              seed=args.seed)
    _emit(_format_checks([check], args.format), args.out)
    return 0 if check.passed else CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "-1/2,1,..." as an option: join it to its --lambda.
    for k in range(len(argv) - 1, 0, -1):
        if (argv[k - 1] == "--lambda" and argv[k][:1] == "-"
                and argv[k][1:2].isdigit()):
            argv[k - 1:k + 1] = [f"--lambda={argv[k]}"]
    args = build_parser().parse_args(argv)
    commands = {"invariants": cmd_invariants, "verify": cmd_verify,
                "oracle": cmd_oracle}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        return CLOSED_STDOUT
    except DomainError as exc:
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
