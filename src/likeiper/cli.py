"""Command-line interface: coefficient tables, golden-table verification,
approximation-scheme runs, the conjecture scan, zero-sum consistency checks,
and injectivity line probes.

Every numeric table goes through one writer, ``_table``: cells joined by the
``--format`` delimiter (tab for ``probe``, which has no ``--format``),
``BigReal`` cells at ``--digits`` places.  Each subcommand accepts only the
options it reads; any other option, or one its mode does not read, exits 2.
Exit codes: 0 success, 1 a verification/consistency check failed, 2 bad input,
configuration, data files, or digits past what a data table supports
(``tiny_series`` alone decides the Stieltjes table's, ``zeros`` the zero
table's); every library error is a ``ValueError``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .bigreal import (DEFAULT_DIGITS, MIN_DIGITS, BigReal, PrecisionError, _places_tag,
                      _str_digits_limit)
from .constants import load_stieltjes
from .goldens import TABLE_IDS, TableReport, verify_table
from .lambda_core import (conjecture_scan, history, lambda1_closed_form, lambda_table, tiny_series,
                          trend_series)
from .probe import DEFAULT_PROBE_DIGITS, line_probe
from .recurrences import (
    FULL_HISTORY,
    ORDER_M,
    VOROS,
    RecurrenceScheme,
    prediction_run,
    self_seeded_run,
)
from .zeros import delta_bound, inversion_check, load_zeros, z_partial, z_tail_bound

__all__ = ["main"]

#: named schemes and the history each predicts by default: a1 = order-2,
#: b = order-3, d = full history, a2 = central binomial (Voros).  "m:k"
#: selects the order-k scheme, which predicts tiny.
_SCHEMES = {
    "a1": (RecurrenceScheme(kind=ORDER_M, m=2), "tiny"),
    "b": (RecurrenceScheme(kind=ORDER_M, m=3), "tiny"),
    "d": (RecurrenceScheme(kind=FULL_HISTORY), "tiny"),
    "a2": (RecurrenceScheme(kind=VOROS), "lambda"),
}

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2


def _check_options(args: argparse.Namespace) -> None:
    """Validate the shared options the subcommand has."""
    if args.digits < MIN_DIGITS:
        raise PrecisionError(f"--digits must be >= {MIN_DIGITS}, got {args.digits}")
    if getattr(args, "n_max", 1) < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")


def _delimiter(args: argparse.Namespace) -> str:
    return "," if args.format == "csv" else "\t"


def _emit(lines: Sequence[str], args: argparse.Namespace) -> None:
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


def _table(args: argparse.Namespace, header: Sequence[str], rows: Iterable[tuple]) -> List[str]:
    """The header and rows joined by the --format delimiter; a ``BigReal``
    cell prints at --digits places, any other cell with ``str()``."""
    d = _delimiter(args)
    return [d.join(header)] + [
        d.join(c.to_decimal_string(args.digits) if isinstance(c, BigReal) else str(c) for c in row)
        for row in rows
    ]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------


def cmd_lambda(args: argparse.Namespace) -> int:
    table = lambda_table(args.n_max, args.digits, load_stieltjes(args.stieltjes))
    rows = ((n, table.trend[n] / n, table.tiny[n] / n, table.total[n])
            for n in range(1, args.n_max + 1))
    _emit(_table(args, ("n", "trend_over_n", "tiny_over_n", "lambda"), rows), args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_lines(report: TableReport, delimiter: str) -> List[str]:
    lines = [f"# table: {report.table.name}"]
    unflagged = [r for r in report.reports if not r.cell.flagged]
    flagged = [r for r in report.reports if r.cell.flagged]
    ok_unflagged = sum(1 for r in unflagged if r.matches)
    lines.append(
        f"# cells: {len(report.reports)}  unflagged-ok: {ok_unflagged}/{len(unflagged)}"
        f"  flagged: {len(flagged)}"
    )
    for r in report.reports:
        cell = r.cell
        if cell.flagged:
            fields = (
                f"row {cell.row}",
                cell.column,
                "FLAGGED",
                f"printed={cell.printed}",
                f"corrected={cell.expect}",
                f"correction-reproduced={_yesno(r.matches)}",
                f"printed-refuted={_yesno(not r.printed_matches)}",
            )
        else:
            fields = (
                f"row {cell.row}",
                cell.column,
                "ok" if r.matches else "MISMATCH",
                f"printed={cell.printed}",
            )
            if not r.matches:
                fields += (
                    f"recomputed={r.recomputed.digits_str(cell.places + 4)}",
                    f"diff={float(r.deviation):.3e}",
                )
        lines.append(delimiter.join(fields))
    lines.append(f"# result: {'pass' if report.passed else 'FAIL'}")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_table(args.table, args.digits)
    _emit(_verify_lines(report, _delimiter(args)), args)
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def _parse_scheme(text: str) -> tuple[RecurrenceScheme, str]:
    """Returns the scheme and the history it predicts by default."""
    if text in _SCHEMES:
        return _SCHEMES[text]
    if not text.startswith("m:"):
        raise ValueError(
            f"unknown scheme {text!r}; choose from {', '.join(_SCHEMES)} or m:<order>"
        )
    try:  # a non-integer order, or one below 2
        return RecurrenceScheme(kind=ORDER_M, m=int(text[2:])), "tiny"
    except ValueError:
        raise ValueError(f"bad order in scheme {text!r}; use m:<k> with integer k >= 2") from None


def _parse_seed(text: str, digits: int) -> tuple[str, Optional[Fraction]]:
    """Returns (mode, c): ("exact", None) or ("initial", c or None), c exact."""
    if text in ("exact", "initial"):
        return text, None
    if not text.startswith("initial:"):
        raise ValueError(f"bad --seed {text!r}; use exact, initial, or initial:<c>")
    not_decimal = f"bad --seed {text!r}; c must be a finite decimal number"
    try:  # a Decimal keeps its exponent apart, so no power of ten is built yet
        exact = Decimal(text[len("initial:"):])
    except InvalidOperation:
        raise ValueError(not_decimal) from None
    if not exact.is_finite():
        raise ValueError(f"bad --seed {text!r}; c must be finite")
    _, places, exponent = exact.as_tuple()
    limit = _str_digits_limit()  # past it c could not be printed, so build no such power of ten
    if limit and len(places) + abs(exponent) > limit:
        raise ValueError(not_decimal)
    c = Fraction(exact)
    try:
        BigReal(c, digits).to_decimal_string(digits)  # ratio_to_lambda1 prints c
    except PrecisionError as exc:
        raise ValueError(f"bad --seed {text!r}; {exc}") from None
    return "initial", c


def cmd_approx(args: argparse.Namespace) -> int:
    scheme, default_target = _parse_scheme(args.scheme)
    seed_mode, c = _parse_seed(args.seed, args.digits)

    if seed_mode == "initial":
        if scheme.seeds > 1:
            raise ValueError(
                f"--seed initial: scheme {args.scheme} needs initial values at indices "
                f"2..{scheme.seeds + 1}, which no option supplies; only a1, m:2, d and a2 "
                "self-seed from the command line"
            )
        if (c is None) == bool(scheme.seeds):  # only a2 runs from bare initial
            need = ("lambda(2) = c*lambda(1); use --seed initial:<c>" if scheme.seeds
                    else "lambda(1) alone; use --seed initial")
            raise ValueError(f"--seed {args.seed}: scheme {args.scheme} needs {need}")
        if args.stieltjes is not None or args.target is not None:
            raise ValueError(
                "--seed initial runs from the closed-form lambda(1); "
                "it reads no --stieltjes and no --target"
            )
        # row n is lambda(1) times the exact ratio r_n (the scheme is linear with integer
        # weights): lambda(1) is tagged for the largest r's places, capped where rows refuse r
        ratios = self_seeded_run(scheme, Fraction(1), c=c, n_max=args.n_max)
        tag = min(_places_tag(args.digits, int(max(map(abs, ratios)))), 2 * args.digits)
        lam1 = lambda1_closed_form(tag)

        def row(n: int, r: Fraction) -> tuple:
            BigReal(r, args.digits).to_decimal_string(args.digits)  # refuses digits past the tag
            # r rounded once to --digits places; at lambda(1)'s tag it prints as it is
            return n, lam1 * r, BigReal(round(r, args.digits), tag)

        rows = (row(n, r) for n, r in enumerate(ratios, start=1))
        _emit(_table(args, ("n", "predicted", "ratio_to_lambda1"), rows), args)
        return _EXIT_OK

    target = args.target or default_target
    n_lo = max(2, scheme.m or 2)
    if n_lo > args.n_max:  # refused before any lambda part is built
        raise ValueError(f"--n-max {args.n_max} below the scheme's first index {n_lo}")
    work = args.digits + scheme.guard_digits(args.n_max)  # the digits the binomial sum cancels
    if target == "lambda":  # each target builds only the part it reads
        exact = lambda_table(args.n_max, work, load_stieltjes(args.stieltjes)).total
    elif target == "tiny":
        exact = history(tiny_series(args.n_max, work, load_stieltjes(args.stieltjes)))
    elif args.stieltjes is not None:
        raise ValueError("--target trend reads no --stieltjes")
    else:
        exact = history(trend_series(args.n_max, work))
    results = prediction_run(scheme, exact, n_lo, args.n_max, args.digits)
    # tiny/trend tabulations are conventionally per-n coefficients
    normalize = target in ("tiny", "trend")
    rows = ((r.n, *(v / r.n if normalize else v for v in (r.predicted, r.exact, r.abs_error)),
             r.rel_error) for r in results)
    _emit(_table(args, ("n", "predicted", "exact", "abs_error", "rel_error"), rows), args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    rows = conjecture_scan(args.n_max, args.digits, load_stieltjes(args.stieltjes))
    lines = _table(args, ("n", "ratio", "within_bound"),
                   ((row.n, row.ratio, _yesno(row.within_bound)) for row in rows))
    violations = [row for row in rows if not row.within_bound]
    lines.append(f"# violations: {len(violations)}")
    _emit(lines, args)
    return _EXIT_OK if not violations else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def cmd_zeros(args: argparse.Namespace) -> int:
    if args.stieltjes is not None and not args.inversion:
        raise ValueError("--stieltjes is read only with --inversion")
    zeros = load_zeros(args.zeros)
    lines = [f"# warning: {warning}" for warning in zeros.warnings]
    if args.inversion:
        guard = RecurrenceScheme(kind=VOROS).guard_digits(args.n_max)
        table = lambda_table(args.n_max, args.digits + guard, load_stieltjes(args.stieltjes))
        checks = inversion_check(args.n_max, table, zeros, args.digits)
        lines += _table(
            args, ("n", "lhs", "z_partial", "residual", "bound_plus_allowance", "consistent"),
            ((chk.n, chk.lhs, chk.z_truncated, chk.residual, chk.tail_bound + chk.allowance,
              _yesno(chk.consistent)) for chk in checks),
        )
        all_consistent = all(chk.consistent for chk in checks)
        lines.append(f"# result: {'pass' if all_consistent else 'FAIL'}")
        _emit(lines, args)
        return _EXIT_OK if all_consistent else _EXIT_CHECK_FAILED

    sums = zip(z_partial(args.n_max, zeros, args.digits),
               z_tail_bound(args.n_max, zeros, args.digits), delta_bound(args.n_max, args.digits))
    lines += _table(args, ("j", "z_partial", "z_tail_bound", "delta_bound"),
                    ((j, *row) for j, row in enumerate(sums, 1)))
    _emit(lines, args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def cmd_probe(args: argparse.Namespace) -> int:
    if args.line == "im":
        if args.b is None:
            raise ValueError("--line im needs --b (fixed real part)")
        fixed, lo, hi = args.b, args.t0, args.t1
        if lo is None or hi is None:
            raise ValueError("--line im needs --t0 and --t1 (imaginary range)")
    else:
        if args.t is None:
            raise ValueError("--line re needs --t (fixed imaginary part)")
        fixed, lo, hi = args.t, args.b0, args.b1
        if lo is None or hi is None:
            raise ValueError("--line re needs --b0 and --b1 (real range)")
    report = line_probe(
        args.line, fixed, lo, hi, samples=args.samples, precision=args.digits, tol=args.tol
    )
    lines = [f"# line: vary_{args.line}", f"# fixed: {fixed!r}",
             f"# range: [{lo!r}, {hi!r}] samples: {args.samples}"]
    lines += _table(args, ("# columns: param", "re_f", "im_f"), report.samples)
    lines.append(f"# failures: {len(report.failures)}")
    for failure in report.failures:
        lines.append(f"# failed at {failure.param!r}: {failure.reason}")
    lines.append(f"# near_collisions: {len(report.near_collisions)}")
    for pair in report.near_collisions:
        lines.append(
            f"# collision {pair.param1!r} vs {pair.param2!r} distance {pair.distance!r}"
        )
    lines.append(f"# sampled_injective: {_yesno(report.sampled_injective)}")
    _emit(lines, args)
    return _EXIT_OK if report.sampled_injective else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per process; parsing does not mutate it
def _build_parser() -> argparse.ArgumentParser:
    # Shared options in parent parsers, one per group that subcommands take together.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                        help=f"working precision in decimal digits (default {DEFAULT_DIGITS})")
    common.add_argument("--format", choices=("tsv", "csv"), default="tsv",
                        help="output delimiter (default tsv)")
    lambdas = argparse.ArgumentParser(add_help=False)
    lambdas.add_argument("--n-max", type=int, default=32, dest="n_max",
                         help="largest index n (default 32)")
    lambdas.add_argument("--stieltjes", type=Path, default=None, metavar="PATH",
                         help="alternate Stieltjes-constant table")
    zeros = argparse.ArgumentParser(add_help=False)
    zeros.add_argument("--zeros", type=Path, default=None, metavar="PATH",
                       help="alternate zero-ordinate table")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, metavar="PATH",
                     help="write output to a file instead of standard output")

    parser = argparse.ArgumentParser(
        prog="likeiper",
        description="Li-Keiper coefficients, trend/tiny decomposition, "
                    "binomial approximation schemes, zero sums, and injectivity probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, parents):
        """A subcommand with the given shared option groups and --out."""
        p = sub.add_parser(name, parents=[*parents, out], help=summary)
        p.set_defaults(handler=handler)
        return p

    command("lambda", cmd_lambda, "emit n, trend/n, tiny/n, lambda(n)", [common, lambdas])

    p = command("verify", cmd_verify,
                "recompute a golden table and report per-cell agreement", [common])
    p.add_argument("--table", required=True,
                   choices=tuple(TABLE_IDS) + tuple(TABLE_IDS.values()),
                   help="golden table: 1=order-2 ratios, 2=order-3 ratios, "
                        "3=tiny full-history, 4=trend full-history, 5=n log n sums")

    p = command("approx", cmd_approx,
                "run an approximation scheme against exact history "
                "or self-seeded from lambda(1)", [common, lambdas])
    p.add_argument("--scheme", required=True,
                   help="a1 (order-2), b (order-3), d (full history), "
                        "a2 (central binomial), or m:<order>")
    p.add_argument("--target", choices=("tiny", "trend", "lambda"), default=None,
                   help="history to predict (default: lambda for a2, tiny otherwise); "
                        "tiny/trend output is per-n normalized; exact seed only")
    p.add_argument("--seed", default="exact",
                   help="exact (predict from true history), or initial:<c> "
                        "(self-seeded with lambda(2) = c*lambda(1)); bare 'initial' "
                        "for schemes that self-seed from lambda(1) alone")

    command("scan", cmd_scan, "scan the bound |lambda_tiny(n)| <= gamma*n", [common, lambdas])

    p = command("zeros", cmd_zeros,
                "zero-sum partial sums and tail bounds; --inversion for "
                "the lambda <-> zero-sum consistency check", [common, lambdas, zeros])
    p.add_argument("--inversion", action="store_true",
                   help="check the alternating central-binomial combination of "
                        "lambda values against the truncated zero sums "
                        "(the only mode that reads --stieltjes)")

    p = command("probe", cmd_probe,
                "sample the normalized zeta map along a line and "
                "flag near-collisions (output is always TSV)", [])
    p.set_defaults(format="tsv")  # for _table; probe takes no --format
    p.add_argument("--digits", type=int, default=DEFAULT_PROBE_DIGITS,
                   help=f"working precision in decimal digits (default {DEFAULT_PROBE_DIGITS})")
    p.add_argument("--line", choices=("re", "im"), required=True,
                   help="re: vary the real part at fixed --t; im: vary the "
                        "imaginary part at fixed --b")
    p.add_argument("--b", type=float, default=None, help="fixed real part (with --line im)")
    p.add_argument("--t", type=float, default=None, help="fixed imaginary part (with --line re)")
    p.add_argument("--t0", type=float, default=None, help="imaginary-range start")
    p.add_argument("--t1", type=float, default=None, help="imaginary-range end")
    p.add_argument("--b0", type=float, default=None, help="real-range start")
    p.add_argument("--b1", type=float, default=None, help="real-range end")
    p.add_argument("--samples", type=int, default=200, help="grid size (default 200)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="near-collision distance threshold (default 1e-6)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"likeiper: error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
