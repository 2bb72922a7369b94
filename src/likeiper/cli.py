"""Command-line interface: coefficient tables, golden-table verification,
approximation-scheme runs, the conjecture scan, zero-sum consistency checks,
and injectivity line probes.

Exit codes: 0 success, 1 a verification/consistency check failed, 2 bad
input, configuration, or data files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from .bigreal import DEFAULT_DIGITS, MIN_DIGITS, BigReal, PrecisionError, big
from .constants import ConstantsError, load_stieltjes
from .datafiles import DataFormatError
from .goldens import TABLE_IDS, TableReport, verify_table
from .lambda_core import conjecture_scan, lambda1_closed_form, lambda_table
from .probe import DEFAULT_PROBE_DIGITS, line_probe
from .recurrences import (
    FULL_HISTORY,
    ORDER_M,
    VOROS,
    HistoryError,
    RecurrenceScheme,
    prediction_run,
    self_seeded_run,
)
from .zeros import ZeroDataError, delta_bound, inversion_check, load_zeros, z_partial, z_tail_bound

__all__ = ["main"]

#: scheme ids: a1 = order-2, b = order-3, d = full history, a2 = central
#: binomial (Voros); "m:k" selects the order-k scheme.
_SCHEME_IDS = ("a1", "b", "d", "a2")

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2


@dataclass
class RunConfig:
    digits: int
    n_max: int
    stieltjes_path: Optional[Path]
    zeros_path: Optional[Path]
    output_format: str  # "tsv" | "csv"
    out: Optional[Path]

    @property
    def delimiter(self) -> str:
        return "\t" if self.output_format == "tsv" else ","


def _config_from(args: argparse.Namespace, default_digits: int = DEFAULT_DIGITS) -> RunConfig:
    digits = args.digits if args.digits is not None else default_digits
    if digits < MIN_DIGITS:
        raise PrecisionError(f"--digits must be >= {MIN_DIGITS}, got {digits}")
    n_max = args.n_max if getattr(args, "n_max", None) is not None else 32
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    for label, path in (("--stieltjes", args.stieltjes), ("--zeros", args.zeros)):
        if path is not None and not Path(path).is_file():
            raise DataFormatError(f"{label}: no such file: {path}")
    return RunConfig(
        digits=digits,
        n_max=n_max,
        stieltjes_path=Path(args.stieltjes) if args.stieltjes else None,
        zeros_path=Path(args.zeros) if args.zeros else None,
        output_format=args.format,
        out=Path(args.out) if args.out else None,
    )


def _emit(lines: Sequence[str], config: RunConfig) -> None:
    text = "\n".join(lines) + "\n"
    if config.out is not None:
        config.out.write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(value: BigReal, places: int) -> str:
    return value.to_decimal_string(places)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------


def cmd_lambda(args: argparse.Namespace) -> int:
    config = _config_from(args)
    stieltjes = load_stieltjes(config.stieltjes_path) if config.stieltjes_path else None
    table = lambda_table(config.n_max, config.digits, stieltjes)
    d = config.delimiter
    lines = [d.join(("n", "trend_over_n", "tiny_over_n", "lambda"))]
    for n in range(1, config.n_max + 1):
        lines.append(
            d.join(
                (
                    str(n),
                    _fmt(table.trend_over_n(n), config.digits),
                    _fmt(table.tiny_over_n(n), config.digits),
                    _fmt(table.lam(n), config.digits),
                )
            )
        )
    _emit(lines, config)
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
    passed = all(r.matches for r in unflagged)
    lines.append(f"# result: {'pass' if passed else 'FAIL'}")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from(args)
    report = verify_table(args.table, config.digits)
    _emit(_verify_lines(report, config.delimiter), config)
    unflagged_ok = all(r.matches for r in report.reports if not r.cell.flagged)
    return _EXIT_OK if unflagged_ok else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def _parse_scheme(text: str) -> RecurrenceScheme:
    if text == "a1":
        return RecurrenceScheme(kind=ORDER_M, m=2)
    if text == "b":
        return RecurrenceScheme(kind=ORDER_M, m=3)
    if text == "d":
        return RecurrenceScheme(kind=FULL_HISTORY)
    if text == "a2":
        return RecurrenceScheme(kind=VOROS)
    if text.startswith("m:"):
        try:
            m = int(text[2:])
        except ValueError:
            raise ValueError(f"bad order in scheme {text!r}; use m:<integer>")
        return RecurrenceScheme(kind=ORDER_M, m=m)
    raise ValueError(
        f"unknown scheme {text!r}; choose from {', '.join(_SCHEME_IDS)} or m:<order>"
    )


def _default_target(scheme: RecurrenceScheme) -> str:
    return "lambda" if scheme.kind == VOROS else "tiny"


def _parse_seed(text: str) -> tuple[str, Optional[str]]:
    """Returns (mode, c_text): ("exact", None) or ("initial", c or None)."""
    if text == "exact":
        return "exact", None
    if text == "initial":
        return "initial", None
    if text.startswith("initial:"):
        return "initial", text[len("initial:"):]
    raise ValueError(f"bad --seed {text!r}; use exact, initial, or initial:<c>")


def cmd_approx(args: argparse.Namespace) -> int:
    config = _config_from(args)
    scheme = _parse_scheme(args.scheme)
    target = args.target or _default_target(scheme)
    seed_mode, c_text = _parse_seed(args.seed)
    d = config.delimiter

    if seed_mode == "initial":
        lam1 = lambda1_closed_form(config.digits)
        c = big(c_text, config.digits) if c_text is not None else None
        values = self_seeded_run(scheme, lam1, c=c, n_max=config.n_max)
        lines = [d.join(("n", "predicted", "ratio_to_lambda1"))]
        for n, value in enumerate(values, start=1):
            lines.append(
                d.join((str(n), _fmt(value, config.digits), _fmt(value / lam1, config.digits)))
            )
        _emit(lines, config)
        return _EXIT_OK

    stieltjes = load_stieltjes(config.stieltjes_path) if config.stieltjes_path else None
    table = lambda_table(config.n_max, config.digits, stieltjes)
    history = {
        "tiny": table.tiny_history,
        "trend": table.trend_history,
        "lambda": table.lambda_history,
    }[target]()
    n_lo = max(2, scheme.m or 2)
    if n_lo > config.n_max:
        raise ValueError(f"--n-max {config.n_max} below the scheme's first index {n_lo}")
    results = prediction_run(scheme, history, n_lo, config.n_max)
    # tiny/trend tabulations are conventionally per-n coefficients
    normalize = target in ("tiny", "trend")
    lines = [d.join(("n", "predicted", "exact", "abs_error", "rel_error"))]
    for r in results:
        predicted = r.predicted / r.n if normalize else r.predicted
        exact = r.exact / r.n if normalize else r.exact
        lines.append(
            d.join(
                (
                    str(r.n),
                    _fmt(predicted, config.digits),
                    _fmt(exact, config.digits),
                    _fmt(abs(predicted - exact), config.digits),
                    _fmt(r.rel_error, config.digits),
                )
            )
        )
    _emit(lines, config)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    config = _config_from(args)
    stieltjes = load_stieltjes(config.stieltjes_path) if config.stieltjes_path else None
    rows = conjecture_scan(config.n_max, config.digits, stieltjes)
    d = config.delimiter
    lines = [d.join(("n", "ratio", "within_bound"))]
    for row in rows:
        lines.append(d.join((str(row.n), _fmt(row.ratio, config.digits), _yesno(row.within_bound))))
    violations = [row for row in rows if not row.within_bound]
    lines.append(f"# violations: {len(violations)}")
    _emit(lines, config)
    return _EXIT_OK if not violations else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def cmd_zeros(args: argparse.Namespace) -> int:
    config = _config_from(args)
    zeros = load_zeros(config.zeros_path)
    d = config.delimiter
    lines = []
    for warning in zeros.warnings:
        lines.append(f"# warning: {warning}")
    if args.inversion:
        stieltjes = load_stieltjes(config.stieltjes_path) if config.stieltjes_path else None
        table = lambda_table(config.n_max, config.digits, stieltjes)
        lines.append(
            d.join(("n", "lhs", "z_partial", "residual", "bound_plus_allowance", "consistent"))
        )
        all_consistent = True
        for n in range(1, config.n_max + 1):
            chk = inversion_check(n, table, zeros, config.digits)
            all_consistent &= chk.consistent
            lines.append(
                d.join(
                    (
                        str(n),
                        _fmt(chk.lhs, config.digits),
                        _fmt(chk.z_truncated, config.digits),
                        _fmt(chk.residual, config.digits),
                        _fmt(chk.tail_bound + chk.allowance, config.digits),
                        _yesno(chk.consistent),
                    )
                )
            )
        lines.append(f"# result: {'pass' if all_consistent else 'FAIL'}")
        _emit(lines, config)
        return _EXIT_OK if all_consistent else _EXIT_CHECK_FAILED

    lines.append(d.join(("j", "z_partial", "z_tail_bound", "delta_bound")))
    for j in range(1, config.n_max + 1):
        lines.append(
            d.join(
                (
                    str(j),
                    _fmt(z_partial(j, zeros, config.digits), config.digits),
                    _fmt(z_tail_bound(j, zeros, config.digits), config.digits),
                    _fmt(delta_bound(j, config.digits), config.digits),
                )
            )
        )
    _emit(lines, config)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def cmd_probe(args: argparse.Namespace) -> int:
    config = _config_from(args, default_digits=DEFAULT_PROBE_DIGITS)
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
        args.line, fixed, lo, hi, samples=args.samples, precision=config.digits, tol=args.tol
    )
    lines = report.to_tsv().splitlines()
    lines.append(f"# failures: {len(report.failures)}")
    for failure in report.failures:
        lines.append(f"# failed at {failure.param!r}: {failure.reason}")
    lines.append(f"# near_collisions: {len(report.near_collisions)}")
    for pair in report.near_collisions:
        lines.append(
            f"# collision {pair.param1!r} vs {pair.param2!r} distance {pair.distance!r}"
        )
    lines.append(f"# sampled_injective: {_yesno(report.sampled_injective)}")
    _emit(lines, config)
    return _EXIT_OK if report.sampled_injective else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help=f"working precision in decimal digits (default {DEFAULT_DIGITS}; "
                             f"probe defaults to {DEFAULT_PROBE_DIGITS})")
    common.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="largest index n (default 32)")
    common.add_argument("--stieltjes", default=None, metavar="PATH",
                        help="alternate Stieltjes-constant table")
    common.add_argument("--zeros", default=None, metavar="PATH",
                        help="alternate zero-ordinate table")
    common.add_argument("--format", choices=("tsv", "csv"), default="tsv",
                        help="output delimiter (default tsv)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to a file instead of standard output")

    parser = argparse.ArgumentParser(
        prog="likeiper",
        description="Li-Keiper coefficients, trend/tiny decomposition, "
                    "binomial approximation schemes, zero sums, and injectivity probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", parents=[common],
                       help="emit n, trend/n, tiny/n, lambda(n)")
    p.set_defaults(handler=cmd_lambda)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute a golden table and report per-cell agreement")
    p.add_argument("--table", required=True,
                   choices=tuple(TABLE_IDS) + tuple(TABLE_IDS.values()),
                   help="golden table: 1=order-2 ratios, 2=order-3 ratios, "
                        "3=tiny full-history, 4=trend full-history, 5=n log n sums")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("approx", parents=[common],
                       help="run an approximation scheme against exact history "
                            "or self-seeded from lambda(1)")
    p.add_argument("--scheme", required=True,
                   help="a1 (order-2), b (order-3), d (full history), "
                        "a2 (central binomial), or m:<order>")
    p.add_argument("--target", choices=("tiny", "trend", "lambda"), default=None,
                   help="history to predict (default: lambda for a2, tiny otherwise); "
                        "tiny/trend output is per-n normalized")
    p.add_argument("--seed", default="exact",
                   help="exact (predict from true history), or initial:<c> "
                        "(self-seeded with lambda(2) = c*lambda(1)); bare 'initial' "
                        "for schemes that self-seed from lambda(1) alone")
    p.set_defaults(handler=cmd_approx)

    p = sub.add_parser("scan", parents=[common],
                       help="scan the bound |lambda_tiny(n)| <= gamma*n")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("zeros", parents=[common],
                       help="zero-sum partial sums and tail bounds; --inversion for "
                            "the lambda <-> zero-sum consistency check")
    p.add_argument("--inversion", action="store_true",
                   help="check the alternating central-binomial combination of "
                        "lambda values against the truncated zero sums")
    p.set_defaults(handler=cmd_zeros)

    p = sub.add_parser("probe", parents=[common],
                       help="sample the normalized zeta map along a line and "
                            "flag near-collisions (output is always TSV)")
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
    p.set_defaults(handler=cmd_probe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        DataFormatError,
        ZeroDataError,
        ConstantsError,
        PrecisionError,
        HistoryError,
        ValueError,
        OSError,
    ) as exc:
        print(f"likeiper: error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
