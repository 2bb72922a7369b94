#!/usr/bin/env python3
"""Committed mutation checks: each mutant must make its tests fail.

A mutant swaps one exact piece of text in one module of ``src/`` for
another.  For each mutant the runner copies ``src/`` to a temporary
directory, applies the swap there (the tree itself is never touched), and
runs ``pytest -x -q`` on the mutant's test files with the copy first on
``PYTHONPATH``.  A mutant is *killed* when pytest reports a failing test,
*survived* when every test passes, and *stale* when its old text no longer
occurs exactly once, so a refactor has to update its mutants with the code.
Any other pytest outcome (an import error at collection, a missing test
file) is an *error*.  The named tests must pass on the unmutated tree,
which the tier-1 suite checks.

Run from anywhere, standard library and pytest only:

    python scripts/mutants.py

It prints one line per mutant and exits 0 when every mutant is killed, 1
otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str                # module path relative to src/
    old: str                 # exact text, found once in the module
    new: str
    tests: Tuple[str, ...]   # pytest arguments (files or node ids), relative to the root


MUTANTS: Tuple[Mutant, ...] = (
    # series_log keeps k * b_k once per coefficient
    Mutant("log-kb-unrounded", "likeiper/series.py",
           "        kb.append(b_n * n)\n", "        kb.append(acc)\n",
           ("tests/test_series.py",)),
    Mutant("log-b-for-kb", "likeiper/series.py",
           "acc = acc - kb[k] * a[n - k]", "acc = acc - b[k] * a[n - k]",
           ("tests/test_series.py",)),
    # the composition through u = z/(1-z): Horner's rule with prefix sums
    Mutant("compose-zero-constant", "likeiper/series.py",
           "    return (a[0], *accumulate(h))", "    return (a[0] * 0, *accumulate(h))",
           ("tests/test_series.py",)),
    Mutant("compose-forward-horner", "likeiper/series.py",
           "    for a_k in reversed(a[1:]):", "    for a_k in a[1:]:",
           ("tests/test_series.py",)),
    # the composition keeps every coefficient of h
    Mutant("compose-h-one-short", "likeiper/series.py",
           "        h = [a_k, *accumulate(h)]\n", "        h = [a_k, *accumulate(h)][:len(a) - 2]\n",
           ("tests/test_series.py",)),
    # a data file's decimal is read exactly, sign included
    Mutant("decimal-reader-drops-sign", "likeiper/datafiles.py",
           '    return -value if text[0] == "-" else value\n', "    return value\n",
           ("tests/test_datafiles.py",)),
    # printed rounding half to even
    Mutant("print-ties-away-from-zero", "likeiper/bigreal.py",
           "if 2 * rest + (units & 1) > denominator:", "if 2 * rest >= denominator:",
           ("tests/test_bigreal.py",)),
    # the tag rule: a value may print as many integer digits as its tag, no more
    Mutant("tag-rule-ge", "likeiper/bigreal.py",
           "            if digits > bound:", "            if digits >= bound:",
           ("tests/test_bigreal.py",)),
    # a value printed at P places is tagged P plus its integer digits: probe samples,
    # predictions and seeded rows (named for the probe, where the rule began)
    Mutant("probe-tag-ignores-integer-digits", "likeiper/bigreal.py",
           "    return places + digits + (abs(whole) >= 10**digits)\n", "    return places\n",
           ("tests/test_probe.py::TestPrintedPlaces",
            "tests/test_contract.py::test_approx_cells_within_one_unit_of_40_more_digits")),
    # arithmetic between two values is tagged with the smaller tag
    Mutant("binary-largest-tag", "likeiper/bigreal.py",
           "precision = min(precision, other.precision)", "precision = max(precision, other.precision)",
           ("tests/test_bigreal.py",)),
    # a value past Python's int-string limit is refused with the library's message, not
    # Python's
    Mutant("print-past-int-string-limit", "likeiper/bigreal.py",
           "            if limit and digits > limit:\n", "            if False:\n",
           ("tests/test_cli.py::TestApprox::test_value_past_int_string_limit_exit_2",)),
    # a fixed-point int is tagged through the one check of a requested tag
    Mutant("tag-check-skipped-in-fixed", "likeiper/bigreal.py",
           "_bits(_checked(precision))", "_bits(precision)",
           ("tests/test_bigreal.py::test_every_producer_refuses_a_tag_below_the_floor",)),
    # a Fraction is its exact numerator divided once
    Mutant("fraction-numerator-rounded-first", "likeiper/bigreal.py",
           "from_rational(value.numerator, value.denominator, prec, round_nearest)",
           "mpf_div(from_int(value.numerator, prec, round_nearest), from_int(value.denominator),"
           " prec, round_nearest)",
           ("tests/test_bigreal.py",)),
    # the trend series on fixed-point ints
    Mutant("trend-zeta-shift", "likeiper/lambda_core.py",
           "(zeta >> k)", "(zeta >> (k + 1))",
           ("tests/test_lambda_core.py",)),
    Mutant("trend-no-guard", "likeiper/lambda_core.py",
           "    work = precision + guard_digits(n_max)\n    wp, zetas",
           "    work = precision\n    wp, zetas",
           ("tests/test_lambda_core.py",)),
    # the tiny series works at the digits its composition cancels
    Mutant("tiny-no-guard", "likeiper/lambda_core.py",
           "    work = precision + guard_digits(n_max)\n    if n_max",
           "    work = precision\n    if n_max",
           ("tests/test_lambda_core.py",)),
    # ... and rounds each gamma_k / k! to nearest, once
    Mutant("tiny-gamma-floored", "likeiper/lambda_core.py",
           "coeffs.append((num + den) // (2 * den))", "coeffs.append(num // (2 * den))",
           ("tests/test_lambda_core.py",)),
    # ... and refuses a request whose working digits the Stieltjes table lacks
    Mutant("tiny-silent-cap", "likeiper/lambda_core.py",
           "    work = precision + guard_digits(n_max)\n"
           "    if n_max - 1 > stieltjes.k_max or work > stieltjes.digits:",
           "    work = min(precision + guard_digits(n_max), stieltjes.digits)\n"
           "    if n_max - 1 > stieltjes.k_max:",
           ("tests/test_lambda_core.py",)),
    # the u^1 coefficient, and lambda(1) with it, carries gamma/2
    Mutant("u1-gamma-not-halved", "likeiper/lambda_core.py",
           "(1 << wp) - (gamma >> 1)", "(1 << wp) - gamma",
           ("tests/test_lambda_core.py",)),
    # approx predicts the history its target names, each built alone
    Mutant("approx-tiny-target-reads-trend", "likeiper/cli.py",
           "        exact = history(tiny_series(args.n_max, work, load_stieltjes(args.stieltjes)))\n",
           "        exact = history(trend_series(args.n_max, work))\n",
           ("tests/test_cli.py::TestApprox",)),
    # a --seed c past the int-string limit is refused before its power of ten is built; the
    # test's first case, c = 1e-limit, kills it before a larger exponent is tried
    Mutant("seed-int-string-limit-skipped", "likeiper/cli.py",
           "    if limit and len(places) + abs(exponent) > limit:\n", "    if False:\n",
           ("tests/test_cli.py::TestApprox::test_seed_digits_stop_at_the_int_string_limit",)),
    # the binomial kernel: an exact integer sum, rounded once at the smallest tag
    Mutant("kernel-exponent-off-by-one", "likeiper/recurrences.py",
           "_fixed(total, den.bit_length() - 1,", "_fixed(total, den.bit_length(),",
           ("tests/test_recurrences.py",)),
    Mutant("kernel-largest-tag", "likeiper/recurrences.py",
           "min(history[k].precision for k in range(n))",
           "max(history[k].precision for k in range(n))",
           ("tests/test_recurrences.py",)),
    # a scheme is its binomial row C(top, n - k) and the seeds it starts from
    Mutant("scheme-voros-top", "likeiper/recurrences.py",
           "VOROS: 2 * n}", "VOROS: n}",
           ("tests/test_recurrences.py",)),
    Mutant("seeds-off-by-one", "likeiper/recurrences.py",
           "            return self.m - 1\n", "            return self.m\n",
           ("tests/test_recurrences.py",)),
    # phi1's k log k carry the digits the C(n, k) cancel
    Mutant("phi-no-binomial-guard", "likeiper/recurrences.py",
           "dps_to_prec(precision + 10 + binomial_guard_digits(n))",
           "dps_to_prec(precision + 10)",
           ("tests/test_recurrences.py",)),
    # self-seeded runs are exact and round each output once
    Mutant("seeded-rounded-in-loop", "likeiper/recurrences.py",
           "        values.append(predict(scheme, values, n))\n",
           "        values.append(predict(scheme, values, n))\n"
           "        if tags:\n            values[-1] = _exact(BigReal(values[-1], min(tags)))\n",
           ("tests/test_recurrences.py",)),
    # a golden cell matches strictly inside one unit in its last printed place
    Mutant("verdict-boundary-inclusive", "likeiper/goldens.py",
           "matches=deviation < cell.tolerance,", "matches=deviation <= cell.tolerance,",
           ("tests/test_goldens.py::TestExactVerdict",)),
    # ... and a verification refuses digits below the most places a cell prints
    Mutant("verify-undecidable-places", "likeiper/goldens.py",
           "    if precision < places:\n", "    if precision < places - 1:\n",
           ("tests/test_goldens.py::TestVerification",)),
    # a non-finite point is refused before the engine reads it
    Mutant("point-accepts-non-finite", "likeiper/probe.py",
           "    if any(not man and exp for _, man, exp, _ in point):",
           "    if False:",
           ("tests/test_probe.py::TestFEval",)),
    # the tail's U_j = c_j (P_j' - log(N) P_j) takes P's share of the derivative
    Mutant("tail-u-without-t-term", "likeiper/probe.py",
           "y0, y1 = q0 * ab0 - q1 * ab1 + p0 * apb - p1 * s2, q0 * ab1 + q1 * ab0 + p0 * s2 + p1 * apb",
           "y0, y1 = q0 * ab0 - q1 * ab1, q0 * ab1 + q1 * ab0",
           ("tests/test_probe.py::TestEngineOracle",)),
    # every sample of a line sums to the line's one N, so no prime drops out and comes back,
    # and each prime's power comes from _power once per distinct step
    Mutant("line-n-per-sample", "likeiper/probe.py",
           '    N = max(N, line.get("N", 0))\n    n_bits = N.bit_length()',
           '    n_bits = max(N, line.get("N", 0)).bit_length()',
           ("tests/test_probe.py::TestLineStepping::test_exp_and_cos_sin_once_per_prime_and_step",)),
    # a probe sample's error budget carries zeta'/zeta's share of zeta's error, so
    # every printed place holds
    Mutant("probe-budget-drops-quotient-term", "likeiper/probe.py",
           "dq = e * (one + q) // (max(abs(zr), abs(zi)) - e) + 1",
           "dq = e * one // (max(abs(zr), abs(zi)) - e) + 1",
           ("tests/test_probe.py::TestPrintedPlaces",)),
    # zeta near s = 1: s - 1 formed exactly lifts wp by the bits it costs the pole term
    Mutant("pole-lift-dropped", "likeiper/probe.py",
           "lift = max(0, pole[1] - (pole[0].bit_length() - 1) // 2 - 2 * n_bits - 10) * math.log10(2)",
           "lift = 0",
           ("tests/test_probe.py::TestZetaComplex::test_relative_error_near_the_pole",)),
    # a point whose direct terms pass _MAX_TERMS is refused, not summed
    Mutant("max-terms-unchecked", "likeiper/probe.py",
           "    if N > _MAX_TERMS or lift > _MAX_LIFT_DIGITS:\n", "    if lift > _MAX_LIFT_DIGITS:\n",
           ("tests/test_probe.py::TestFEval::test_line_records_points_past_the_caps",)),
    # the near-collision sweep stops where the real gap reaches tol
    Mutant("sweep-break-at-half-tol", "likeiper/probe.py",
           "if fb.real - fa.real >= tol:", "if fb.real - fa.real >= tol / 2:",
           ("tests/test_probe.py::TestNearCollisionSweep",)),
    # the Stieltjes table's gamma_0 is checked to its digits less a 2-digit margin, no looser
    Mutant("gamma0-margin-loosened", "likeiper/constants.py",
           "Fraction(1, 2 * 10 ** (digits - 2))", "Fraction(1, 2 * 10 ** (digits - 3))",
           ("tests/test_constants.py::TestGamma0Boundary",)),
    # zero sums and their bounds refuse digits past the zero table, not cap them
    Mutant("zero-table-clamp", "likeiper/zeros.py",
           "    if precision > zeros.digits:\n"
           "        raise PrecisionError(f\"{precision} digits exceed the {zeros.digits} digits of the"
           " zero table\")\n"
           "    return precision\n",
           "    return min(precision, zeros.digits)\n",
           ("tests/test_zeros.py",)),
    # the inversion allowance covers the table's rounding, B(n)
    Mutant("inversion-no-rounding-bound", "likeiper/zeros.py",
           "allowance = max(floor, BigReal(spread, precision))", "allowance = floor",
           ("tests/test_cli.py::TestZeros",)),
)


def run_mutant(mutant: Mutant) -> Tuple[str, str]:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests there.

    Returns the status (``killed``, ``survived``, ``stale`` or ``error``)
    and pytest's last output line or the reason the text is stale.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return "stale", f"old text occurs {count} times in src/{mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return status, lines[-1] if lines else proc.stderr.strip()[-200:]


def main() -> int:
    failed, start = 0, time.perf_counter()
    for mutant in MUTANTS:
        status, detail = run_mutant(mutant)
        failed += status != "killed"
        print(f"{status}\t{mutant.name}\t{detail}", flush=True)
    print(f"# {len(MUTANTS) - failed} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
