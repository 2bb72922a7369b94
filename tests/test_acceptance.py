"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single summary line (visible with ``pytest -v -s`` and in
the captured output of failures) and asserts the criterion at its stated
tolerance.  Reference cells that carry a documented correction (``!expect=``
flag in the fixture) are compared against the correction, and the printed
form is separately refuted, so a silently fixed fixture would fail here too.

Criterion 2 is asserted verbatim against the printed strings: the prediction
columns of the 20-digit reference were produced with last-digit arithmetic
noise (the fixture note records this), so the strict every-printed-digit
comparison is expected to fail.  It is kept failing on purpose — the
companion tests right after it pin the actual agreement: every cell is
reproduced within the propagated print-rounding noise bound, and the
central-binomial defect equals the truncated zero power sum.
"""

from __future__ import annotations

import time
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from math import comb, factorial

import mpmath
from mpmath import mp

from likeiper.bigreal import BigReal, big
from likeiper.constants import euler_gamma
from likeiper.goldens import load_golden, verify_table
from likeiper.lambda_core import conjecture_scan, lambda_table
from likeiper.probe import line_probe, zeta_complex
from likeiper.recurrences import (
    FULL_HISTORY,
    ORDER_M,
    VOROS,
    RecurrenceScheme,
    discrete_derivative,
    phi_nlogn,
    predict_full_history,
    predict_order_m,
    predict_voros,
    self_seeded_run,
)
from likeiper.series import parity_sign
from likeiper.zeros import delta_bound, inversion_check, z_partial, z_tail_bound

DIGITS = 50


def _round_to_places(value: BigReal, places: int) -> str:
    """Correctly rounded decimal string with exactly ``places`` places."""
    as_dec = Decimal(value.to_decimal_string(places + 10))
    return str(as_dec.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))


def _sig3(text: str) -> str:
    """Normalize a decimal string to 3 significant figures."""
    return f"{Decimal(text):.2e}"


# ---------------------------------------------------------------------------
# 1. 20-digit coefficients
# ---------------------------------------------------------------------------


def test_criterion_01_lambda_1_to_7_to_half_ulp_of_20_digits():
    """lambda(1)..lambda(7) reproduce the 20-digit reference values to
    0.5e-19 absolute, in under 10 seconds at 50 digits."""
    golden = load_golden("coeff20")
    started = time.perf_counter()
    table = lambda_table(7, DIGITS)
    values = [table.lam(n) for n in range(1, 8)]
    elapsed = time.perf_counter() - started

    tol = big("0.5e-19", DIGITS)
    devs = []
    for n in range(1, 8):
        cell = golden.cell(n, "lam")
        devs.append(abs(values[n - 1] - big(cell.target, DIGITS)))

    # the first value is quoted verbatim in the release checklist
    assert golden.cell(1, "lam").printed == "0.02309570896612103381"
    assert _round_to_places(values[0], 20) == "0.02309570896612103381"

    # the n=3 cell carries a documented transposition; the correction is
    # reproduced and the printed form refuted
    flagged = golden.cell(3, "lam")
    assert flagged.flagged
    assert abs(values[2] - big(flagged.printed, DIGITS)) > big("1e-6", DIGITS)

    max_dev = max(devs)
    print(
        f"criterion 1: max|dev| = {float(max_dev):.2e} (tol 0.5e-19), "
        f"runtime = {elapsed:.2f} s"
    )
    for n, dev in enumerate(devs, start=1):
        assert dev <= tol, f"lambda({n}) deviates by {float(dev):.3e}"
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. prediction columns of the 20-digit reference, verbatim
# ---------------------------------------------------------------------------


def test_criterion_02_recurrences_reproduce_every_printed_digit(table7):
    """Full-history and central-binomial predictions on exact history,
    compared against every printed digit of the reference columns.

    This is the strict form: the recomputed value, correctly rounded to the
    printed number of places, must equal the printed string for all twelve
    cells.  The reference's prediction columns carry last-digit arithmetic
    noise (see the fixture note), so this check fails and is intentionally
    left failing; the two tests following it establish what does hold.
    """
    golden = load_golden("coeff20")
    history = table7.total
    mismatches = []
    lines = []
    for column, predictor in (("a1", predict_full_history), ("a2", predict_voros)):
        for n in range(2, 8):
            cell = golden.cell(n, column)
            recomputed = predictor(history[:n], n)
            places = len(cell.printed.split(".")[1])
            rounded = _round_to_places(recomputed, places)
            ok = rounded == cell.printed
            dev = abs(recomputed - big(cell.printed, DIGITS))
            lines.append(
                f"  {column}({n}): printed={cell.printed} recomputed={rounded} "
                f"dev={float(dev):.2e} {'ok' if ok else 'MISMATCH'}"
            )
            if not ok:
                mismatches.append((column, n))
    table_text = "\n".join(lines)
    print(
        f"criterion 2: {len(mismatches)} of 12 cells do not reproduce every "
        f"printed digit\n{table_text}"
    )
    assert not mismatches, (
        "printed prediction columns are not digit-exact reproductions:\n"
        + table_text
    )


def test_recurrence_columns_within_propagated_rounding_noise(table7):
    """Companion to the strict check above: every prediction cell agrees with
    its (correction-aware) reference within the noise bound obtained by
    propagating one half-unit of the 20th place through the binomial weights,
    sum_k |weight_k| * 0.5e-19."""
    golden = load_golden("coeff20")
    history = table7.total
    half_ulp20 = big("0.5e-19", DIGITS)
    worst_ratio = 0.0
    for column, predictor in (("a1", predict_full_history), ("a2", predict_voros)):
        for n in range(2, 8):
            cell = golden.cell(n, column)
            recomputed = predictor(history[:n], n)
            if column == "a1":
                weight_sum = sum(comb(n, k) for k in range(1, n))
            else:
                weight_sum = sum(comb(2 * n, n - k) for k in range(1, n))
            bound = half_ulp20 * weight_sum
            dev = abs(recomputed - big(cell.target, DIGITS))
            assert dev <= bound, (
                f"{column}({n}): dev {float(dev):.3e} exceeds propagated "
                f"noise bound {float(bound):.3e}"
            )
            worst_ratio = max(worst_ratio, float(dev) / float(bound))
    print(
        "recurrence columns within propagated rounding noise; worst "
        f"dev/bound = {worst_ratio:.3f}"
    )


def test_voros_defect_equals_truncated_zero_power_sum(table7, zeros):
    """The exact identity behind the central-binomial scheme: the amount by
    which the prediction misses lambda(n) is the alternating-sign zero power
    sum, so |lambda(n) - prediction - (-1)^(n-1) Z_partial(n)| stays inside
    the tail bound of the ingested zero list."""
    history = table7.total
    for n in range(2, 8):
        prediction = predict_voros(history[:n], n)
        defect = table7.lam(n) - prediction
        residual = abs(defect - z_partial(n, zeros, DIGITS)[n - 1] * parity_sign(n - 1))
        bound = z_tail_bound(n, zeros, DIGITS)[n - 1]
        assert residual <= bound, (
            f"n={n}: residual {float(residual):.3e} outside tail bound "
            f"{float(bound):.3e}"
        )
    print("voros defect equals truncated zero power sum for n = 2..7")


# ---------------------------------------------------------------------------
# 3. 12-digit prediction tables
# ---------------------------------------------------------------------------


def test_criterion_03_twelve_digit_tables_and_n15_error(table15):
    """Full-history predictions of the tiny and trend parts match the
    12-digit reference columns for n <= 15 (flagged typo cells compared
    against their corrections), and the n = 15 tiny-part error reproduces
    4.649e-9 to 3 significant figures."""
    flag_counts = {}
    for name in ("tiny_fullhistory", "trend_fullhistory"):
        report = verify_table(name, DIGITS)
        bad = [
            r for r in report.reports if not r.cell.flagged and not r.matches
        ]
        assert not bad, f"{name}: unflagged mismatches {[(r.cell.row, r.cell.column) for r in bad]}"
        assert not report.stale_flags, f"{name}: stale correction flags"
        flag_counts[name] = len([r for r in report.reports if r.cell.flagged])

    history = table15.tiny
    err = abs(predict_full_history(history, 15) / 15 - table15.tiny[15] / 15)
    mine = _sig3(err.to_decimal_string(20))
    quoted = _sig3("4.649e-9")
    print(
        f"criterion 3: both tables verified (flags: {flag_counts}), "
        f"n=15 error = {mine} vs quoted {quoted}"
    )
    assert mine == quoted


# ---------------------------------------------------------------------------
# 4. 3-decimal ratio tables and bound orientation
# ---------------------------------------------------------------------------


def test_criterion_04_ratio_tables_to_three_decimals_and_orientation(table15):
    """Order-2 and order-3 ratio columns match the references to 3 decimals
    for all printed rows (the flagged order-2 row-11 cell against its
    correction), and for 3 <= n <= 11 the order-2 prediction sits above the
    exact ratio while the order-3 prediction sits below."""
    for name in ("ratio_order2", "ratio_order3"):
        report = verify_table(name, DIGITS)
        bad = [r for r in report.reports if not r.cell.flagged and not r.matches]
        assert not bad, f"{name}: unflagged mismatches {[(r.cell.row, r.cell.column) for r in bad]}"
        assert not report.stale_flags, f"{name}: stale correction flags"

    gamma = euler_gamma(DIGITS)
    history = table15.tiny

    # row 11, quoted in the release checklist for both schemes
    pred2_11 = predict_order_m(history, 11, 2) / (gamma * 11)
    pred3_11 = predict_order_m(history, 11, 3) / (gamma * 11)
    order2_cell = load_golden("ratio_order2").cell(11, "pred")
    assert order2_cell.flagged
    assert abs(pred2_11 - big(order2_cell.target, DIGITS)) < big("0.5e-3", DIGITS)
    # the printed form of that cell misses even at 3 decimals
    assert abs(pred2_11 - big(order2_cell.printed, DIGITS)) > big("1.5e-3", DIGITS)
    order3_cell = load_golden("ratio_order3").cell(11, "pred")
    assert not order3_cell.flagged and order3_cell.printed == "0.196000"
    assert abs(pred3_11 - big("0.196000", DIGITS)) < big("0.5e-3", DIGITS)

    for n in range(3, 12):
        exact = table15.tiny[n] / (gamma * n)
        above = predict_order_m(history, n, 2) / (gamma * n)
        below = predict_order_m(history, n, 3) / (gamma * n)
        assert above > exact, f"order-2 not above exact at n={n}"
        assert below < exact, f"order-3 not below exact at n={n}"
    print(
        "criterion 4: ratio tables verified; row 11 = "
        f"{pred2_11.to_decimal_string(6)} / {pred3_11.to_decimal_string(6)}; "
        "orientation holds for 3 <= n <= 11"
    )


# ---------------------------------------------------------------------------
# 5. n log n sums
# ---------------------------------------------------------------------------


def test_criterion_05_nlogn_sums_to_twelve_digits_and_gap_bound():
    """phi1 and phi2 match all 32 reference rows to 12 digits (flagged cells
    against their corrections) and |phi1 - phi2| at n = 32 is below 0.31."""
    report = verify_table("nlogn_sums", DIGITS)
    bad = [r for r in report.reports if not r.cell.flagged and not r.matches]
    assert not bad, f"unflagged mismatches {[(r.cell.row, r.cell.column) for r in bad]}"
    assert not report.stale_flags
    flagged = [r for r in report.reports if r.cell.flagged]

    phi1, phi2 = phi_nlogn(32, DIGITS)
    gap = abs(phi1 - phi2)
    print(
        f"criterion 5: 32 rows verified ({len(flagged)} corrected cells), "
        f"|phi1 - phi2|(32) = {gap.to_decimal_string(6)} < 0.31"
    )
    assert gap < big("0.31", DIGITS)


# ---------------------------------------------------------------------------
# 6. inversion consistency against the zero list
# ---------------------------------------------------------------------------


def test_criterion_06_inversion_consistent_for_n_1_to_7(zeros):
    """For 1 <= n <= 7 the alternating central-binomial combination of
    lambda values agrees with the truncated zero power sum within
    z_tail_bound(n) + 1e-40, using 100 zeros at 50 digits; the n = 1
    bracket contains lambda(1).  The lambda table carries the guard digits
    the weights C(2n, n-k) cancel."""
    assert zeros.count == 100 and zeros.digits == 50
    table7 = lambda_table(7, DIGITS + RecurrenceScheme(kind=VOROS).guard_digits(7))
    allowance = big("1e-40", DIGITS)
    residuals = []
    for n in range(1, 8):
        check = inversion_check(n, table7, zeros, DIGITS)[n - 1]
        assert check.consistent, f"inversion inconsistent at n={n}"
        assert check.residual <= check.tail_bound + allowance, f"inversion inconsistent at n={n}"
        residuals.append(float(check.residual))

    first = inversion_check(1, table7, zeros, DIGITS)[0]
    lam1 = table7.lam(1)
    assert first.z_truncated < lam1 < first.z_truncated + first.tail_bound
    print(
        "criterion 6: consistent for n = 1..7, residuals "
        + ", ".join(f"{r:.1e}" for r in residuals)
        + "; n=1 bracket contains lambda(1)"
    )


# ---------------------------------------------------------------------------
# 7. remainder and partial-sum bounds
# ---------------------------------------------------------------------------


def test_criterion_07_delta_bound_and_partial_sum_decay(zeros):
    """delta_bound(5) < 1e-11 and |z_partial(j)| < 14.134^-(2j-1) for
    1 <= j <= 8."""
    d5 = delta_bound(5, DIGITS)[4]
    assert d5 < big("1e-11", DIGITS), f"delta_bound(5) = {float(d5):.3e}"
    for j in range(1, 9):
        partial = abs(z_partial(j, zeros, DIGITS)[j - 1])
        ceiling = 14.134 ** (-(2 * j - 1))
        assert float(partial) < ceiling, (
            f"|z_partial({j})| = {float(partial):.3e} >= {ceiling:.3e}"
        )
    print(f"criterion 7: delta_bound(5) = {float(d5):.2e} < 1e-11; decay holds for j = 1..8")


# ---------------------------------------------------------------------------
# 8. conjecture scan
# ---------------------------------------------------------------------------


def test_criterion_08_conjecture_scan_to_64(stieltjes):
    """|lambda_tiny(n)/(n gamma)| <= 1 for every n <= 64, and the ratios at
    n in {1, 5, 8, 10} match the reference table to 4 decimals."""
    rows = conjecture_scan(64, DIGITS, stieltjes)
    assert len(rows) == 64
    violations = [row.n for row in rows if not row.within_bound]
    assert not violations, f"bound violated at {violations}"
    assert rows[0].ratio == BigReal(1, DIGITS)

    golden = load_golden("scan_ratios")
    spots = {}
    for n in (1, 5, 8, 10):
        cell = golden.cell(n, "ratio")
        dev = abs(rows[n - 1].ratio - big(cell.target, DIGITS))
        # reference ratios are truncated to 4 places, so match to one unit
        # in the last place
        assert dev < cell.tolerance(DIGITS), (
            f"n={n}: {rows[n - 1].ratio.to_decimal_string(6)} vs {cell.target}"
        )
        spots[n] = cell.target
    print(f"criterion 8: no violations for n <= 64; spot ratios {spots} reproduced")


# ---------------------------------------------------------------------------
# 9. property suites
# ---------------------------------------------------------------------------


def test_criterion_09_property_suites(table32, stieltjes):
    """Exact-rational properties: order-m differences annihilate polynomials
    of degree < m (degrees 0..5, orders 1..6); self-seeded closed forms
    n*l1, n^2*l1, n(n+1)/2*l1 and the general quadratic family; lambda(n)
    for n <= 32 agrees between 50- and 80-digit runs to at least 45 digits."""
    # polynomial annihilation, exact rational arithmetic
    for degree in range(0, 6):
        f = [(Fraction(3) * k - 7) ** degree for k in range(0, 25)]
        for order in range(1, 7):
            samples = [discrete_derivative(f, n, order) for n in range(order + 8, order + 12)]
            if order > degree:
                assert all(s == 0 for s in samples), (
                    f"order {order} does not annihilate degree {degree}"
                )
            elif order == degree:
                expected = Fraction(3) ** degree * factorial(degree)
                assert all(s == expected for s in samples)
            else:
                assert any(s != 0 for s in samples)

    # self-seeded closed forms, exact rational arithmetic
    lam1 = Fraction(17, 5)
    n_max = 32

    order2 = RecurrenceScheme(kind=ORDER_M, m=2)
    got = self_seeded_run(order2, lam1, c=Fraction(2), n_max=n_max)
    assert got == [n * lam1 for n in range(1, n_max + 1)]

    voros = RecurrenceScheme(kind=VOROS)
    got = self_seeded_run(voros, lam1, n_max=n_max)
    assert got == [n * n * lam1 for n in range(1, n_max + 1)]

    full = RecurrenceScheme(kind=FULL_HISTORY)
    got = self_seeded_run(full, lam1, c=Fraction(4), n_max=n_max)
    assert got == [n * n * lam1 for n in range(1, n_max + 1)]
    got = self_seeded_run(full, lam1, c=Fraction(3), n_max=n_max)
    assert got == [Fraction(n * (n + 1), 2) * lam1 for n in range(1, n_max + 1)]
    for c in (2, 3, 4, 7):
        got = self_seeded_run(full, lam1, c=Fraction(c), n_max=n_max)
        expected = [
            ((Fraction(c, 2) - 1) * n * (n - 1) + n) * lam1
            for n in range(1, n_max + 1)
        ]
        assert got == expected, f"general closed form fails for c={c}"

    # precision stability 50 vs 80 digits
    table80 = lambda_table(32, 80, stieltjes)
    max_dev = Decimal(0)
    for n in range(1, 33):
        d50 = Decimal(table32.lam(n).to_decimal_string(48))
        d80 = Decimal(table80.lam(n).to_decimal_string(48))
        max_dev = max(max_dev, abs(d50 - d80))
    assert max_dev < Decimal("1e-45"), f"cross-precision deviation {max_dev:E}"
    print(
        "criterion 9: annihilation and closed forms exact; "
        f"50-vs-80-digit max deviation {max_dev:E} (< 1e-45)"
    )


# ---------------------------------------------------------------------------
# 10. probe verdicts and zeta spot checks
# ---------------------------------------------------------------------------


def test_criterion_10_probe_verdicts_and_zeta_spot_checks():
    """The horizontal probe at height 1 over b in [1, 10] and the vertical
    probe at b = 1 over t in [0, 30] are sampled-injective at 500 samples;
    zeta(2) = pi^2/6 and zeta(0) = -1/2 reproduce to 20 digits."""
    horizontal = line_probe("re", 1.0, 1.0, 10.0, samples=500, precision=20)
    assert horizontal.sampled_injective
    assert not horizontal.failures
    assert len(horizontal.samples) == 500

    vertical = line_probe("im", 1.0, 0.0, 30.0, samples=500, precision=20)
    assert vertical.sampled_injective
    # the t = 0 sample sits on the pole's doorstep and is recorded, not fatal
    assert len(vertical.failures) == 1 and vertical.failures[0].param == 0.0
    assert len(vertical.samples) == 499

    with mp.workdps(40):
        basel = mp.pi ** 2 / 6
        dev2 = abs(zeta_complex(2, 30) - basel)
        dev0 = abs(zeta_complex(0, 30) + mpmath.mpf(1) / 2)
        assert dev2 < mpmath.mpf("1e-20")
        assert dev0 < mpmath.mpf("1e-20")
    print(
        "criterion 10: both probes sampled-injective at 500 samples; "
        f"zeta spot deviations {mpmath.nstr(dev2, 3)}, {mpmath.nstr(dev0, 3)}"
    )
