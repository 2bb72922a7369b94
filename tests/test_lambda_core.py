"""The coefficient tables are checked against a from-scratch recomputation.

The oracle below rebuilds the trend/tiny split with raw library floats and
explicit binomial substitution, sharing no code with the package's series
layer, so an arithmetic bug in either side shows up as a mismatch.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from likeiper import lambda_core
from likeiper.bigreal import BigReal
from likeiper.constants import ConstantsError
from likeiper.lambda_core import (
    conjecture_scan,
    guard_digits,
    lambda1_closed_form,
    lambda_table,
    tiny_series,
    trend_series,
)
from likeiper.recurrences import binomial_guard_digits
from likeiper.series import series_compose_zmap

ORACLE_DPS = 60
ORACLE_N = 12

#: The benchmark's reference outputs: every lambda cell computed at 190 digits
#: from mpmath primitives alone, stored to 130 significant digits.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "reference.json"


def oracle_parts(n_max: int):
    """(trend(n), tiny(n)) for n = 1..n_max, computed with raw mpf arithmetic.

    Works in the shifted variable u = s - 1 = z/(1-z):

    * ``(s-1) zeta(s)`` has u-coefficients 1, then (-1)^k gamma_k / k! at
      u^(k+1); its log gives the tiny part.
    * the trend log has u-coefficients t_1 = 1 - log(pi)/2 + psi(1/2)/2 and
      t_k = (-1)^(k+1)/k + psi^(k-1)(1/2)/(2^k k!) for k >= 2.
    * substituting u = z/(1-z) maps u^k to sum_n C(n-1, k-1) z^n, and
      lambda(n) = n * [z^n].
    """
    with mp.workdps(ORACLE_DPS):
        # u-series for the tiny factor
        tiny_u = [mp.mpf(1)]
        for k in range(n_max):
            tiny_u.append(mp.mpf((-1) ** k) * mp.stieltjes(k) / mp.factorial(k))
        tiny_log = _series_log(tiny_u)

        trend_log = [mp.mpf(0), 1 - mp.log(mp.pi) / 2 + mp.psi(0, mp.mpf("0.5")) / 2]
        for k in range(2, n_max + 1):
            term = mp.mpf((-1) ** (k + 1)) / k
            term += mp.psi(k - 1, mp.mpf("0.5")) / (mp.mpf(2) ** k * mp.factorial(k))
            trend_log.append(term)

        def substitute(u_coeffs):
            out = []
            for n in range(1, n_max + 1):
                total = mp.mpf(0)
                for k in range(1, n + 1):
                    total += u_coeffs[k] * mp.binomial(n - 1, k - 1)
                out.append(n * total)
            return out

        return substitute(trend_log), substitute(tiny_log)


def _series_log(a):
    """log of a power series with constant term 1 (raw mpf lists)."""
    n_max = len(a) - 1
    b = [mp.mpf(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = n * a[n]
        for k in range(1, n):
            acc -= k * b[k] * a[n - k]
        b[n] = acc / n
    return b


@pytest.fixture(scope="module")
def oracle():
    return oracle_parts(ORACLE_N)


@pytest.fixture(scope="module")
def table12():
    return lambda_table(ORACLE_N, 50)


class TestAgainstOracle:
    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_trend(self, oracle, table12, n):
        trend, _ = oracle
        with mp.workdps(ORACLE_DPS):
            diff = abs(table12.trend[n].value - trend[n - 1])
            assert diff < mp.mpf(10) ** -45

    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_tiny(self, oracle, table12, n):
        _, tiny = oracle
        with mp.workdps(ORACLE_DPS):
            diff = abs(table12.tiny[n].value - tiny[n - 1])
            assert diff < mp.mpf(10) ** -45

    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_total_is_sum(self, table12, n):
        total = table12.trend[n] + table12.tiny[n]
        assert table12.lam(n).agrees_to(total, 48)


class TestLambda1:
    def test_closed_form_value(self):
        # lambda(1) = 1 + gamma/2 - log(4 pi)/2
        with mp.workdps(70):
            expected = 1 + mp.euler / 2 - mp.log(4 * mp.pi) / 2
            got = lambda1_closed_form(60)
            assert abs(got.value - expected) < mp.mpf(10) ** -55

    def test_matches_table(self, table12):
        assert lambda1_closed_form(50).agrees_to(table12.lam(1), 48)

    def test_leading_digits(self):
        assert lambda1_closed_form(50).to_decimal_string(12) == "0.023095708966"


class TestLambdaTable:
    def test_range_checks(self, table12):
        for bad in (0, -1, ORACLE_N + 1):
            with pytest.raises(IndexError):
                table12.lam(bad)
        with pytest.raises(IndexError):
            table12.tiny[ORACLE_N + 1]

    def test_histories_are_zero_padded(self, table12):
        # index-n tuples: position 0 holds the tag's zero
        for hist in (table12.trend, table12.tiny, table12.total):
            assert len(hist) == ORACLE_N + 1
            assert hist[0].to_fraction() == 0 and hist[0].precision == 50
        for n in range(1, ORACLE_N + 1):
            assert table12.total[n] is table12.lam(n)

    def test_needs_enough_stieltjes_coefficients(self):
        message = ("lambda to n = 82 at 30 digits reads gamma_0..gamma_81 at 59 digits; "
                   "the Stieltjes table has gamma_0..gamma_80 at 130")
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            lambda_table(82, 30)

    def test_last_stieltjes_coefficient_suffices(self):
        # lambda(81) reads gamma_0..gamma_80, the whole shipped table
        table = lambda_table(81, 30)
        assert table.n_max == 81
        assert table.lam(81) > 0

    def test_precision_beyond_stieltjes_digits_raises(self):
        # the shipped table carries 130 digits, and n = 3 works 15 guard digits
        # past the tag; a 131st would be rounding noise
        message = ("lambda to n = 3 at 116 digits reads gamma_0..gamma_2 at 131 digits; "
                   "the Stieltjes table has gamma_0..gamma_80 at 130")
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            tiny_series(3, 116)
        assert len(tiny_series(3, 115)) == 4

    def test_precision_stability(self):
        low = lambda_table(8, 30)
        high = lambda_table(8, 60)
        for n in range(1, 9):
            assert low.lam(n).agrees_to(BigReal(high.lam(n), 30), 27)

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_tiny_series_keeps_its_tag_through_the_cancellation(self, digits):
        # the composition through u = z/(1-z) cancels about 24 digits by
        # n = 80; the guard digits keep every coefficient good to its tag
        low, high = tiny_series(80, digits), tiny_series(80, 75)
        for n in range(1, 81):
            assert low[n].agrees_to(high[n], digits), n


@pytest.fixture(scope="module")
def reference80():
    """{(n, column): value} of the reference's ``lambda --n-max 80`` cells."""
    cells = json.loads(REFERENCE.read_text())["ops"]["lambda_80_50"]
    return {(int(row), column): Fraction(value) for row, column, _, value, *_ in cells}


class TestTagHonestyTo80:
    """Every cell of lambda_table(80, D), printed at D places, is within one
    unit of the reference.  tiny_series works at D + guard_digits(80) = D + 29
    digits, which the 130-digit Stieltjes table holds up to D = 101."""

    @pytest.mark.parametrize("digits", [85, 90, 100])
    def test_every_cell_within_one_unit(self, reference80, digits):
        table, unit = lambda_table(80, digits), Fraction(1, 10 ** digits)
        wrong = []
        for n in range(1, 81):
            got = {"trend_over_n": table.trend[n] / n, "tiny_over_n": table.tiny[n] / n,
                   "lambda": table.total[n]}
            wrong += [(n, column) for column, value in got.items()
                      if abs(Fraction(value.to_decimal_string(digits)) - reference80[n, column]) > unit]
        assert wrong == []


class TestSeriesAccessors:
    def test_tiny_series_matches_table(self, table12):
        s = tiny_series(ORACLE_N, 50)
        assert s[0].to_fraction() == 0
        for n in range(1, ORACLE_N + 1):
            assert s[n].agrees_to(table12.tiny[n] / n, 48)

    def test_trend_series_matches_table(self, table12):
        s = trend_series(ORACLE_N, 50)
        for n in range(1, ORACLE_N + 1):
            assert s[n].agrees_to(table12.trend[n] / n, 48)


class TestTinySeriesRoundsEachGammaOnce:
    """The u-series tiny_series composes holds (-1)^k gamma_k / k! as the
    table's exact decimal times 2^wp, rounded once to the nearest int."""

    @pytest.mark.parametrize("n_max, digits", [(32, 50), (81, 20)])
    def test_composed_ints(self, monkeypatch, stieltjes, n_max, digits):
        seen = []
        monkeypatch.setattr(lambda_core, "series_compose_zmap",
                            lambda a: seen.append(a) or series_compose_zmap(a))
        tiny_series(n_max, digits, stieltjes)
        (coeffs,) = seen
        wp = coeffs[0].bit_length() - 1
        assert coeffs[0] == 1 << wp and len(coeffs) == n_max + 1
        for k in range(n_max):
            exact = (-1) ** k * Fraction(stieltjes.entries[k]) * 2**wp / math.factorial(k)
            assert coeffs[k + 1] == round(exact), k


def _exact(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def trend_oracle(n_max: int, digits: int):
    """lambda_trend(n)/n for n = 0..n_max from mpmath's own zeta(k), log(pi)
    and psi(1/2) at 2 * digits + 20 digits, made exact and composed through
    u = z/(1-z) on Fractions, where the composition rounds nothing."""
    with mp.workdps(2 * digits + 20):
        u = [Fraction(0), _exact(1 - mp.log(mp.pi) / 2 + mp.psi(0, mp.mpf(1) / 2) / 2)]
        for k in range(2, n_max + 1):
            u.append((-1) ** k * (_exact(mp.zeta(k)) * (1 - Fraction(1, 2**k)) - 1) / k)
    return series_compose_zmap(u)


class TestTrendOnInts:
    @pytest.mark.parametrize("digits", [20, 50, 100])
    @pytest.mark.parametrize("n_max", [11, 32, 80])
    def test_matches_independent_zeta(self, n_max, digits):
        got, want = trend_series(n_max, digits), trend_oracle(n_max, digits)
        assert got[0] == 0
        for n in range(1, n_max + 1):
            assert got[n].precision == digits
            assert got[n].agrees_to(BigReal(want[n], 2 * digits), digits), n


class TestGuardDigits:
    def test_floor(self):
        assert guard_digits(1) == 15
        assert guard_digits(30) == 15

    def test_growth_tracks_central_binomial(self):
        # C(n, n/2) ~ 10^(0.301 n); the guard must stay ahead of it
        import math

        for n_max in (40, 64, 100, 200):
            assert guard_digits(n_max) >= math.log10(math.comb(n_max, n_max // 2)) + 2

    @pytest.mark.parametrize("m, digits", [(0, 0), (1, 0), (2, 1), (5, 1), (32, 9), (60, 18), (120, 35)])
    def test_binomial_guard_is_ceil_log10_central_binomial(self, m, digits):
        # C(5, 2) = 10 needs exactly 1 digit; C(32, 16) = 601080390 needs 9
        assert binomial_guard_digits(m) == digits


class TestConjectureScan:
    def test_first_ratio_is_one(self):
        rows = conjecture_scan(4, 50)
        assert rows[0].n == 1
        assert abs(rows[0].ratio - 1) < BigReal(1, 50) / (10**45)
        assert rows[0].within_bound

    def test_all_within_bound_small(self):
        rows = conjecture_scan(16, 50)
        assert [r.n for r in rows] == list(range(1, 17))
        assert all(r.within_bound for r in rows)

    def test_a_positive_with_single_minimum(self):
        # a_n = lambda_tiny(n)/(n gamma) falls from a_1 = 1 to a minimum at n = 28,
        # then turns upward
        values = [row.ratio for row in conjecture_scan(32, 50)]
        for i, v in enumerate(values):
            assert v > 0, f"a_{i + 1} not positive"
        for i in range(27):
            assert values[i] > values[i + 1]
        for i in range(27, 31):
            assert values[i] < values[i + 1]

    def test_ratio_matches_definition(self, table12):
        from likeiper.constants import euler_gamma

        rows = conjecture_scan(ORACLE_N, 50)
        gamma = euler_gamma(50)
        for row in rows:
            expected = abs(table12.tiny[row.n]) / (gamma * row.n)
            assert row.ratio.agrees_to(expected, 45)
