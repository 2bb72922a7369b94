"""Zero-data checks, including direct evaluation oracles.

The shipped ordinates are validated by evaluating zeta on the critical
line: the function must essentially vanish at each ordinate and must NOT
vanish between consecutive ones, which catches shifted or duplicated rows.
The closed-form tail integral is checked against adaptive quadrature, and
the one-pass bounds bit for bit against the closed form evaluated per j.
The oracles read each ordinate's exact value, rounded once at their own
precision by ``_mpf``.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from likeiper.bigreal import BigReal, PrecisionError
from likeiper.datafiles import default_zeros_path
from likeiper.lambda_core import LambdaTable, lambda_table
from likeiper.recurrences import VOROS, RecurrenceScheme
from likeiper.zeros import (
    ZeroDataError,
    delta_bound,
    inversion_check,
    load_zeros,
    z_partial,
    z_tail_bound,
)


def _mpf(t):
    """The exact ordinate ``t`` (or an integer height) rounded once at mpmath's
    context precision: mpmath reads ``p/q`` with one correctly rounded division."""
    return mpmath.mpf(str(t))


class TestLoadZeros:
    def test_default_table(self, zeros):
        assert zeros.count == 100
        assert zeros.digits == 50
        assert zeros.warnings == ()
        first = zeros.ordinates[0]
        assert Fraction("14.1") < first < Fraction("14.2")
        # the file's decimal, exactly
        assert first == Fraction("14.134725141734693790457251983562470270784257115699")

    def test_strictly_increasing(self, zeros):
        for a, b in zip(zeros.ordinates, zeros.ordinates[1:]):
            assert a < b
        assert zeros.last is zeros.ordinates[-1]

    def test_few_ordinates_warn(self, tmp_path):
        path = tmp_path / "zeros.tsv"
        path.write_text("# digits: 20\n1\t14.134725141734693790\n2\t21.022039638771554993\n")
        short = load_zeros(path)
        assert short.count == 2
        assert any("tail bounds dominate" in w for w in short.warnings)

    def test_non_increasing_rejected(self, tmp_path):
        path = tmp_path / "zeros.tsv"
        path.write_text("# digits: 20\n1\t14.134725141734693790\n2\t14.134725141734693790\n")
        with pytest.raises(ZeroDataError, match="strictly increasing"):
            load_zeros(path)

    def test_wrong_first_ordinate_rejected(self, tmp_path):
        path = tmp_path / "zeros.tsv"
        path.write_text("# digits: 20\n1\t21.022039638771554993\n")
        with pytest.raises(ZeroDataError, match="first ordinate"):
            load_zeros(path)


class TestOrdinateOracle:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_zeta_vanishes_at_ordinates(self, zeros, k):
        with mp.workdps(60):
            t = _mpf(zeros.ordinates[k])
            value = mpmath.zeta(mpmath.mpc(mpmath.mpf(1) / 2, t))
            assert abs(value) < mpmath.mpf(10) ** -30

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_zeta_not_small_between_ordinates(self, zeros, k):
        with mp.workdps(40):
            mid = _mpf((zeros.ordinates[k] + zeros.ordinates[k + 1]) / 2)
            value = mpmath.zeta(mpmath.mpc(mpmath.mpf(1) / 2, mid))
            assert abs(value) > mpmath.mpf("0.05")


class TestZPartial:
    def test_descending_in_j(self, zeros):
        values = [z_partial(j, zeros, 50)[j - 1] for j in range(1, 9)]
        for a, b in zip(values, values[1:]):
            assert a > b > 0

    @pytest.mark.parametrize("j", range(1, 9))
    def test_dominated_by_first_zero_scale(self, zeros, j):
        bound = BigReal("14.134", 50) ** (-(2 * j - 1))
        assert abs(z_partial(j, zeros, 50)[j - 1]) < bound

    def test_direct_recomputation(self, zeros):
        with mp.workdps(60):
            expected = mpmath.fsum(
                (mpmath.mpf(1) / 4 + _mpf(t) ** 2) ** -3 for t in zeros.ordinates
            )
            got = z_partial(3, zeros, 50)[2]
            assert abs(got.value - expected) < mpmath.mpf(10) ** -45

    def test_rejects_j_below_1(self, zeros):
        with pytest.raises(ValueError):
            z_partial(0, zeros)

    def test_deterministic(self, zeros):
        a = z_partial(4, zeros, 50)[3].to_decimal_string(40)
        b = z_partial(4, zeros, 50)[3].to_decimal_string(40)
        assert a == b


def _fsum_oracle(j, zeros, precision):
    """sum_k (1/4 + t_k^2)^(-j) by mpmath.fsum at precision + 30 digits."""
    with mp.workdps(precision + 30):
        return mpmath.fsum((mpmath.mpf(1) / 4 + _mpf(t) ** 2) ** -j for t in zeros.ordinates)


def _short_table(tmp_path, count):
    """The first ``count`` rows of the shipped table, with its 50 digits."""
    path = tmp_path / f"zeros{count}.tsv"
    rows = [line for line in default_zeros_path().read_text().splitlines()
            if not line.startswith("#")]
    path.write_text("# digits: 50\n" + "".join(f"{row}\n" for row in rows[:count]))
    return load_zeros(path)


_BEYOND_THE_TABLE = "^51 digits exceed the 50 digits of the zero table$"


class TestZPartialKernel:
    """The one-pass fixed-point kernel against an independent fsum oracle."""

    @staticmethod
    def _assert_matches_oracle(zeros, precision, j_max):
        values = z_partial(j_max, zeros, precision)
        assert len(values) == j_max
        for j, got in enumerate(values, 1):
            assert got.precision == precision
            expected = _fsum_oracle(j, zeros, precision)
            with mp.workdps(precision + 30):
                error = abs(got.value - expected) / expected
            assert error < mpmath.mpf(10) ** -(precision + 4), (j, error)

    @pytest.mark.parametrize("precision", [12, 30, 50])
    def test_shipped_table_through_j_80(self, zeros, precision):
        self._assert_matches_oracle(zeros, precision, 80)

    @pytest.mark.parametrize("precision", [12, 30, 50])
    @pytest.mark.parametrize("count", [1, 2])
    def test_one_and_two_ordinate_tables(self, tmp_path, count, precision):
        self._assert_matches_oracle(_short_table(tmp_path, count), precision, 80)

    def test_digits_beyond_the_table_raise(self, zeros):
        # the shipped ordinates carry 50 digits: 51 are refused, not capped at 50
        with pytest.raises(PrecisionError, match=_BEYOND_THE_TABLE):
            z_partial(3, zeros, 51)
        assert [z.precision for z in z_partial(3, zeros, 50)] == [50, 50, 50]

    def test_prefix_of_longer_pass(self, zeros):
        short, long = z_partial(5, zeros, 50), z_partial(32, zeros, 50)
        assert [z.value._mpf_ for z in short] == [z.value._mpf_ for z in long[:5]]


def _per_n_inversion_row(n, lambdas, zeros, precision):
    """One inversion row as first written: a per-n mpf loop for Z(n)."""
    with mp.workdps(precision + 10):
        total = mpmath.mpf(0)
        quarter = mpmath.mpf(1) / 4
        for t in zeros.ordinates:
            total += (quarter + _mpf(t) ** 2) ** (-n)
        z_trunc = BigReal(total, precision)
    lhs = BigReal(_exact_lhs(n, lambdas), precision)
    bound = _tail_integral(n, zeros.last, precision) * 2
    # max(10^-40, B(n)): half a unit in the table's last digit of each
    # lambda_k, carried through the weights C(2n, n - k)
    spread = sum(math.comb(2 * n, n - k) * abs(float(lambdas.lam(k))) for k in range(1, n + 1))
    spread *= 10.0 ** (1 - lambdas.precision) / 2
    allowance = max(BigReal(1, precision) / (10 ** 40), BigReal(spread, precision))
    return lhs, z_trunc, bound, allowance, abs(lhs - z_trunc) <= bound + allowance


def _exact_lhs(n, lambdas):
    """sum_{k=1}^{n} (-1)^(k-1) C(2n, n-k) lambda_k, exact on the table's values."""
    return sum((-1) ** (k - 1) * math.comb(2 * n, n - k) * lambdas.total[k].to_fraction()
               for k in range(1, n + 1))


def _tail_integral(j, T, precision):
    """The density integral beyond the exact height T for one j, by the closed
    form as first written, one call per j: the oracle for the one-pass bounds."""
    with mp.workdps(precision + 10):
        Tv = _mpf(T)
        twopi = 2 * mp.pi
        inv = mpmath.mpf(1) / (2 * j - 1)
        value = (1 / twopi) * Tv ** (-(2 * j - 1)) * inv * (mpmath.log(Tv / twopi) + inv)
        return BigReal(value, precision)


def _bits(values):
    return [(v.precision, v.value._mpf_) for v in values]


class TestTailIntegral:
    """The density integral, through delta_bound (from height 14) and
    z_tail_bound (twice the integral beyond the last ordinate)."""

    def test_small_at_moderate_height(self, zeros):
        value = z_tail_bound(1, zeros, 50)[0]
        assert 0 < value < BigReal(1, 50) / 100

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_quadrature(self, zeros, j):
        with mp.workdps(45):
            def integral(height):
                return mp.quad(
                    lambda x: mp.log(x / (2 * mp.pi)) / (2 * mp.pi) * x ** (-2 * j),
                    [height, mp.inf],
                )
            got = delta_bound(3, 40)[j - 1]
            assert abs(got.value - integral(14)) < mpmath.mpf(10) ** -30
            got = z_tail_bound(3, zeros, 40)[j - 1]
            assert abs(got.value - 2 * integral(_mpf(zeros.last))) < mpmath.mpf(10) ** -30

    def test_decreasing_in_j_and_height(self, zeros):
        low = delta_bound(2, 40)
        assert low[0] > low[1]
        assert low[0] > z_tail_bound(1, zeros, 40)[0] / 2

    def test_starts_at_the_last_ordinate(self, tmp_path):
        # the bound starts at the exact last ordinate of the list it is given
        short = _short_table(tmp_path, 2)
        expected = [_tail_integral(j, short.last, 40) * 2 for j in (1, 2)]
        assert _bits(z_tail_bound(2, short, 40)) == _bits(expected)

    def test_rejects_j_below_1(self, zeros):
        with pytest.raises(ValueError):
            z_tail_bound(0, zeros)
        with pytest.raises(ValueError):
            delta_bound(0)


class TestZTailBound:
    def test_is_twice_the_integral(self, zeros):
        bounds = z_tail_bound(6, zeros, 50)
        for j in (1, 3, 6):
            assert bounds[j - 1].agrees_to(_tail_integral(j, zeros.last, 50) * 2, 45)

    def test_decreasing_in_j(self, zeros):
        bounds = z_tail_bound(6, zeros, 50)
        for a, b in zip(bounds, bounds[1:]):
            assert a > b > 0

    @pytest.mark.parametrize("digits", [12, 30, 50])
    def test_bit_identical_to_per_j_closed_form(self, zeros, digits):
        expected = [_tail_integral(j, zeros.last, digits) * 2 for j in range(1, 41)]
        assert _bits(z_tail_bound(40, zeros, digits)) == _bits(expected)

    def test_digits_beyond_the_table_raise(self, zeros):
        # T = t_100 carries 50 digits, as in z_partial
        with pytest.raises(PrecisionError, match=_BEYOND_THE_TABLE):
            z_tail_bound(1, zeros, 51)
        assert [b.precision for b in z_tail_bound(3, zeros, 50)] == [50, 50, 50]

    def test_prefix_of_longer_pass(self, zeros):
        assert _bits(z_tail_bound(5, zeros, 50)) == _bits(z_tail_bound(32, zeros, 50)[:5])
        assert _bits(delta_bound(5, 50)) == _bits(delta_bound(32, 50)[:5])


class TestDeltaBound:
    @pytest.mark.parametrize("digits", [12, 30, 50, 100])
    def test_bit_identical_to_per_n_closed_form(self, digits):
        # no zero table is read, so no digit count caps the bound
        expected = [_tail_integral(n, 14, digits) for n in range(1, 41)]
        assert _bits(delta_bound(40, digits)) == _bits(expected)

    def test_magnitude_at_5(self):
        d5 = delta_bound(5, 50)[4]
        assert d5 < BigReal(1, 50) / 10**11
        assert BigReal(1, 50) / 10**13 < d5 < BigReal(1, 50) / 10**12

    def test_formula_recomputation(self):
        bounds = delta_bound(8, 50)
        with mp.workdps(60):
            for n in (1, 3, 5, 8):
                inv = mpmath.mpf(1) / (2 * n - 1)
                expected = (
                    mpmath.mpf(14) ** (-(2 * n - 1))
                    / (2 * mp.pi)
                    * inv
                    * (mpmath.log(14 / (2 * mp.pi)) + inv)
                )
                assert abs(bounds[n - 1].value - expected) < mpmath.mpf(10) ** -45

    def test_geometric_decay(self):
        bounds = delta_bound(8, 50)
        for n in range(2, 8):
            ratio = bounds[n] / bounds[n - 1]
            assert ratio < BigReal(1, 50) / 14**2

    def test_rejects_n_below_1(self):
        with pytest.raises(ValueError):
            delta_bound(0)


def _voros_guard(n_max):
    return RecurrenceScheme(kind=VOROS).guard_digits(n_max)


@pytest.fixture(scope="module")
def guarded7():
    """lambda(1..7) at the digits a 50-digit inversion to n = 7 needs."""
    return lambda_table(7, 50 + _voros_guard(7))


class TestInversionCheck:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_consistent_through_7(self, guarded7, zeros, n):
        check = inversion_check(n, guarded7, zeros, 50)[n - 1]
        assert check.consistent
        assert check.residual <= check.tail_bound + check.allowance

    def test_n1_residual_and_bound(self, guarded7, zeros):
        check = inversion_check(1, guarded7, zeros, 50)[0]
        assert check.residual.to_decimal_string(9) == "0.003110857"
        assert check.tail_bound.to_decimal_string(9) == "0.006228509"

    def test_n1_brackets_lambda1(self, guarded7, zeros):
        # lambda(1) equals the full zero sum, so it must sit between the
        # truncated sum and the truncated sum plus the tail bound
        check = inversion_check(1, guarded7, zeros, 50)[0]
        assert check.lhs.agrees_to(guarded7.lam(1), 45)
        gap = check.lhs - check.z_truncated
        assert BigReal(0, 50) < gap < check.tail_bound

    def test_residual_magnitudes(self, guarded7, zeros):
        assert inversion_check(2, guarded7, zeros, 50)[1].residual.to_decimal_string(11) == "0.00000001582"
        r5 = inversion_check(5, guarded7, zeros, 50)[4].residual
        assert BigReal("2.8e-23", 50) < r5 < BigReal("2.9e-23", 50)

    def test_zero_allowance_still_consistent_for_n2(self, guarded7, zeros):
        check = inversion_check(2, guarded7, zeros, 50)[1]
        assert check.residual <= check.tail_bound

    def test_tampered_lambda_detected(self, guarded7, zeros):
        bumped = list(guarded7.total)
        bumped[2] = bumped[2] + BigReal(1, 50) / 1000
        tampered = LambdaTable(
            n_max=guarded7.n_max,
            precision=guarded7.precision,
            trend=guarded7.trend,
            tiny=guarded7.tiny,
            total=tuple(bumped),
        )
        check = inversion_check(2, tampered, zeros, 50)[1]
        assert not check.consistent

    @pytest.mark.parametrize("digits", [30, 50])
    def test_lhs_bit_identical_to_ascending_loop(self, zeros, digits):
        # oracle: the alternating central-binomial sum added exactly in
        # ascending k, then rounded once at the requested digits
        table = lambda_table(32, digits + _voros_guard(32))
        for n in range(1, 33):
            expected = BigReal(_exact_lhs(n, table), digits)
            lhs = inversion_check(n, table, zeros, digits)[n - 1].lhs
            assert lhs.precision == expected.precision
            assert lhs.value._mpf_ == expected.value._mpf_, n

    @pytest.mark.parametrize("digits", [30, 50])
    def test_rows_bit_identical_to_per_n_loop(self, zeros, digits):
        table = lambda_table(32, digits + _voros_guard(32))
        rows = inversion_check(32, table, zeros, digits)
        assert [row.n for row in rows] == list(range(1, 33))
        for row in rows:
            expected = _per_n_inversion_row(row.n, table, zeros, digits)
            got = (row.lhs, row.z_truncated, row.tail_bound, row.allowance)
            for a, b in zip(got, expected):
                assert (a.precision, a.value._mpf_) == (b.precision, b.value._mpf_), row.n
            assert row.consistent == expected[4]

    def test_every_field_tagged_at_the_requested_digits(self, guarded7, zeros):
        rows = inversion_check(7, guarded7, zeros, 30)
        fields = [(r.lhs, r.z_truncated, r.tail_bound, r.allowance, r.residual) for r in rows]
        assert {value.precision for row in fields for value in row} == {30}

    def test_digits_beyond_the_zero_table_raise(self, zeros):
        # the lambda table carries the digits; the zero table does not
        table = lambda_table(3, 51 + _voros_guard(3))
        with pytest.raises(PrecisionError, match=_BEYOND_THE_TABLE):
            inversion_check(3, table, zeros, 51)
        # and that refusal comes before the lambda table's own
        with pytest.raises(PrecisionError, match=_BEYOND_THE_TABLE):
            inversion_check(3, lambda_table(3, 20), zeros, 51)

    def test_argument_validation(self, table7, zeros):
        with pytest.raises(ValueError):
            inversion_check(0, table7, zeros)
        with pytest.raises(ValueError):
            inversion_check(8, table7, zeros)

    @pytest.mark.parametrize("n_max, digits", [(7, 50), (32, 30), (32, 50)])
    def test_table_below_the_guard_raises(self, zeros, n_max, digits):
        # C(2n, n-k) amplify the table's rounding about 10^(guard - 3)-fold
        need = digits + _voros_guard(n_max)
        with pytest.raises(PrecisionError, match=f"table tagged {need}, not {need - 1}"):
            inversion_check(n_max, lambda_table(n_max, need - 1), zeros, digits)
        assert len(inversion_check(n_max, lambda_table(n_max, need), zeros, digits)) == n_max
