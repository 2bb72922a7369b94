import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from likeiper import (
    BigReal,
    PowerSeries,
    SeriesDomainError,
    SeriesOrderError,
    big,
    binomial,
    koebe_series,
    parity_sign,
    series_add,
    series_compose_zmap,
    series_derivative,
    series_log,
    series_mul,
)
from likeiper.lambda_core import tiny_series, trend_series


def frac_series(*values):
    return PowerSeries([Fraction(v) for v in values])


def horner_compose_zmap(coeffs):
    """Reference for series_compose_zmap: Horner evaluation
    acc <- acc * u + a_k with u = z/(1-z), on plain lists.  Multiplying by u
    shifts the prefix sums: [z^m](acc * u) = acc_0 + ... + acc_{m-1}."""
    order = len(coeffs) - 1
    acc = [Fraction(0)] * (order + 1)
    for a_k in reversed(coeffs):
        acc = [Fraction(0)] + list(itertools.accumulate(acc))[:order]
        acc[0] += a_k
    return acc


class Counted:
    """A coefficient that counts the multiplications done on it in ``tally``."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __add__(self, other):
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value + other, self.tally)

    __radd__ = __add__

    def __mul__(self, other):
        self.tally[0] += 1
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value * other, self.tally)

    __rmul__ = __mul__


class TestPowerSeries:
    def test_order_and_len(self):
        s = frac_series(1, 2, 3)
        assert s.order == 2
        assert len(s) == 3
        assert s[1] == 2

    def test_immutable(self):
        s = frac_series(1, 2)
        with pytest.raises(AttributeError):
            s.coeffs = ()

    def test_empty_rejected(self):
        with pytest.raises((SeriesOrderError, ValueError)):
            PowerSeries([])


class TestMul:
    def test_difference_of_squares(self):
        a = frac_series(1, 1, 0)
        b = frac_series(1, -1, 0)
        assert list(series_mul(a, b)) == [Fraction(1), Fraction(0), Fraction(-1)]

    def test_koebe_times_one_minus_z_squared(self):
        k = koebe_series(4)
        square = frac_series(1, -2, 1, 0, 0)  # (1-z)^2
        product = series_mul(k, square)
        assert list(product) == [Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]

    def test_order_mismatch(self):
        with pytest.raises(SeriesOrderError):
            series_mul(frac_series(1, 2), frac_series(1, 2, 3))

    def test_bigreal_mode_precision(self):
        a = PowerSeries([big(1, 30), big(2, 30)])
        b = PowerSeries([big(1, 30), big(3, 30)])
        out = series_mul(a, b)
        assert [float(c) for c in out] == [1.0, 5.0]


class TestAddDerivative:
    def test_add(self):
        out = series_add(frac_series(1, 2, 3), frac_series(4, 5, 6))
        assert list(out) == [Fraction(5), Fraction(7), Fraction(9)]

    def test_derivative(self):
        out = series_derivative(frac_series(0, 1, 1))
        assert list(out) == [Fraction(1), Fraction(2)]
        assert out.order == 1

    def test_derivative_constant(self):
        out = series_derivative(frac_series(5, 0))
        assert list(out) == [Fraction(0)]


class TestLog:
    def test_mercator(self):
        # log(1/(1-z)) = z + z^2/2 + z^3/3 + z^4/4
        geom = frac_series(1, 1, 1, 1, 1)  # 1/(1-z) truncated
        out = series_log(geom)
        assert list(out) == [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_log_one_plus_z(self):
        out = series_log(frac_series(1, 1, 0, 0))
        assert list(out) == [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3)]

    def test_rejects_non_unit_constant(self):
        with pytest.raises(SeriesDomainError):
            series_log(frac_series(2, 1))

    def test_bigreal_constant_tolerance(self):
        eps = big(1, 30) / (10**29)
        s = PowerSeries([big(1, 30) + eps, big(1, 30)])
        series_log(s)  # within 10^(-precision+2): accepted
        bad = PowerSeries([big("1.001", 30), big(1, 30)])
        with pytest.raises(SeriesDomainError):
            series_log(bad)

    def test_product_rule_randomized(self):
        """log(a*b) = log(a) + log(b) coefficient-wise (order 16)."""
        rng_coeffs_a = [1] + [Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(16)]
        rng_coeffs_b = [1] + [Fraction((3 * k - 5) % 7 - 3, k + 2) for k in range(16)]
        a = PowerSeries([big(Fraction(c), 50) for c in rng_coeffs_a])
        b = PowerSeries([big(Fraction(c), 50) for c in rng_coeffs_b])
        lhs = series_log(series_mul(a, b))
        rhs = series_add(series_log(a), series_log(b))
        for n in range(17):
            assert abs(lhs[n] - rhs[n]) < big(1, 50) / (10**45)


class TestComposeZmap:
    def test_identity_substitution(self):
        out = series_compose_zmap(frac_series(0, 1, 0, 0))
        assert list(out) == [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]

    def test_u_squared(self):
        out = series_compose_zmap(frac_series(0, 0, 1, 0, 0))
        assert list(out) == [Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(3)]

    def test_affine(self):
        out = series_compose_zmap(frac_series(1, 1, 0))
        assert list(out) == [Fraction(1), Fraction(1), Fraction(1)]

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=99), min_size=5, max_size=5),
        b=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=99), min_size=5, max_size=5),
        alpha=st.fractions(min_value=-5, max_value=5, max_denominator=9),
        beta=st.fractions(min_value=-5, max_value=5, max_denominator=9),
    )
    def test_linear_exact(self, a, b, alpha, beta):
        sa, sb = PowerSeries(a), PowerSeries(b)
        combined = PowerSeries([alpha * x + beta * y for x, y in zip(a, b)])
        lhs = series_compose_zmap(combined)
        ca, cb = series_compose_zmap(sa), series_compose_zmap(sb)
        for n in range(5):
            assert lhs[n] == alpha * ca[n] + beta * cb[n]

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=99), min_size=1, max_size=31
        )
    )
    def test_matches_horner_reference(self, a):
        assert list(series_compose_zmap(PowerSeries(a))) == horner_compose_zmap(a)

    @pytest.mark.parametrize("order", [1, 10, 40, 80])
    def test_multiplications_at_most_quadratic(self, order):
        # a Horner loop of truncated products needs about order^3/6 of them
        tally = [0]
        a = [Counted(Fraction(k + 1, 2 * k + 3), tally) for k in range(order + 1)]
        out = series_compose_zmap(PowerSeries(a))
        assert tally[0] <= order * (order + 1) // 2
        assert [c.value for c in out] == horner_compose_zmap([c.value for c in a])


class TestRawMpfKernel:
    """Raw mpf coefficients follow the same path as Fraction and BigReal."""

    U = [Fraction(1)] + [Fraction((-1) ** k * (k + 2), 3 * k + 5) for k in range(12)]
    V = [Fraction(1)] + [Fraction((5 * k) % 7 - 3, k + 4) for k in range(12)]

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: series_mul(a, b),
            lambda a, b: series_log(a),
            lambda a, b: series_compose_zmap(b),
        ],
        ids=["mul", "log", "compose_zmap"],
    )
    def test_agrees_with_exact(self, op):
        exact = op(PowerSeries(self.U), PowerSeries(self.V))
        with mp.workdps(60):
            raw = op(*(PowerSeries([mpmath.mpf(c.numerator) / c.denominator for c in s])
                       for s in (self.U, self.V)))
            assert all(isinstance(c, mpmath.mpf) for c in raw)
            for got, want in zip(raw, exact):
                assert abs(got - mpmath.mpf(want.numerator) / want.denominator) < mpmath.mpf(10) ** -55
        tagged = op(PowerSeries([big(c, 50) for c in self.U]), PowerSeries([big(c, 50) for c in self.V]))
        for got, want in zip(tagged, exact):
            assert isinstance(got, BigReal) and got.precision == 50
            assert abs(got - big(want, 50)) < big(1, 50) / 10**45


class TestKernelBoundary:
    @pytest.mark.parametrize("build", [tiny_series, trend_series])
    @pytest.mark.parametrize("precision", [20, 50])
    def test_outputs_tagged_at_requested_precision(self, build, precision):
        out = build(8, precision)
        assert isinstance(out, PowerSeries)
        assert out.order == 8
        for c in out:
            assert isinstance(c, BigReal)
            assert c.precision == precision


class TestKoebe:
    def test_coefficients_are_indices(self):
        assert list(koebe_series(4)) == [Fraction(n) for n in range(5)]
        assert list(koebe_series(1)) == [Fraction(0), Fraction(1)]

    def test_functional_identity_multiple_orders(self):
        for order in (1, 2, 5, 9, 16):
            k = koebe_series(order)
            sq = PowerSeries(
                [Fraction(1), Fraction(-2), Fraction(1)] + [Fraction(0)] * (order - 2)
            ) if order >= 2 else None
            if sq is None:
                continue
            product = series_mul(k, sq)
            expected = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
            assert list(product) == expected

    def test_bigreal_mode(self):
        k = koebe_series(3, 40)
        assert isinstance(k[1], BigReal)
        assert [float(c) for c in k] == [0.0, 1.0, 2.0, 3.0]

    def test_order_floor(self):
        with pytest.raises(ValueError):
            koebe_series(0)


class TestBinomial:
    def test_paper_values(self):
        assert binomial(4, 2) == 6
        assert binomial(6, 3) == 20
        assert binomial(10, 0) == 1

    def test_outside_triangle_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64))
    def test_row_sums(self, n):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


class TestParitySign:
    def test_small(self):
        assert parity_sign(0) == 1
        assert parity_sign(1) == -1
        assert parity_sign(2) == 1

    def test_negative_exponent(self):
        # (-1)**(-1) in floats would be -1.0; the helper stays exact
        assert parity_sign(-1) == -1
        assert parity_sign(-2) == 1

    @settings(max_examples=50, deadline=None)
    @given(e=st.integers(min_value=-1000, max_value=1000))
    def test_matches_mathematical_definition(self, e):
        assert parity_sign(e) == (1 if e % 2 == 0 else -1)
