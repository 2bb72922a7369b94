import collections
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from likeiper.bigreal import BigReal
from likeiper.series import (
    SeriesDomainError,
    SeriesOrderError,
    parity_sign,
    series_compose_zmap,
    series_log,
    series_mul,
)
from likeiper import lambda_core
from likeiper.lambda_core import tiny_series, trend_series


def frac_series(*values):
    return tuple(Fraction(v) for v in values)


def closed_form_compose_zmap(coeffs):
    """Reference for series_compose_zmap: since u^k = sum_{n>=k} C(n-1, k-1) z^n,
    [z^0] = a_0 and [z^n] = sum_{k=1}^{n} C(n-1, k-1) a_k for n >= 1."""
    return [coeffs[0]] + [
        sum(math.comb(n - 1, k - 1) * coeffs[k] for k in range(1, n + 1))
        for n in range(1, len(coeffs))
    ]


def recurrence_log(a):
    """Reference for series_log: the recurrence as first written, forming
    k * b_k afresh in every step of the inner loop."""
    b = [a[0] * 0]
    for n in range(1, len(a)):
        acc = a[n] * n
        for k in range(1, n):
            acc = acc - (b[k] * k) * a[n - k]
        b.append(acc / n)
    return b


def exact(x):
    """The exact value of a raw mpf as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


class Counted:
    """A coefficient that counts the additions and multiplications done on it."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __add__(self, other):
        self.tally["add"] += 1
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value + other, self.tally)

    __radd__ = __add__

    def __sub__(self, other):
        self.tally["add"] += 1
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value - other, self.tally)

    def __mul__(self, other):
        self.tally["mul"] += 1
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value * other, self.tally)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self.tally["div"] += 1
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value / other, self.tally)

    def __eq__(self, other):
        other = other.value if isinstance(other, Counted) else other
        return self.value == other


class TestMul:
    def test_difference_of_squares(self):
        a = frac_series(1, 1, 0)
        b = frac_series(1, -1, 0)
        assert list(series_mul(a, b)) == [Fraction(1), Fraction(0), Fraction(-1)]

    def test_koebe_times_one_minus_z_squared(self):
        # K(z) = z/(1-z)^2 = z + 2 z^2 + 3 z^3 + ..., so K(z) (1-z)^2 = z
        koebe = frac_series(0, 1, 2, 3, 4)
        square = frac_series(1, -2, 1, 0, 0)  # (1-z)^2
        product = series_mul(koebe, square)
        assert list(product) == [Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]

    def test_order_mismatch(self):
        with pytest.raises(SeriesOrderError):
            series_mul(frac_series(1, 2), frac_series(1, 2, 3))


class TestKoebe:
    """K(z) = sum n z^n, written out as explicit coefficient lists."""

    def test_functional_identity_multiple_orders(self):
        for order in (2, 5, 9, 16):
            k = frac_series(*range(order + 1))
            sq = frac_series(1, -2, 1, *[0] * (order - 2))
            product = series_mul(k, sq)
            expected = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
            assert list(product) == expected


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

    def test_product_rule_randomized(self):
        """log(a*b) = log(a) + log(b) coefficient-wise (order 16)."""
        rng_coeffs_a = [1] + [Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(16)]
        rng_coeffs_b = [1] + [Fraction((3 * k - 5) % 7 - 3, k + 2) for k in range(16)]
        a = frac_series(*rng_coeffs_a)
        b = frac_series(*rng_coeffs_b)
        lhs = series_log(series_mul(a, b))
        assert list(lhs) == [x + y for x, y in zip(series_log(a), series_log(b))]

    @pytest.mark.parametrize("order", [10, 40, 80])
    def test_multiplications_at_most_half_quadratic(self, order):
        # each k * b_k is formed once: N(N-1)/2 products in the sums, plus
        # n * a_n, n * b_n and the zero; the unhoisted loop needs N(N-1) + N + 1
        tally = collections.Counter()
        a = [Counted(Fraction(1), tally)] + [
            Counted(Fraction((-1) ** k * (k + 2), 3 * k + 5), tally) for k in range(order)]
        out = series_log(a)
        assert tally["mul"] <= order * (order - 1) // 2 + 3 * order
        assert tally["div"] == order
        assert [c.value for c in out] == recurrence_log([c.value for c in a])

    @pytest.mark.parametrize("n_max, precision", [(80, 50), (32, 72), (32, 100), (11, 30)])
    def test_bit_identical_to_recurrence_on_tiny_series_input(self, monkeypatch, n_max, precision):
        # the composed u-series tiny_series logs, as BigReal at its working
        # tag: every coefficient's libmp tuple and tag equal the unhoisted loop's
        seen = []

        def both(a):
            got, want = series_log(a), recurrence_log(a)
            seen.append(len(a))
            assert [(c.raw, c.precision) for c in got] == [(c.raw, c.precision) for c in want]
            return got

        monkeypatch.setattr(lambda_core, "series_log", both)
        tiny_series(n_max, precision)
        assert seen == [n_max + 1]


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
        combined = [alpha * x + beta * y for x, y in zip(a, b)]
        lhs = series_compose_zmap(combined)
        ca, cb = series_compose_zmap(a), series_compose_zmap(b)
        for n in range(5):
            assert lhs[n] == alpha * ca[n] + beta * cb[n]

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=99), min_size=1, max_size=31
        )
    )
    def test_matches_closed_form_reference(self, a):
        assert list(series_compose_zmap(a)) == closed_form_compose_zmap(a)

    @pytest.mark.parametrize("order", [1, 10, 40, 80])
    def test_multiplications_at_most_quadratic(self, order):
        # the closed form needs order*(order-1)/2 multiplications; prefix sums need none
        tally = collections.Counter()
        a = [Counted(Fraction(k + 1, 2 * k + 3), tally) for k in range(order + 1)]
        out = series_compose_zmap(a)
        assert tally == collections.Counter(add=order * (order - 1) // 2)  # no "mul"
        assert [c.value for c in out] == closed_form_compose_zmap([c.value for c in a])

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.integers(min_value=-(1 << 300), max_value=1 << 300), min_size=1, max_size=81),
        wp=st.integers(min_value=0, max_value=400),
    )
    def test_fixed_point_ints_are_the_fraction_path_scaled(self, a, wp):
        # on 2^wp-scaled ints the composition only adds, so it is exact
        scaled = [Fraction(c, 1 << wp) for c in a]
        out = series_compose_zmap(a)
        assert all(type(c) is int for c in out)
        assert [Fraction(c, 1 << wp) for c in out] == list(series_compose_zmap(scaled))

    def test_mpf_within_n_ulps_of_exact(self):
        # raw mpf at 89 digits against the exact composition of the same inputs:
        # each coefficient within order ulps of the sum of its terms' magnitudes.
        # Mixed signs make the prefix sums both grow and cancel, so they round.
        order = 80
        with mp.workdps(89):
            a = [mpmath.mpf((-1) ** (k * k // 3) * (k * k + 3)) / (7 * k + 11)
                 for k in range(order + 1)]
            got = series_compose_zmap(a)
            ulp = exact(mp.eps)
        want = closed_form_compose_zmap([exact(x) for x in a])
        size = closed_form_compose_zmap([abs(exact(x)) for x in a])
        assert any(exact(g) != w for g, w in zip(got, want))
        for n in range(order + 1):
            assert abs(exact(got[n]) - want[n]) <= order * ulp * size[n], n


class TestRawMpfKernel:
    """Raw mpf coefficients follow the same path as Fraction."""

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
        exact = op(self.U, self.V)
        with mp.workdps(60):
            raw = op(*([mpmath.mpf(c.numerator) / c.denominator for c in s]
                       for s in (self.U, self.V)))
            assert all(isinstance(c, mpmath.mpf) for c in raw)
            for got, want in zip(raw, exact):
                assert abs(got - mpmath.mpf(want.numerator) / want.denominator) < mpmath.mpf(10) ** -55


class TestKernelBoundary:
    @pytest.mark.parametrize("build", [tiny_series, trend_series])
    @pytest.mark.parametrize("precision", [20, 50])
    def test_outputs_tagged_at_requested_precision(self, build, precision):
        out = build(8, precision)
        assert isinstance(out, tuple)
        assert len(out) == 9
        for c in out:
            assert isinstance(c, BigReal)
            assert c.precision == precision


class TestBinomial:
    """The composition's weights: u^k = sum_{n>=k} C(n-1, k-1) z^n."""

    def test_paper_values(self):
        def weight(n, k):  # [z^(n+1)] u^(k+1) = C(n, k)
            return series_compose_zmap(frac_series(*[0] * (k + 1), 1, *[0] * (n - k)))[n + 1]

        assert weight(4, 2) == 6
        assert weight(6, 3) == 20
        assert weight(10, 0) == 1

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64))
    def test_row_sums(self, n):
        # u/(1-u) = z/(1-2z): row n of the weights sums to 2^n
        assert series_compose_zmap(frac_series(0, *[1] * (n + 1)))[n + 1] == 2**n


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
