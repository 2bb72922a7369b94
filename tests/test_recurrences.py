import gc
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import agrees_to
from likeiper.bigreal import MIN_DIGITS, BigReal, PrecisionError, _places_tag
from likeiper.lambda_core import lambda1_closed_form, lambda_table
from likeiper.recurrences import (
    FULL_HISTORY,
    ORDER_M,
    VOROS,
    HistoryError,
    RecurrenceScheme,
    binomial_guard_digits,
    discrete_derivative,
    model_predictor,
    phi_nlogn,
    predict,
    prediction_run,
    self_seeded_run,
)
from likeiper.series import parity_sign
from likeiper import recurrences

FULL, VOR = RecurrenceScheme(kind=FULL_HISTORY), RecurrenceScheme(kind=VOROS)


def order(m):
    return RecurrenceScheme(kind=ORDER_M, m=m)


def poly_values(coeffs, upto):
    """[P(0), P(1), ..., P(upto)] for P(x) = sum coeffs[d] x^d, exact."""
    return [
        sum(Fraction(c) * Fraction(k) ** d for d, c in enumerate(coeffs))
        for k in range(upto + 1)
    ]


class TestDiscreteDerivative:
    def test_second_difference_kills_linear(self):
        f = poly_values([0, 1], 6)  # f(k) = k
        assert discrete_derivative(f, 2) == 0

    def test_second_difference_of_square(self):
        f = poly_values([0, 0, 1], 6)  # f(k) = k^2
        assert discrete_derivative(f, 2) == 2

    def test_third_difference_of_cube(self):
        f = poly_values([0, 0, 0, 1], 6)  # f(k) = k^3
        assert discrete_derivative(f, 3) == 6

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("order", range(1, 7))
    def test_polynomial_annihilation(self, degree, order):
        # order > degree annihilates; order == degree maps leading a to a * order!
        coeffs = [Fraction(d + 2, 2 * d + 3) for d in range(degree + 1)]
        f = poly_values(coeffs, 8)
        result = discrete_derivative(f, order)
        if order > degree:
            assert result == 0
        elif order == degree:
            factorial = 1
            for i in range(2, order + 1):
                factorial *= i
            assert result == coeffs[-1] * factorial

    def test_order_zero_is_value(self):
        f = poly_values([5, 1], 4)
        assert discrete_derivative(f, 0) == f[0]

    def test_errors(self):
        f = poly_values([0, 1], 3)
        with pytest.raises(ValueError):
            discrete_derivative(f, -1)
        with pytest.raises(HistoryError, match=r"^order m=4 exceeds available index range 0\.\.3$"):
            discrete_derivative(f, 4)
        with pytest.raises(HistoryError):
            discrete_derivative([Fraction(0)], 3)

    @settings(max_examples=30, deadline=None)
    @given(
        f=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=5, max_size=5),
        g=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=5, max_size=5),
        alpha=st.fractions(min_value=-4, max_value=4, max_denominator=9),
        beta=st.fractions(min_value=-4, max_value=4, max_denominator=9),
        m=st.integers(min_value=0, max_value=4),
    )
    def test_linearity(self, f, g, alpha, beta, m):
        combined = [alpha * x + beta * y for x, y in zip(f, g)]
        lhs = discrete_derivative(combined, m)
        rhs = alpha * discrete_derivative(f, m) + beta * discrete_derivative(g, m)
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=9, max_size=12),
        m=st.integers(min_value=0, max_value=8),
    )
    def test_matches_textbook_sum(self, f, m):
        # the textbook forward difference, summed from k = 0 as printed
        textbook = sum(
            (-1) ** k * math.comb(m, k) * f[m - k] for k in range(m + 1)
        )
        assert discrete_derivative(f, m) == textbook

    @settings(max_examples=60, deadline=None)
    @given(tail=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50),
                         min_size=2, max_size=14))
    def test_schemes_are_vanishing_differences(self, tail):
        # a scheme predicts h[n] by setting a discrete derivative to zero, so it
        # misses h[n] by exactly that derivative: order m at base n - m, and the
        # full history at base 0, where h[0] = 0 is the boundary convention
        h = [Fraction(0), *tail]
        for n in range(2, len(h)):
            for m in range(2, n):
                assert h[n] - predict(order(m), h, n) == discrete_derivative(h[n - m:n + 1], m)
            assert h[n] - predict(FULL, h, n) == discrete_derivative(h[:n + 1], n)


class TestPredictOrderM:
    def test_exact_on_linear(self):
        history = poly_values([0, 3], 9)  # f(k) = 3k
        for n in range(2, 10):
            assert predict(order(2), history[:n], n) == 3 * n

    def test_order3_exact_on_quadratic(self):
        history = poly_values([0, 0, 1], 9)  # f(k) = k^2
        for n in range(3, 10):
            assert predict(order(3), history[:n], n) == n * n

    def test_boundary_uses_zero_at_origin(self):
        # at n = m the lowest index is 0, which is pinned to value 0
        history = [Fraction(0), Fraction(5)]
        assert predict(order(2), history, 2) == 10

    def test_errors(self):
        history = poly_values([0, 1], 4)
        with pytest.raises(ValueError):
            predict(order(1), history, 4)
        with pytest.raises(HistoryError):
            predict(order(3), history, 2)


class TestPredictFullHistory:
    def test_n4_weights(self):
        h = [Fraction(0), Fraction(10), Fraction(100), Fraction(1000)]
        assert predict(FULL, h, 4) == 4 * 1000 - 6 * 100 + 4 * 10

    def test_empty_sum_at_n1(self):
        assert predict(FULL, [Fraction(0)], 1) == 0
        zero = predict(FULL, [BigReal(0, 40)], 1)
        assert isinstance(zero, BigReal) and zero.to_fraction() == 0

    def test_exact_on_linear_through_origin(self):
        history = poly_values([0, Fraction(7, 3)], 12)
        for n in range(2, 13):
            assert predict(FULL, history[:n], n) == Fraction(7, 3) * n

    def test_history_too_short(self):
        with pytest.raises(HistoryError):
            predict(FULL, [Fraction(0), Fraction(1)], 4)

    @settings(max_examples=25, deadline=None)
    @given(
        f=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=6, max_size=6),
        g=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=6, max_size=6),
        alpha=st.fractions(min_value=-4, max_value=4, max_denominator=9),
    )
    def test_linearity_in_history(self, f, g, alpha):
        combined = [alpha * x + y for x, y in zip(f, g)]
        lhs = predict(FULL, combined, 6)
        rhs = alpha * predict(FULL, f, 6) + predict(FULL, g, 6)
        assert lhs == rhs


class TestPredictVoros:
    def test_n2_weight(self):
        h = [Fraction(0), Fraction(3)]
        assert predict(VOR, h, 2) == 12

    def test_n3_weights(self):
        # C(6,1) h(2) - C(6,2) h(1)
        h = [Fraction(0), Fraction(1), Fraction(1)]
        assert predict(VOR, h, 3) == 6 - 15

    def test_history_too_short(self):
        with pytest.raises(HistoryError):
            predict(VOR, [Fraction(0)], 3)


def _sign(exponent):
    return -1 if exponent % 2 else 1


def reference_order_m(history, n, m):
    """sum_{j=1}^{m} (-1)^(j+1) C(m,j) history[n-j], reading history[0] as 0."""
    return sum(
        _sign(j + 1) * math.comb(m, j) * (history[n - j] if n > j else 0)
        for j in range(1, m + 1)
    )


def reference_full_history(history, n):
    """sum_{k=1}^{n-1} (-1)^(k-n+1) C(n,k) history[k]."""
    return sum(_sign(k - n + 1) * math.comb(n, k) * history[k] for k in range(1, n))


def reference_voros(history, n):
    """sum_{k=1}^{n-1} (-1)^(k-n+1) C(2n, n-k) history[k]."""
    return sum(_sign(k - n + 1) * math.comb(2 * n, n - k) * history[k] for k in range(1, n))


class TestPredictorsMatchDocstringSums:
    @settings(max_examples=60, deadline=None)
    @given(
        history=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=1, max_size=12
        ),
        tag=st.integers(min_value=15, max_value=60),
        data=st.data(),
    )
    def test_exact_histories(self, history, tag, data):
        # history[0] is arbitrary: no predictor may read it as a value
        n = len(history)
        assert predict(FULL, history, n) == reference_full_history(history, n)
        assert predict(VOR, history, n) == reference_voros(history, n)
        if n >= 2:
            m = data.draw(st.integers(min_value=2, max_value=n), label="m")
            assert predict(order(m), history, n) == reference_order_m(history, n, m)

        # zeros come back in the history's own type, BigReal at its tag
        tagged = [BigReal(x, tag) for x in history]
        for scheme in (FULL, VOR):
            empty = predict(scheme, history, 1)
            assert type(empty) is Fraction and empty == 0
            empty = predict(scheme, tagged, 1)
            assert isinstance(empty, BigReal) and empty.precision == tag
            assert empty.to_fraction() == 0
        seen = []

        def spy(scheme, values, n):
            seen.append(values[0])
            return predict(scheme, values, n)

        # self-seeded runs iterate on exact Fractions, also from a BigReal
        # lambda1, whose outputs are each rounded once at its tag
        with mock.patch.object(recurrences, "predict", spy):
            self_seeded_run(RecurrenceScheme(kind=VOROS), history[-1], n_max=3)
            rounded = self_seeded_run(RecurrenceScheme(kind=VOROS), tagged[-1], n_max=3)
        assert len(seen) == 4
        assert all(type(zero) is Fraction and zero == 0 for zero in seen)
        lam1 = tagged[-1].to_fraction()
        assert [_bits(v) for v in rounded] == [_bits(BigReal(n * n * lam1, tag)) for n in (1, 2, 3)]


def oracle_binomial(history, n, weight, lowest=1):
    """The kernel's sum over ``BigReal`` values taken exactly on their
    ``Fraction``s, then rounded once at the smallest tag of ``history[:n]``."""
    exact = sum(parity_sign(k - n + 1) * weight(k) * history[k].to_fraction()
                for k in range(lowest, n))
    return BigReal(exact, min(h.precision for h in history[:n]))


def _bits(x):
    return x.value._mpf_, x.precision


def _weight(scheme, n):
    """The kernel weight of ``scheme``'s prediction at n."""
    if scheme.kind == ORDER_M:
        return lambda k: math.comb(scheme.m, n - k)
    if scheme.kind == FULL_HISTORY:
        return lambda k: math.comb(n, k)
    return lambda k: math.comb(2 * n, n - k)


@pytest.fixture(scope="module", params=[10, 20, 50, 100])
def tagged_histories(request):
    """lambda and lambda_tiny histories of lambda_table(32, d).  At d = 10 the
    Voros weights C(2n, n-k) outgrow the 53 working bits from n = 29 on."""
    table = lambda_table(32, request.param)
    return table.total, table.tiny


class TestKernelMatchesPerTermBigReal:
    """Each prediction from a ``BigReal`` history is bit for bit the exact
    weighted sum rounded once at the history's smallest tag."""

    def test_every_predictor_bit_identical(self, tagged_histories):
        for history in tagged_histories:
            for n in range(1, len(history) + 1):
                assert _bits(predict(FULL, history, n)) == _bits(
                    oracle_binomial(history, n, lambda k: math.comb(n, k)))
                assert _bits(predict(VOR, history, n)) == _bits(
                    oracle_binomial(history, n, lambda k: math.comb(2 * n, n - k)))
                for m in (2, 3, 4):
                    if n >= m:
                        assert _bits(predict(order(m), history, n)) == _bits(
                            oracle_binomial(history, n, lambda k: math.comb(m, n - k)))
                if n <= 12:
                    m = n - 1
                    assert _bits(discrete_derivative(history, m)) == _bits(
                        oracle_binomial(history, n, lambda k: math.comb(m, k), lowest=0))

    def test_runs_bit_identical(self, tagged_histories):
        history = tagged_histories[0]
        for scheme in (RecurrenceScheme(kind=FULL_HISTORY), RecurrenceScheme(kind=VOROS),
                       RecurrenceScheme(kind=ORDER_M, m=3)):
            # the digits the table's tag leaves after the scheme's guard
            digits = history[1].precision - scheme.guard_digits(32)
            if digits < MIN_DIGITS:
                with pytest.raises(PrecisionError):
                    prediction_run(scheme, history, 3, 32, MIN_DIGITS)
                continue
            for r in prediction_run(scheme, history, 3, 32, digits):
                # the reference rounded at the same tag, the rule's for its integer part
                reference = oracle_binomial(history, r.n, _weight(scheme, r.n))
                tag = _places_tag(digits, int(reference.to_fraction()))
                assert _bits(r.predicted) == _bits(BigReal(reference, tag))
        # the self-seeded run is exact and rounds each output once at lambda(1)'s tag
        values = self_seeded_run(RecurrenceScheme(kind=VOROS), history[1], n_max=32)
        exact = [Fraction(0), history[1].to_fraction()]
        for n in range(2, 33):
            weight = _weight(RecurrenceScheme(kind=VOROS), n)
            exact.append(sum(parity_sign(k - n + 1) * weight(k) * exact[k] for k in range(1, n)))
        assert [_bits(v) for v in values] == [_bits(BigReal(x, history[1].precision))
                                              for x in exact[1:]]

    def test_mixed_tags_give_the_smallest_tag_of_the_terms_read(self):
        exact = [Fraction(0)] + [Fraction(3 * k * k - 7, 11 + k) for k in range(1, 12)]
        tags = [40, 60, 25, 90, 33, 70, 45, 60, 50, 80, 35, 12]
        history = [BigReal(x, t) for x, t in zip(exact, tags)]
        for n in range(1, 12):
            for scheme in (FULL, VOR):
                result = predict(scheme, history, n)
                assert result.precision == min(tags[:n])  # history[n] is not read
                reference = predict(scheme, exact, n)
                scale = sum(abs(x) for x in exact[:n]) * math.comb(2 * n, n) * n
                bound = scale * Fraction(1, 10 ** (result.precision + 4))
                assert abs(result.to_fraction() - reference) <= bound

    def test_fraction_histories_stay_exact(self):
        exact = [Fraction(0)] + [Fraction(k**3 - 2, 2 * k + 1) for k in range(1, 15)]
        for n in range(2, 15):
            result = predict(VOR, exact, n)
            assert type(result) is Fraction and result == reference_voros(exact, n)
            assert predict(order(2), exact, n) == reference_order_m(exact, n, 2)
        assert discrete_derivative(exact, 4) == sum(
            _sign(k) * math.comb(4, k) * exact[4 - k] for k in range(5))


def _every_prediction(history):
    """(name, value) of every predictor at every n the history allows."""
    for n in range(1, len(history) + 1):
        yield ("full", n), predict(FULL, history, n)
        yield ("voros", n), predict(VOR, history, n)
        for m in range(2, n + 1):
            yield ("order", m, n), predict(order(m), history, n)
        yield ("delta", n), discrete_derivative(history, n - 1)


def _exact_prediction(key, history):
    """The sum ``key`` names, exactly, on an exact history."""
    if key[0] == "full":
        return reference_full_history(history, key[1])
    if key[0] == "voros":
        return reference_voros(history, key[1])
    if key[0] == "order":
        return reference_order_m(history, key[2], key[1])
    m = key[1] - 1
    return sum(_sign(k) * math.comb(m, k) * history[m - k] for k in range(m + 1))


_values = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)


class TestKernelIsExactSumRoundedOnce:
    """For every predictor, a ``BigReal`` history gives the exact weighted sum
    of its values rounded once, at the smallest tag of the terms' history, and
    a ``Fraction`` history the exact sum."""

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.tuples(_values, st.integers(MIN_DIGITS, 80)), min_size=1, max_size=9))
    def test_bigreal_histories_with_mixed_tags(self, values):
        history = [BigReal(x, tag) for x, tag in values]
        exact = [h.to_fraction() for h in history]
        for key, got in _every_prediction(history):
            tag = min(h.precision for h in history[:key[-1]])
            expected = BigReal(_exact_prediction(key, exact), tag)
            assert _bits(got) == _bits(expected), key

    def test_mpf_history_raises_type_error(self):
        # the kernel reads BigReal and Fraction/int only: an mpf sum would round
        # at mpmath's global precision
        history = [mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(3)]
        with pytest.raises(TypeError, match="BigReal, Fraction or int values, not mpf"):
            predict(FULL, history, 3)
        with pytest.raises(TypeError, match="not mpf"):
            predict(VOR, [Fraction(0), Fraction(1), mpmath.mpf(2)], 3)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(_values, min_size=1, max_size=9))
    def test_fraction_histories(self, values):
        for key, got in _every_prediction(values):
            assert type(got) is Fraction and got == _exact_prediction(key, values), key

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_values_raise(self, bad):
        # an inf or nan _mpf_ has a zero mantissa; the kernel must not read it as 0
        history = [BigReal(0, 30), BigReal(1, 30), BigReal(bad, 30), BigReal(2, 30)]
        with pytest.raises(ValueError, match="non-finite"):
            predict(FULL, history, 4)
        # a term the weights skip, or history[n], is not read
        assert predict(order(2), history, 2) == 2
        assert predict(FULL, history, 2) == 2


def _free_20_item_tuples(capfd):
    """CPython's count of free 20-item tuples, or None where it prints none."""
    capfd.readouterr()
    sys._debugmallocstats()
    found = re.search(r"(\d+) free 20-sized PyTupleObject", capfd.readouterr().err)
    return found and int(found.group(1))


@pytest.mark.skipif(not hasattr(sys, "_debugmallocstats"), reason="CPython's allocator statistics")
def test_predictions_leave_no_free_20_item_tuples(capfd):
    # CPython 3.11 frees a 20-item tuple to a free list no allocation draws
    # from, so one made per prediction stays there until the list is full
    histories = (tuple(BigReal(Fraction(k, 3), 30) for k in range(22)),
                 tuple(Fraction(k, 3) for k in range(22)))
    predict(VOR, histories[0], 21)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _free_20_item_tuples(capfd)
        if before is None:
            pytest.skip("no free-list count for 20-item tuples")
        for history in histories:
            for n in (20, 21):
                for _ in range(10):
                    predict(VOR, history, n)
        assert _free_20_item_tuples(capfd) == before
    finally:
        if enabled:
            gc.enable()


class TestSelfSeededIsExact:
    """A self-seeded run from a ``BigReal`` lambda(1) is lambda(1) times the
    scheme's exact closed form, rounded once at lambda(1)'s tag.  Iterating on
    30-digit values printed -96378803.22 for a2 at n = 60 (true 83.1446) and
    9.85e9 for d at n = 100 (true 2.3096)."""

    def _check(self, values, lam1, closed_form):
        for n, value in enumerate(values, start=1):
            assert value.precision == 30
            expected = lam1.to_fraction() * closed_form(n)
            assert agrees_to(value, BigReal(expected, 60), 30), n
            assert _bits(value) == _bits(BigReal(expected, 30)), n

    def test_voros_to_60(self):
        lam1 = lambda1_closed_form(30)
        values = self_seeded_run(RecurrenceScheme(kind=VOROS), lam1, n_max=60)
        self._check(values, lam1, lambda n: n * n)
        assert values[-1].to_decimal_string(4) == "83.1446"

    def test_full_history_c2_to_100(self):
        lam1 = lambda1_closed_form(30)
        values = self_seeded_run(RecurrenceScheme(kind=FULL_HISTORY), lam1, c=2, n_max=100)
        self._check(values, lam1, lambda n: n)
        assert values[-1].to_decimal_string(4) == "2.3096"


def assert_scheme_rejected(message, kind, m=None):
    """Keyword and positional construction, and _replace, all validate."""
    for make in (lambda: RecurrenceScheme(kind=kind, m=m), lambda: RecurrenceScheme(kind, m),
                 lambda: RecurrenceScheme(kind=VOROS)._replace(kind=kind, m=m)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestSchemeValidation:
    def test_unknown_kind(self):
        assert_scheme_rejected("unknown scheme kind 'mystery'", "mystery")

    def test_order_m_needs_m(self):
        assert_scheme_rejected("order_m schemes need m >= 2", ORDER_M)
        assert_scheme_rejected("order_m schemes need m >= 2", ORDER_M, 1)

    def test_other_kinds_reject_m(self):
        assert_scheme_rejected("full_history takes no order parameter", FULL_HISTORY, 3)
        assert_scheme_rejected("voros takes no order parameter", VOROS, 2)

    def test_valid_schemes(self):
        assert RecurrenceScheme(ORDER_M, 3) == RecurrenceScheme(kind=ORDER_M, m=3, initial=None)
        assert RecurrenceScheme(kind=VOROS).m is None
        assert RecurrenceScheme(kind=ORDER_M, m=2)._replace(m=4).m == 4


class TestSelfSeeded:
    def test_voros_squares(self):
        scheme = RecurrenceScheme(kind=VOROS)
        lam1 = Fraction(1)
        values = self_seeded_run(scheme, lam1, n_max=12)
        assert values == [Fraction(n * n) for n in range(1, 13)]

    def test_voros_rejects_c(self):
        scheme = RecurrenceScheme(kind=VOROS)
        with pytest.raises(ValueError, match="no c accepted"):
            self_seeded_run(scheme, Fraction(1), c=Fraction(2))

    @pytest.mark.parametrize("c", [2, 3, 4, 7])
    def test_full_history_closed_form(self, c):
        # lambda2 = c lambda1 propagates to ((c/2 - 1) n (n-1) + n) lambda1
        scheme = RecurrenceScheme(kind=FULL_HISTORY)
        lam1 = Fraction(5, 3)
        values = self_seeded_run(scheme, lam1, c=Fraction(c), n_max=16)
        for n in range(1, 17):
            expected = ((Fraction(c, 2) - 1) * n * (n - 1) + n) * lam1
            assert values[n - 1] == expected

    def test_order2_linear(self):
        scheme = RecurrenceScheme(kind=ORDER_M, m=2)
        lam1 = Fraction(1)
        values = self_seeded_run(scheme, lam1, c=Fraction(2), n_max=10)
        assert values == [Fraction(n) for n in range(1, 11)]

    def test_order2_affine(self):
        # c != 2 makes the order-2 iteration the affine line 1 + (n-1)(c-1)
        scheme = RecurrenceScheme(kind=ORDER_M, m=2)
        values = self_seeded_run(scheme, Fraction(1), c=Fraction(3), n_max=8)
        assert values == [Fraction(1 + (n - 1) * 2) for n in range(1, 9)]

    def test_missing_c(self):
        scheme = RecurrenceScheme(kind=FULL_HISTORY)
        with pytest.raises(ValueError, match="initial condition"):
            self_seeded_run(scheme, Fraction(1))

    def test_order3_needs_explicit_initial(self):
        scheme = RecurrenceScheme(kind=ORDER_M, m=3)
        with pytest.raises(ValueError, match="initial values"):
            self_seeded_run(scheme, Fraction(1))

    def test_order3_quadratic_fixed_point(self):
        scheme = RecurrenceScheme(
            kind=ORDER_M,
            m=3,
            initial=(Fraction(4), Fraction(9)),
        )
        values = self_seeded_run(scheme, Fraction(1), n_max=10)
        assert values == [Fraction(n * n) for n in range(1, 11)]
        # exact initial values join a BigReal lambda1 at its tag
        values = self_seeded_run(scheme, BigReal(1, 30), n_max=10)
        assert all(v.precision == 30 for v in values)
        assert [v.to_fraction() for v in values] == [Fraction(n * n) for n in range(1, 11)]

    def test_bad_n_max(self):
        scheme = RecurrenceScheme(kind=VOROS)
        with pytest.raises(ValueError):
            self_seeded_run(scheme, Fraction(1), n_max=0)


@pytest.fixture(scope="module")
def guarded15():
    """lambda(1..15) at the digits 50-digit full-history predictions to n = 15 need."""
    return lambda_table(15, 50 + RecurrenceScheme(kind=FULL_HISTORY).guard_digits(15))


class TestPredictionRun:
    def test_exact_history_linear(self):
        scheme = RecurrenceScheme(kind=ORDER_M, m=2)
        history = poly_values([0, 1], 6)
        results = prediction_run(scheme, history, 2, 6, 30)
        assert [r.n for r in results] == [2, 3, 4, 5, 6]
        for r in results:
            assert r.predicted == r.n
            assert r.exact == r.n
            assert r.abs_error == 0
            assert r.rel_error == 0

    def test_zero_exact_gives_no_rel_error(self):
        scheme = RecurrenceScheme(kind=ORDER_M, m=2)
        history = [Fraction(k - 2) for k in range(4)]  # h(2) = 0
        results = prediction_run(scheme, history, 2, 2, 30)
        assert results[0].exact == 0
        assert results[0].abs_error == 2  # 2 h(1) - h(0) = -2 vs exact 0
        assert results[0].rel_error is None

    def test_prediction_past_history_has_no_exact(self):
        scheme = RecurrenceScheme(kind=FULL_HISTORY)
        history = poly_values([0, 1], 5)
        results = prediction_run(scheme, history, 6, 6, 30)
        assert results[0].exact is None
        assert results[0].abs_error is None
        assert results[0].predicted == 6

    def test_on_real_coefficients(self, guarded15):
        scheme = RecurrenceScheme(kind=FULL_HISTORY)
        results = prediction_run(scheme, guarded15.tiny, 2, 7, 50)
        for r in results:
            assert r.exact is guarded15.tiny[r.n]
            assert agrees_to(r.abs_error, abs(r.predicted - r.exact), 45)
        # accuracy sharpens fast as more history becomes available
        rel = [r.rel_error for r in results]
        assert all(rel[i] > rel[i + 1] for i in range(len(rel) - 1))
        assert rel[0] < BigReal(1, 50) / 4
        assert rel[-1] < BigReal(1, 50) / 10**3


class TestClosedFormCheckLinear:
    """The full-history predictor on the linear family f(k) = alpha k + beta, through
    index n - 1: linear-through-origin sequences are exact fixed points, and a constant
    offset beta survives as 2 beta on even n and 0 on odd n, which is why the fitted
    solution must have zero intercept."""

    @staticmethod
    def rows(alpha, beta, n_max):
        """(n, predicted, predicted - alpha n) for 2 <= n <= n_max."""
        history = [alpha * 0] + [alpha * k + beta for k in range(1, n_max)]
        predicted = [predict(FULL, history[:n], n) for n in range(2, n_max + 1)]
        return [(n, p, p - alpha * n) for n, p in enumerate(predicted, start=2)]

    def test_rows_cover_2_through_n_max(self):
        # a prediction at n draws on indices below n only, so n = 1 has nothing to
        # predict from: its sum is empty
        history = [Fraction(0)] + [Fraction(k) for k in range(1, 10)]
        assert predict(FULL, history[:1], 1) == 0
        for n in range(2, 10):
            assert predict(FULL, history, n) == predict(FULL, history[:n], n) == n

    def test_zero_intercept_is_exact(self):
        rows = self.rows(Fraction(7, 2), Fraction(0), 12)
        for n, predicted, residual in rows:
            assert predicted == Fraction(7, 2) * n
            assert residual == 0

    def test_intercept_survives_on_even_n(self):
        rows = self.rows(Fraction(0), Fraction(1), 10)
        for n, predicted, residual in rows:
            expected = 2 if n % 2 == 0 else 0
            assert residual == expected
            assert predicted == expected

    def test_general_affine_pattern(self):
        alpha, beta = Fraction(3, 7), Fraction(-2, 5)
        rows = self.rows(alpha, beta, 11)
        for n, predicted, residual in rows:
            expected_residual = 2 * beta if n % 2 == 0 else 0
            assert residual == expected_residual
            assert predicted == alpha * n + expected_residual


class TestOnCoefficientHistories:
    def test_full_history_error_alternates_on_tiny(self, guarded15):
        scheme = RecurrenceScheme(kind=FULL_HISTORY)
        results = prediction_run(scheme, guarded15.tiny, 3, 15, 50)
        signs = [1 if r.predicted > r.exact else -1 for r in results]
        for a, b in zip(signs, signs[1:]):
            assert a == -b

    def test_order2_above_order3_below(self, table15):
        # on the normalized tiny ratios, order-2 predictions sit above the
        # exact values and order-3 predictions sit below, for 3 <= n <= 11
        tiny = table15.tiny
        for n in range(3, 12):
            exact = table15.tiny[n] / n
            upper = predict(order(2), tiny, n) / n
            lower = predict(order(3), tiny, n) / n
            assert lower < exact < upper


class TestPhiNlogn:
    def test_small_n_zeros(self):
        for n in (1, 2):
            phi1, _ = phi_nlogn(n, 40)
            assert phi1.to_fraction() == 0
        phi1, phi2 = phi_nlogn(1, 40)
        assert phi2.to_fraction() == 0

    def test_phi1_at_3(self):
        phi1, _ = phi_nlogn(3, 50)
        with mp.workdps(60):
            assert abs(phi1.value - 6 * mp.log(2)) < mp.mpf(10) ** -45

    def test_phi2_alternating(self):
        with mp.workdps(60):
            for n in (2, 3, 6, 9):
                _, phi2 = phi_nlogn(n, 50)
                expected = parity_sign(n - 1) * n * mp.log(n)
                assert abs(phi2.value - expected) < mp.mpf(10) ** -45

    def test_gap_shrinks(self):
        gaps = []
        for n in (8, 16, 32):
            phi1, phi2 = phi_nlogn(n, 50)
            gaps.append(abs(phi1 - phi2))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < BigReal(Fraction(31, 100), 50)

    def test_rejects_n_below_1(self):
        with pytest.raises(ValueError):
            phi_nlogn(0)

    @pytest.mark.parametrize("n", [64, 100])
    def test_matches_an_mpmath_oracle_at_twice_the_digits(self, n):
        # the C(n, k) cancel binomial_guard_digits(n) digits, 19 at n = 64: past
        # n = 32 the 10-digit pad alone no longer covers them
        digits = 20
        with mp.workdps(2 * (digits + binomial_guard_digits(n))):
            phi1 = mpmath.fsum(parity_sign(k) * mpmath.binomial(n, k) * k * mpmath.log(k)
                               for k in range(2, n))
            phi2 = parity_sign(n - 1) * n * mpmath.log(n)
        for got, exact in zip(phi_nlogn(n, digits), (phi1, phi2)):
            assert got.precision == digits and agrees_to(got, exact, digits)

    @pytest.mark.parametrize("n", [60, 80, 120])
    def test_accurate_to_its_tag_past_the_table(self, n):
        # phi1 cancels about log10 C(n, n/2) digits; a fixed 10-digit guard
        # was off by 3.4e-22 at n = 60 and 9.4e-4 at n = 120
        got, reference = phi_nlogn(n, 30), phi_nlogn(n, 100)
        with mp.workdps(110):
            for value, exact in zip(got, reference):
                assert abs(value.value - exact.value) <= mp.mpf(10) ** -30 * abs(exact.value)


class TestModelPredictor:
    def test_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            model_predictor(1)

    def test_against_direct_recomputation(self):
        digits = 50
        for n in (2, 5, 10, 16, 32):
            with mp.workdps(digits + 15):
                gamma = mp.euler
                c = (gamma - 1 - mp.log(2 * mp.pi)) / 2
                slope = c + gamma
                total = mp.mpf(0)
                for k in range(1, n):
                    g = k * mp.log(k) / 2 + slope * k
                    total += mp.mpf(parity_sign(k - n + 1)) * mp.binomial(n, k) * g
                got = model_predictor(n, digits)
                assert abs(got.value - total) < mp.mpf(10) ** -(digits - 5), n

    def test_assembles_from_phi_sums(self):
        # by linearity: predictor(g) = (1/2) (-1)^(n-1) phi1(n) + (c+gamma) n,
        # with c = (gamma - 1 - log 2pi)/2
        n = 16
        with mp.workdps(60):
            slope = BigReal((3 * mp.euler - 1 - mp.log(2 * mp.pi)) / 2, 50)
        phi1, phi2 = phi_nlogn(n, 50)
        assembled = phi1 * (parity_sign(n - 1)) / 2 + slope * n
        assert agrees_to(model_predictor(n, 50), assembled, 44)

    def test_deviation_from_smooth_model_is_half_phi_gap(self):
        # predictor(g)/n - ((1/2) log n + c + gamma) = (phi2 - phi1)/(2n)
        # with the (-1)^(n-1) factor folded in; check the magnitudes agree
        n = 16
        phi1, phi2 = phi_nlogn(n, 50)
        with mp.workdps(60):
            smooth = mp.log(n) / 2 + (3 * mp.euler - 1 - mp.log(2 * mp.pi)) / 2
            deviation = abs(model_predictor(n, 50).value / n - smooth)
            gap = abs((phi1 - phi2).value) / (2 * n)
            assert abs(deviation - gap) < mp.mpf(10) ** -40


#: The benchmark's reference outputs: every lambda cell computed at 190 digits
#: from mpmath primitives alone, stored to 130 significant digits.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "reference.json"

HONESTY_SCHEMES = {
    "a1": RecurrenceScheme(kind=ORDER_M, m=2),
    "b": RecurrenceScheme(kind=ORDER_M, m=3),
    "m:5": RecurrenceScheme(kind=ORDER_M, m=5),
    "d": RecurrenceScheme(kind=FULL_HISTORY),
    "a2": RecurrenceScheme(kind=VOROS),
}


@pytest.fixture(scope="module")
def true_histories():
    """Exact [0, h(1), ..., h(32)] for the tiny, trend and lambda histories,
    from the reference's ``lambda --n-max 32`` cells."""
    reference = json.loads(REFERENCE.read_text())["ops"]["lambda_32_100"]
    cells = {(row, column): Fraction(value) for row, column, _, value, *_ in reference}
    return {
        "tiny": [Fraction(0)] + [n * cells[str(n), "tiny_over_n"] for n in range(1, 33)],
        "trend": [Fraction(0)] + [n * cells[str(n), "trend_over_n"] for n in range(1, 33)],
        "lambda": [Fraction(0)] + [cells[str(n), "lambda"] for n in range(1, 33)],
    }


class TestGuardDigits:
    @pytest.mark.parametrize("n_max", [2, 7, 32, 100])
    def test_binomial_guard_of_the_largest_weight_plus_3(self, n_max):
        # the largest weights: C(m, m/2), C(n, n/2) and C(2n, n)
        for m in (2, 3, 7):
            assert RecurrenceScheme(kind=ORDER_M, m=m).guard_digits(n_max) == (
                binomial_guard_digits(m) + 3)
        assert RecurrenceScheme(kind=FULL_HISTORY).guard_digits(n_max) == (
            binomial_guard_digits(n_max) + 3)
        assert RecurrenceScheme(kind=VOROS).guard_digits(n_max) == (
            binomial_guard_digits(2 * n_max) + 3)

    def test_history_below_the_guard_raises(self):
        scheme = RecurrenceScheme(kind=VOROS)
        need = 30 + scheme.guard_digits(32)
        short = [BigReal(k, need - 1) for k in range(33)]
        with pytest.raises(PrecisionError, match=f"need a history tagged {need}, not {need - 1}"):
            prediction_run(scheme, short, 2, 32, 30)
        results = prediction_run(scheme, [BigReal(k, need) for k in range(33)], 2, 32, 30)
        # 30 places of each prediction, the integer digits on top
        assert {r.predicted.precision - len(str(abs(int(r.predicted.to_fraction()))).lstrip("0"))
                for r in results} == {30}

    def test_exact_history_takes_no_tag(self):
        results = prediction_run(RecurrenceScheme(kind=VOROS), poly_values([0, 0, 1], 9), 2, 9, 30)
        assert [r.predicted for r in results] == [n * n for n in range(2, 10)]


class TestTagHonesty:
    """A prediction tagged D digits from a history at D plus the scheme's guard
    agrees to D digits with the exact weighted sum of the true values."""

    @pytest.mark.parametrize("digits", [20, 30, 50])
    @pytest.mark.parametrize("name", sorted(HONESTY_SCHEMES))
    def test_predictions_hold_their_tag(self, true_histories, name, digits):
        scheme = HONESTY_SCHEMES[name]
        table = lambda_table(32, digits + scheme.guard_digits(32))
        histories = {"tiny": table.tiny, "trend": table.trend, "lambda": table.total}
        for target, history in histories.items():
            truth = true_histories[target]
            for r in prediction_run(scheme, history, scheme.m or 2, 32, digits):
                weight = _weight(scheme, r.n)
                exact = sum(parity_sign(k - r.n + 1) * weight(k) * truth[k] for k in range(1, r.n))
                error = abs(exact - truth[r.n])
                for got, want in (r.predicted, exact), (r.abs_error, error):
                    tag = _places_tag(digits, int(want))
                    assert got.precision == tag, (target, r.n)
                    assert agrees_to(got, BigReal(want, 120), tag), (target, r.n)
