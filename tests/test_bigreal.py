import operator
import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_int, from_rational, from_str, fzero, mpf_add,
                          mpf_div, mpf_mul, mpf_pos, mpf_sub, round_nearest)

from likeiper.bigreal import DEFAULT_DIGITS, MIN_DIGITS, BigReal, PrecisionError
from likeiper.datafiles import _PLAIN_DECIMAL, exact_decimal


class TestConstruction:
    def test_from_int(self):
        x = BigReal(7)
        assert x.precision == DEFAULT_DIGITS
        assert float(x) == 7.0

    def test_from_string(self):
        x = BigReal("0.5772156649015328606065120900824024310421593359399", 50)
        assert x.digits_str(10) == "0.5772156649"

    def test_from_fraction_exact(self):
        x = BigReal(Fraction(1, 3), 40)
        assert abs(x.to_fraction() - Fraction(1, 3)) < Fraction(1, 10**42)

    def test_precision_floor(self):
        with pytest.raises(PrecisionError):
            BigReal(1, MIN_DIGITS - 1)

    def test_wrapping_bigreal_keeps_lower_precision(self):
        x = BigReal("1.5", 30)
        y = BigReal(x, 50)
        assert y.precision == 30

    def test_immutable(self):
        x = BigReal(1)
        with pytest.raises(AttributeError):
            x.value = 2

    def test_helpers(self):
        assert float(BigReal(0)) == 0.0
        assert float(BigReal(1)) == 1.0
        assert BigReal("2", 12).precision == 12


class TestArithmetic:
    def test_min_precision_propagates(self):
        a = BigReal("1.1", 30)
        b = BigReal("2.2", 50)
        assert (a + b).precision == 30
        assert (a * b).precision == 30
        assert (b - a).precision == 30
        assert (b / a).precision == 30

    def test_int_operands(self):
        a = BigReal("1.5", 25)
        assert float(a + 1) == 2.5
        assert float(2 * a) == 3.0
        assert float(1 - a) == -0.5
        assert float(3 / a) == 2.0
        assert (a + 1).precision == 25

    def test_pow_int_only(self):
        a = BigReal(3, 20)
        assert float(a**4) == 81.0
        with pytest.raises(TypeError):
            a ** 0.5

    def test_ambient_context_independence(self):
        """Every operation must carry its own working precision; the global
        mpmath context (dps 15 by default) must never leak into results."""
        text = "0.12345678901234567890123456789012345678901234567890"

        def compute():
            x = BigReal(text, 50)
            y = -((-x) * 3 + abs(-x)) / 7
            return y.to_decimal_string(45)

        mp.dps = 15
        low = compute()
        with mp.workdps(80):
            high = compute()
        assert low == high

    def test_neg_abs_preserve_digits(self):
        x = BigReal("0.577215664901532860606512090082402431042159335939", 48)
        assert (-(-x)).to_decimal_string(45) == x.to_decimal_string(45)
        assert abs(-x).to_decimal_string(45) == x.to_decimal_string(45)


class TestComparisons:
    def test_ordering(self):
        assert BigReal("1.5") < BigReal(2)
        assert BigReal(2) <= 2
        assert BigReal(3) > BigReal("2.5")
        assert BigReal(3) >= 3
        assert BigReal(3) == 3
        assert BigReal(3) != 4

    def test_bool_and_hash(self):
        assert not BigReal(0)
        assert BigReal(1)
        assert hash(BigReal(2, 30)) == hash(BigReal(2, 50))


class TestConversions:
    def test_to_fraction_exact_roundtrip(self):
        x = BigReal("0.625", 20)  # exactly representable in binary
        assert x.to_fraction() == Fraction(5, 8)

    def test_to_fraction_non_finite(self):
        x = BigReal(mpmath.inf, 20)
        with pytest.raises(ValueError):
            x.to_fraction()

    def test_decimal_string_round_half_even(self):
        assert BigReal("0.625", 20).to_decimal_string(2) == "0.62"
        assert BigReal("0.875", 20).to_decimal_string(2) == "0.88"
        assert BigReal("-0.625", 20).to_decimal_string(2) == "-0.62"

    def test_decimal_string_fixed_point_small(self):
        tiny = BigReal(1, 30) / (10**8)
        assert tiny.to_decimal_string(12) == "0.000000010000"

    def test_decimal_string_no_negative_zero(self):
        x = BigReal("-0.0000001", 20)
        assert x.to_decimal_string(3) == "0.000"

    def test_decimal_string_places_zero(self):
        assert BigReal("2.5", 20).to_decimal_string(0) == "2"
        assert BigReal("3.5", 20).to_decimal_string(0) == "4"

    def test_agrees_to_absolute_below_one(self):
        a = BigReal("0.1234567", 30)
        b = BigReal("0.1234568", 30)
        assert a.agrees_to(b, 6)
        assert not a.agrees_to(b, 8)

    def test_agrees_to_relative_above_one(self):
        a = BigReal("12345.678", 30)
        b = a * (1 + BigReal("1e-12", 30))
        assert a.agrees_to(b, 11)
        assert not a.agrees_to(b, 14)

    def test_repr_mentions_precision(self):
        assert "precision=20" in repr(BigReal(1, 20))


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=-(10**12), max_value=10**12),
    den=st.integers(min_value=1, max_value=10**6),
)
def test_fraction_roundtrip_within_precision(num, den):
    frac = Fraction(num, den)
    x = BigReal(frac, 40)
    err = abs(x.to_fraction() - frac)
    bound = Fraction(1, 10**38) * (abs(frac) + 1)
    assert err <= bound


_ROUNDED_TWICE = 677723832092357015896697924358891911095924304318033908053911227897288133707443408220036671


# 300-bit numerators from random bytes, so that the bits past the working
# precision are not mostly zero
@settings(max_examples=200, deadline=None)
@given(sign=st.sampled_from([1, -1]), raw=st.binary(min_size=38, max_size=38),
       den=st.sampled_from([3, 5, 7, 10, 1000]) | st.integers(1, 10**30),
       tag=st.integers(MIN_DIGITS, 100))
@example(sign=1, raw=_ROUNDED_TWICE.to_bytes(38, "big"), den=1000, tag=64)
def test_fraction_rounds_once_as_from_rational(sign, raw, den, tag):
    # the numerator rounded to the working bits before the division put 1,037
    # of 5,000 such values one bit off, _ROUNDED_TWICE / 1000 at tag 64 among them
    num = sign * int.from_bytes(raw, "big")
    expected = from_rational(num, den, dps_to_prec(tag + 5), round_nearest)
    assert BigReal(Fraction(num, den), tag).value._mpf_ == expected


@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(min_value=-100, max_value=100, max_denominator=999),
    b=st.fractions(min_value=-100, max_value=100, max_denominator=999),
)
def test_arithmetic_matches_rationals(a, b):
    x, y = BigReal(a, 40), BigReal(b, 40)
    assert (x + y).to_fraction() - (a + b) == pytest.approx(0, abs=1e-30)
    assert (x * y).to_fraction() - (a * b) == pytest.approx(0, abs=1e-28)
    assert (x - y).to_fraction() - (a - b) == pytest.approx(0, abs=1e-30)


def test_decimal_string_deterministic_bytes():
    x = BigReal("0.2076389205543248037915", 50)
    outs = {x.to_decimal_string(20) for _ in range(5)}
    assert outs == {"0.20763892055432480379"}


# -- reference semantics -------------------------------------------------------
#
# Each operation used to run the mpmath operator under ``mp.workdps(tag + 5)``
# and round its result again on construction.  These oracles keep that
# definition; the libmp implementation must give the same bits and tags.


def _old_value(raw, precision):
    with mp.workdps(precision + 5):
        if isinstance(raw, Fraction):  # the exact numerator, divided once
            return mp.make_mpf(from_int(raw.numerator)) / raw.denominator
        return mpmath.mpf(raw)


def _old_construct(raw, precision):
    if isinstance(raw, BigReal):
        precision = min(precision, raw.precision)
        raw = raw.value
    return _old_value(raw, precision)._mpf_, precision


def _old_binary(x, other, op):
    if isinstance(other, BigReal):
        b, b_prec = other.value, other.precision
    else:
        b, b_prec = _old_value(other, x.precision), x.precision
    precision = min(x.precision, b_prec)
    with mp.workdps(precision + 5):
        result = op(x.value, b)
    return _old_value(result, precision)._mpf_, precision


def _old_unary(x, op):
    with mp.workdps(x.precision + 5):
        result = op(x.value)
    return _old_value(result, x.precision)._mpf_, x.precision


def _outcome(compute):
    try:
        result = compute()
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return result if isinstance(result, tuple) else (result.value._mpf_, result.precision)


_tags = st.integers(min_value=MIN_DIGITS, max_value=90)
_decimal_texts = st.builds(
    lambda sign, digits, exp: f"{sign}{digits}e{exp}",
    st.sampled_from(["", "-"]),
    st.integers(min_value=0, max_value=10**70).map(str),
    st.integers(min_value=-90, max_value=70),
)
_raw_mpfs = st.builds(
    lambda man, exp: mpmath.mpf((man, exp), prec=1000),
    st.integers(min_value=-(2**600), max_value=2**600),
    st.integers(min_value=-700, max_value=300),
)
_plain = st.one_of(
    st.integers(min_value=-(10**80), max_value=10**80),
    _decimal_texts,
    st.builds(Fraction, st.integers(-(10**120), 10**120), st.integers(1, 10**30)),
    _raw_mpfs,
)
_bigreals = st.builds(BigReal, _plain, _tags)

_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
]
_UNARY = [lambda a: -a, abs] + [lambda a, k=k: a**k for k in (-3, -1, 0, 1, 2, 7)]


@pytest.mark.parametrize("ambient", [5, 500])
@settings(max_examples=150, deadline=None)
@given(x=_bigreals, other=st.one_of(_bigreals, _plain), data=st.data())
def test_operations_bit_identical_to_context_semantics(ambient, x, other, data):
    op = data.draw(st.sampled_from(_BINARY))
    unary = data.draw(st.sampled_from(_UNARY))
    expected = [
        _outcome(lambda: _old_binary(x, other, op)),
        _outcome(lambda: _old_binary(x, other, lambda a, b: op(b, a))),
        _outcome(lambda: _old_unary(x, unary)),
        _old_construct(other, x.precision),
    ]
    with mp.workdps(ambient):
        got = [
            _outcome(lambda: op(x, other)),
            _outcome(lambda: op(other, x)),
            _outcome(lambda: unary(x)),
            _outcome(lambda: BigReal(other, x.precision)),
        ]
    assert got == expected


def _decimal_oracle(x, places):
    """``to_decimal_string`` by ``Decimal`` quantize of the exact binary value,
    with a context sized from the value's magnitude."""
    sign, man, exp, _ = x.value._mpf_
    text = f"{man << exp}" if exp >= 0 else f"{man * 5**-exp}E{exp}"
    exact = Decimal(("-" if sign else "") + text)
    with localcontext() as ctx:
        ctx.prec = max(exact.adjusted(), 0) + places + 5
        quantized = exact.quantize(Decimal(f"1E-{places}"), rounding=ROUND_HALF_EVEN)
    if quantized == 0:
        quantized = abs(quantized)
    return format(quantized, "f")


@settings(max_examples=200, deadline=None)
@given(
    digits=st.integers(min_value=1, max_value=10**70),
    exp=st.integers(min_value=-80, max_value=60),
    sign=st.sampled_from(["", "-"]),
    precision=_tags,
    places=st.sampled_from([0, 1, 12, 50, 60]),
)
def test_decimal_string_matches_exact_quantize(digits, exp, sign, precision, places):
    # magnitudes from 10^-80 to 10^60; past the tag's integer digits it refuses
    x = BigReal(f"{sign}0.{digits}e{exp + 1}", precision)
    expected = _decimal_oracle(x, places)
    whole = len(expected.lstrip("-").split(".")[0].lstrip("0"))
    if whole > precision:
        with pytest.raises(ValueError, match=f"^cannot print a value with {whole} integer digits"
                                             f" at tag {precision}$"):
            x.to_decimal_string(places)
    else:
        assert x.to_decimal_string(places) == expected


@pytest.mark.parametrize(
    "text, places, expected",
    [("2.5", 0, "2"), ("3.5", 0, "4"), ("0.125", 2, "0.12"), ("-0.125", 2, "-0.12"),
     ("-1e-70", 0, "0"), ("-1e-70", 1, "0.0"), ("-1e-70", 60, "0." + "0" * 60)],
)
def test_decimal_string_exact_ties_and_signed_zero(text, places, expected):
    x = BigReal(text, 20)
    assert x.to_decimal_string(places) == expected == _decimal_oracle(x, places)


@pytest.mark.parametrize("precision", [MIN_DIGITS, 100])
@pytest.mark.parametrize("places", [0, 12])
@pytest.mark.parametrize("sign", [1, -1])
def test_decimal_string_refuses_integer_digits_beyond_the_tag(precision, places, sign):
    # P integer digits print exactly; P + 1 would be binary noise past the tag
    top = BigReal(sign * (10**precision - 1), precision)
    assert top.to_decimal_string(places) == _decimal_oracle(top, places)
    for x in (BigReal(sign * 10**precision, precision), BigReal(sign * 10**(precision + 45), precision)):
        whole = len(str(abs(int(x.value))))
        with pytest.raises(ValueError, match=f"^cannot print a value with {whole} integer digits"
                                             f" at tag {precision}$"):
            x.to_decimal_string(places)


# -- operators as direct libmp calls --------------------------------------------

# integers from random bytes, so that the bits past the working precision are
# not mostly zero, as they are for powers of two and small values
_wide_ints = st.builds(lambda sign, raw: sign * int.from_bytes(raw, "big"),
                       st.sampled_from([1, -1]), st.binary(min_size=1, max_size=60))
_OPERANDS = {
    "int": _wide_ints,
    "Fraction": st.builds(Fraction, st.integers(-(10**120), 10**120), st.integers(1, 10**30)),
    "str": _decimal_texts,
    "mpf": st.builds(lambda man, exp: mpmath.mpf((man, exp), prec=1000),
                     _wide_ints, st.integers(min_value=-700, max_value=300)),
    "BigReal": _bigreals,
}
_LIBMP = [(operator.add, mpf_add), (operator.sub, mpf_sub),
          (operator.mul, mpf_mul), (operator.truediv, mpf_div)]


def _libmp_operand(other, prec):
    """``other`` as the libmp call takes it: a ``BigReal``'s own tuple, any
    other operand rounded to nearest at ``prec`` bits."""
    if isinstance(other, BigReal):
        return other.value._mpf_
    if isinstance(other, int):
        return from_int(other, prec, round_nearest)
    if isinstance(other, Fraction):
        return from_rational(other.numerator, other.denominator, prec, round_nearest)
    if isinstance(other, str):
        return from_str(other, prec, round_nearest)
    return mpf_pos(other._mpf_, prec, round_nearest)


@pytest.mark.parametrize("kind", sorted(_OPERANDS))
@settings(max_examples=80, deadline=None)
@given(x=_bigreals, data=st.data())
def test_operators_are_one_libmp_call_at_the_smaller_tag(kind, x, data):
    other = data.draw(_OPERANDS[kind], label="other")
    op, libmp_op = data.draw(st.sampled_from(_LIBMP), label="op")
    tag = min(x.precision, other.precision) if kind == "BigReal" else x.precision
    prec = dps_to_prec(tag + 5)
    a, b = x.value._mpf_, _libmp_operand(other, prec)  # at x's tag unless other is a BigReal
    expected = [_outcome(lambda: (libmp_op(a, b, prec, round_nearest), tag)),
                _outcome(lambda: (libmp_op(b, a, prec, round_nearest), tag))]
    got = [_outcome(lambda: op(x, other)), _outcome(lambda: op(other, x))]
    assert got == expected


# -- a data file's decimal: its exact value, rounded once at the tag --------------
#
# The data files' decimals reach a BigReal only as datafiles.exact_decimal's exact
# value; BigReal rounds that Fraction once, which is mpmath's own reading of the text.

def _mpmath_value(text, tag):
    """mpmath's own reading of ``text`` at ``tag``'s working bits: the oracle."""
    return mpmath.mpf(text, prec=dps_to_prec(tag + 5), rounding="n")._mpf_


_fast_tags = st.integers(min_value=MIN_DIGITS, max_value=500)
_digit_runs = st.text("0123456789", max_size=200)  # whole and fraction: up to 400 digits
_plain_decimals = st.builds(
    lambda blank, sign, zeros, whole, point, fraction: (
        f"{blank}{sign}{zeros}{whole}{point}{fraction}{blank}"),
    st.sampled_from(["", " ", "\t", " \n"]), st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "000"]), _digit_runs, st.sampled_from(["", "."]), _digit_runs,
).filter(lambda text: _PLAIN_DECIMAL.fullmatch(text.strip()))


@st.composite
def _binary_fractions(draw):
    """(text, tag): m / 2^k written out exactly, with m one bit wider than the
    tag's working bits and odd before a shift (a tie), or one off it."""
    tag = draw(_fast_tags)
    prec = dps_to_prec(tag + 5)
    odd = 2 * draw(st.integers(2 ** (prec - 1), 2**prec - 1)) + 1
    m = (odd << draw(st.integers(0, 3))) + draw(st.sampled_from([-1, 0, 0, 0, 1]))
    k = draw(st.integers(0, 60))
    units = str(m * 5**k).rjust(k + 1, "0")
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{units[:len(units) - k]}.{units[len(units) - k:]}", tag


def _unreadable_to_mpmath(text):
    """A zero with no integer digits: mpmath's reader fails on it (``int("")``)."""
    return re.fullmatch(r"[+-]?\.0+", text.strip()) is not None


@settings(max_examples=300, deadline=None)
@given(text=_plain_decimals, tag=_fast_tags)
def test_plain_decimals_are_mpmaths_value(text, tag):
    expected = fzero if _unreadable_to_mpmath(text) else _mpmath_value(text, tag)
    assert BigReal(exact_decimal(text.strip()), tag).value._mpf_ == expected


@settings(max_examples=300, deadline=None)
@given(case=_binary_fractions())
def test_plain_decimal_ties_round_to_even(case):
    text, tag = case
    assert BigReal(exact_decimal(text), tag).value._mpf_ == _mpmath_value(text, tag)


@pytest.mark.parametrize("text, expected", [("-0.000", 0), ("1.", 1), (".5", Fraction(1, 2)),
                                            ("+.25", Fraction(1, 4)), ("-007.50", Fraction(-15, 2)),
                                            (".0", 0), ("-.000", 0)])
@pytest.mark.parametrize("tag", [MIN_DIGITS, 50, 500])
def test_plain_decimal_edge_forms(text, expected, tag):
    assert exact_decimal(text) == expected
    x = BigReal(exact_decimal(text), tag)
    if not _unreadable_to_mpmath(text):
        assert x.value._mpf_ == _mpmath_value(text, tag)
    assert x.to_fraction() == expected
    assert x.value._mpf_[0] == 0 or expected < 0  # no negative zero


def test_plain_decimal_past_400_places_rounds_once():
    # mpmath multiplies by a rounded 10^-places past 400 places; the exact value
    # rounded once is the correctly rounded quotient, libmp's from_rational
    text = "0." + "3" * 320 + "1415926535" * 9
    prec = dps_to_prec(55)
    man = int(text[2:])
    assert BigReal(exact_decimal(text), 50).value._mpf_ == from_rational(
        man, 10 ** (len(text) - 2), prec, round_nearest)


def _value_or_error(compute):
    try:
        return compute()
    except Exception as exc:  # the exception type is what the two sides must share
        return type(exc)


@pytest.mark.parametrize("text", ["1e-5", " -2.5E+3 ", "inf", "-inf", "nan", "1/3", "1_000",
                                  "٣.١٤", "１２", "", ".", "+", "-.",
                                  " ", "1.2.3", "0x10", "1,5", "abc"])
@pytest.mark.parametrize("tag", [MIN_DIGITS, 500])
def test_other_strings_keep_mpmaths_value_or_error(text, tag):
    # a string operand is mpmath's to read, whatever its form
    got = _value_or_error(lambda: BigReal(text, tag).value._mpf_)
    assert got == _value_or_error(lambda: _mpmath_value(text, tag))

