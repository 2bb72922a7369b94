"""Precision-tagged arbitrary-precision real numbers.

``BigReal`` wraps an ``mpmath.mpf`` together with the number of decimal digits
of working precision it was computed at.  Arithmetic between two values is
carried out at (and tagged with) the *minimum* of the two precisions, so a
result can never silently claim more accuracy than its least accurate input.

Every operation is one ``mpmath.libmp`` call on the raw ``_mpf_`` tuples,
rounded to nearest at the bits of ``tag + 5`` digits: the call mpmath's own
operators make, without their per-operation context switch.  A plain operand
(``int``, ``Fraction``, ``str``, ``mpf``) is rounded once to those bits as
``BigReal(operand, tag)`` would be (a ``Fraction`` as ``libmp.from_rational``
does it), with no object made for it.  Nothing here reads mpmath's global state.

A plain decimal string (``[+-]digits[.digits]``, blanks around it allowed) is
read in integer arithmetic: one division of its digits by a power of ten,
rounded to nearest with ties to even.  That is mpmath's value bit for bit,
except past 400 decimals after the point, where mpmath rounds twice, and for
``.0``, which mpmath cannot read.  Any other string goes through mpmath.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, from_rational, mpf_abs, mpf_add,
                          mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, mpf_sub,
                          round_nearest, to_float, to_str)

DEFAULT_DIGITS = 50
MIN_DIGITS = 10

_Number = Union[int, str, Fraction, "BigReal", mpmath.mpf]

#: A plain decimal literal, no exponent: the one rule for data files and the integer fast path.
_PLAIN_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)")

_make = mpmath.mp.make_mpf  # wraps a raw tuple as it is: no rounding, no context read
_str_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit (< 3.10.7)


class PrecisionError(ValueError):
    """Raised for precision tags below the supported minimum, and for a value
    printed with more integer digits than its tag."""


@lru_cache(maxsize=None)
def _bits(precision: int) -> int:
    """Working bits of a value tagged with ``precision`` digits."""
    return dps_to_prec(precision + 5)


def _raw(value: _Number, prec: int) -> tuple:
    """The ``_mpf_`` tuple of ``value`` (not a ``BigReal``), rounded to nearest at ``prec`` bits."""
    if type(value) is mpmath.mpf:
        return mpf_pos(value._mpf_, prec, round_nearest)
    if isinstance(value, int):
        return from_int(value, prec, round_nearest)
    if isinstance(value, Fraction):
        return from_rational(value.numerator, value.denominator, prec, round_nearest)
    if isinstance(value, str) and _PLAIN_DECIMAL.fullmatch(text := value.strip()):
        return _from_plain_decimal(text, prec)
    return mpmath.mpf(value, prec=prec, rounding=round_nearest)._mpf_


def _from_plain_decimal(text: str, prec: int) -> tuple:
    """A ``_PLAIN_DECIMAL`` match as man / 10^places, rounded to nearest at ``prec``
    bits, ties to even: a quotient of at least prec + 2 bits, then a sticky bit."""
    whole, _, fraction = text.lstrip("+-").partition(".")
    fraction = fraction.rstrip("0")
    man, scale = int(whole + fraction or "0"), 10 ** len(fraction)
    shift = max(0, prec + 2 - man.bit_length() + scale.bit_length())
    quotient, remainder = divmod(man << shift, scale)
    quotient = (quotient << 1) | (remainder != 0)
    return from_man_exp(-quotient if text[0] == "-" else quotient, -shift - 1, prec, round_nearest)


def _fixed(value: int, wp: int, precision: int) -> "BigReal":
    """The 2^wp-scaled int ``value`` as a ``BigReal`` tagged ``precision``, rounded once."""
    return BigReal(_make(from_man_exp(value, -wp)), precision)


class BigReal:
    """An immutable arbitrary-precision real with a decimal-digit precision tag."""

    __slots__ = ("value", "precision")

    def __init__(self, value: _Number, precision: int = DEFAULT_DIGITS):
        if not isinstance(precision, int) or precision < MIN_DIGITS:
            raise PrecisionError(
                f"precision must be an integer >= {MIN_DIGITS}, got {precision!r}"
            )
        if isinstance(value, BigReal):
            precision = min(precision, value.precision)
            value = value.value
        object.__setattr__(self, "value", _make(_raw(value, _bits(precision))))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BigReal is immutable")

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other: _Number, op, swap: bool = False) -> "BigReal":
        precision = self.precision
        if isinstance(other, BigReal):
            precision = min(precision, other.precision)
            b = other.value._mpf_
        else:  # rounded as BigReal(other, precision) would be, without making one
            b = _raw(other, _bits(precision))
        a = self.value._mpf_
        if swap:
            a, b = b, a
        return BigReal(_make(op(a, b, _bits(precision), round_nearest)), precision)

    def _unary(self, op, *args) -> "BigReal":
        raw = op(self.value._mpf_, *args, _bits(self.precision), round_nearest)
        return BigReal(_make(raw), self.precision)

    def __add__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_sub)

    def __rsub__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_sub, swap=True)

    def __mul__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_div)

    def __rtruediv__(self, other: _Number) -> "BigReal":
        return self._binary(other, mpf_div, swap=True)

    def __pow__(self, exponent: int) -> "BigReal":
        if not isinstance(exponent, int):
            raise TypeError("BigReal exponent must be an integer")
        return self._unary(mpf_pow_int, exponent)

    def __neg__(self) -> "BigReal":
        return self._unary(mpf_neg)

    def __abs__(self) -> "BigReal":
        return self._unary(mpf_abs)

    # -- comparisons (on the underlying values) --------------------------------

    def _cmp_value(self, other: _Number) -> mpmath.mpf:
        if isinstance(other, BigReal):
            return other.value
        return _make(_raw(other, _bits(self.precision)))

    def __eq__(self, other) -> bool:
        try:
            return self.value == self._cmp_value(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self.value < self._cmp_value(other)

    def __le__(self, other) -> bool:
        return self.value <= self._cmp_value(other)

    def __gt__(self, other) -> bool:
        return self.value > self._cmp_value(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._cmp_value(other)

    def __hash__(self):
        return hash(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    # -- conversions and formatting ---------------------------------------------

    def __float__(self) -> float:
        return to_float(self.value._mpf_, rnd=round_nearest)

    def to_fraction(self) -> Fraction:
        """Exact rational value of the underlying binary float.

        Reads the mantissa/exponent pair directly so no context rounding can
        intervene between the stored value and the rational it denotes.
        """
        sign, man, exp, _ = self.value._mpf_
        if man == 0 and exp != 0:
            raise ValueError("cannot convert a non-finite value to Fraction")
        frac = Fraction(int(man)) * Fraction(2) ** exp
        return -frac if sign else frac

    def to_decimal_string(self, places: int) -> str:
        """Fixed-point decimal string, round-half-even, exact quantization.

        The binary value ``man * 2**exp`` is scaled by ``10**places`` and
        rounded on integers, so formatting is exact at any magnitude,
        deterministic and platform independent (byte-identical across runs).
        It raises ``ValueError`` past Python's int-string digit limit, which is
        never changed, and ``PrecisionError`` for more integer digits than the
        tag: those are noise.
        """
        sign, man, exp, _ = self.value._mpf_
        if man == 0 and exp != 0:
            raise ValueError("cannot format a non-finite value")
        denominator = 1 << max(-exp, 0)
        units, rest = divmod(int(man) * 10**places << max(exp, 0), denominator)
        if 2 * rest + (units & 1) > denominator:  # above half, or half and odd
            units += 1
        limit = _str_digits_limit()
        bound = self.precision + places  # digits that may print
        if units.bit_length() > 3 * (min(bound, limit) if limit else bound):  # below 2^(3n) < 10^n
            digits = int(units.bit_length() * 0.3010299956639812)  # units has this or one more
            digits += units >= 10**digits
            if limit and digits > limit:
                raise ValueError(f"cannot print a value with {digits - places} integer digits at"
                                 f" {places} places: past Python's {limit}-digit int-string limit")
            if digits > bound:
                raise PrecisionError(f"cannot print a value with {digits - places} integer digits"
                                     f" at tag {self.precision}")
        text = str(units).rjust(places + 1, "0")
        if places:
            text = f"{text[:-places]}.{text[-places:]}"
        return "-" + text if sign and units else text  # never print -0

    def digits_str(self, significant: int | None = None) -> str:
        """Significant-digit string (mpmath ``nstr``), default = the tag."""
        return to_str(self.value._mpf_, self.precision if significant is None else significant)

    def __repr__(self) -> str:
        return f"BigReal({self.digits_str(min(self.precision, 20))!r}, precision={self.precision})"

    # -- tolerance convention ----------------------------------------------------

    def agrees_to(self, other: _Number, digits: int) -> bool:
        """Shared "agrees to D digits" convention.

        Absolute difference below 0.5*10^-D when |self| < 1, otherwise relative
        difference below 0.5*10^-D.
        """
        other = other if isinstance(other, BigReal) else BigReal(other, self.precision)
        prec = _bits(max(self.precision, other.precision))
        size = mpf_abs(self.value._mpf_)
        diff = mpf_abs(mpf_sub(self.value._mpf_, other.value._mpf_, prec, round_nearest))
        if not mpf_lt(size, from_int(1)):
            diff = mpf_div(diff, size, prec, round_nearest)
        power = mpf_pow_int(from_int(10), -digits - 1, prec, round_nearest)
        return mpf_lt(diff, mpf_mul(from_int(5), power, prec, round_nearest))


def big(value: _Number, precision: int = DEFAULT_DIGITS) -> BigReal:
    """Shorthand constructor."""
    return BigReal(value, precision)
