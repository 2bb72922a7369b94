"""Precision-tagged arbitrary-precision real numbers.

``BigReal`` is a rounded ``mpmath.libmp`` tuple, ``raw``, tagged with the decimal
digits of working precision it was computed at; ``value`` builds its ``mpf``.
Arithmetic between two values is carried out at (and tagged with) the *minimum*
of the two precisions, so a result never claims more accuracy than its inputs.

Every operation is one ``mpmath.libmp`` call on the raw tuples, rounded to
nearest at the bits of ``tag + 5`` digits, its result stored as it comes.  A
plain operand (``int``, ``Fraction``, ``str``, ``mpf``) is rounded once to
those bits as ``BigReal(operand, tag)`` would be (a ``Fraction`` as
``libmp.from_rational`` does it, a string as mpmath reads it), with no object
made for it.  Nothing here reads mpmath's global state.  The data files'
decimals are not read here: ``datafiles.exact_decimal`` gives their exact
values, which the kernels round at their own bits.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, from_rational, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_eq, mpf_ge, mpf_gt, mpf_hash, mpf_le, mpf_lt,
                          mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, mpf_sub, round_nearest,
                          to_float, to_str)

from .datafiles import DEFAULT_DIGITS, MIN_DIGITS, PrecisionError  # re-exported, mpmath-free there

_Number = Union[int, str, Fraction, "BigReal", mpmath.mpf]

_make = mpmath.mp.make_mpf  # wraps a raw tuple as it is: no rounding, no context read
_str_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit (< 3.10.7)


@lru_cache(maxsize=None)
def _bits(precision: int) -> int:
    """Working bits of a value tagged with ``precision`` digits."""
    return dps_to_prec(precision + 5)


def _raw(value: _Number, prec: int) -> tuple:
    """The libmp tuple of ``value`` (not a ``BigReal``), rounded to nearest at ``prec`` bits."""
    if isinstance(value, int):
        return from_int(value, prec, round_nearest)
    if isinstance(value, Fraction):
        return from_rational(value.numerator, value.denominator, prec, round_nearest)
    return mpmath.mpf(value, prec=prec, rounding=round_nearest)._mpf_


def _ordering(test):
    """A ``BigReal`` comparison: ``test`` on the two raw tuples."""
    return lambda self, other: test(self.raw, self._cmp_raw(other))


class BigReal:
    """An immutable arbitrary-precision real with a decimal-digit precision tag."""

    __slots__ = ("raw", "precision")  # not "_mpf_": mpmath would take a BigReal for its own

    def __init__(self, value: _Number, precision: int = DEFAULT_DIGITS):
        if not isinstance(precision, int) or precision < MIN_DIGITS:
            raise PrecisionError(
                f"precision must be an integer >= {MIN_DIGITS}, got {precision!r}"
            )
        if isinstance(value, BigReal):  # its raw tuple, rounded once
            precision = min(precision, value.precision)
            _set_raw(self, mpf_pos(value.raw, _bits(precision), round_nearest))
        else:
            _set_raw(self, _raw(value, _bits(precision)))
        _set_precision(self, precision)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BigReal is immutable")

    value = property(lambda self: _make(self.raw), doc="The ``mpf`` of ``raw``, built on read.")

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other: _Number, op, swap: bool = False) -> "BigReal":
        precision = self.precision
        if isinstance(other, BigReal):
            precision = min(precision, other.precision)
            b = other.raw
        else:  # rounded as BigReal(other, precision) would be, without making one
            b = _raw(other, _bits(precision))
        a = self.raw
        if swap:
            a, b = b, a
        return _tagged(op(a, b, _bits(precision), round_nearest), precision)

    def _unary(self, op, *args) -> "BigReal":
        return _tagged(op(self.raw, *args, _bits(self.precision), round_nearest), self.precision)

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

    def _cmp_raw(self, other: _Number) -> tuple:
        if isinstance(other, BigReal):
            return other.raw
        return _raw(other, _bits(self.precision))

    def __eq__(self, other) -> bool:
        try:
            return mpf_eq(self.raw, self._cmp_raw(other))
        except (TypeError, ValueError):
            return NotImplemented

    __lt__, __le__, __gt__, __ge__ = (_ordering(test) for test in (mpf_lt, mpf_le, mpf_gt, mpf_ge))

    def __hash__(self):
        return mpf_hash(self.raw)

    def __bool__(self) -> bool:
        return self.raw != fzero

    # -- conversions and formatting ---------------------------------------------

    def __float__(self) -> float:
        return to_float(self.raw, rnd=round_nearest)

    def to_fraction(self) -> Fraction:
        """Exact rational value of ``raw``, read from its mantissa and exponent."""
        sign, man, exp, _ = self.raw
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
        sign, man, exp, _ = self.raw
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
        return to_str(self.raw, self.precision if significant is None else significant)

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
        size = mpf_abs(self.raw)
        diff = mpf_abs(mpf_sub(self.raw, other.raw, prec, round_nearest))
        if not mpf_lt(size, from_int(1)):
            diff = mpf_div(diff, size, prec, round_nearest)
        power = mpf_pow_int(from_int(10), -digits - 1, prec, round_nearest)
        return mpf_lt(diff, mpf_mul(from_int(5), power, prec, round_nearest))


_set_raw, _set_precision = BigReal.raw.__set__, BigReal.precision.__set__


def _tagged(raw: tuple, precision: int) -> BigReal:
    """``raw``, already rounded at ``_bits(precision)``, tagged: no checks, no second rounding."""
    value = object.__new__(BigReal)
    _set_raw(value, raw)
    _set_precision(value, precision)
    return value


def _rounded(raw: tuple, precision: int) -> BigReal:
    """The libmp tuple ``raw`` as a ``BigReal`` tagged ``precision``, rounded once."""
    return _tagged(mpf_pos(raw, _bits(precision), round_nearest), precision)


def _fixed(value: int, wp: int, precision: int) -> BigReal:
    """The 2^wp-scaled int ``value`` as a ``BigReal`` tagged ``precision``, rounded once."""
    return _tagged(from_man_exp(value, -wp, _bits(precision), round_nearest), precision)
