"""Precision-tagged arbitrary-precision real numbers.

``BigReal`` wraps an ``mpmath.mpf`` together with the number of decimal digits
of working precision it was computed at.  Arithmetic between two values is
carried out at (and tagged with) the *minimum* of the two precisions, so a
result can never silently claim more accuracy than its least accurate input.

All operations run under a local ``mpmath`` working-precision context; nothing
here mutates the global ``mpmath.mp`` state.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp

DEFAULT_DIGITS = 50
MIN_DIGITS = 10

_Number = Union[int, str, Fraction, "BigReal", mpmath.mpf]


class PrecisionError(ValueError):
    """Raised for precision tags below the supported minimum."""


def _check_precision(precision: int) -> int:
    if not isinstance(precision, int) or precision < MIN_DIGITS:
        raise PrecisionError(
            f"precision must be an integer >= {MIN_DIGITS}, got {precision!r}"
        )
    return precision


class BigReal:
    """An immutable arbitrary-precision real with a decimal-digit precision tag."""

    __slots__ = ("value", "precision")

    def __init__(self, value: _Number, precision: int = DEFAULT_DIGITS):
        _check_precision(precision)
        if isinstance(value, BigReal):
            precision = min(precision, value.precision)
            raw = value.value
        else:
            raw = value
        with mp.workdps(precision + 5):
            if isinstance(raw, Fraction):
                mpf_value = mpmath.mpf(raw.numerator) / raw.denominator
            else:
                mpf_value = mpmath.mpf(raw)
        object.__setattr__(self, "value", mpf_value)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BigReal is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, precision: int = DEFAULT_DIGITS) -> "BigReal":
        return cls(0, precision)

    @classmethod
    def one(cls, precision: int = DEFAULT_DIGITS) -> "BigReal":
        return cls(1, precision)

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(other: _Number, precision: int) -> "BigReal":
        if isinstance(other, BigReal):
            return other
        return BigReal(other, precision)

    def _binary(self, other: _Number, op) -> "BigReal":
        other = self._coerce(other, self.precision)
        precision = min(self.precision, other.precision)
        with mp.workdps(precision + 5):
            result = op(self.value, other.value)
        return BigReal(result, precision)

    def __add__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other: _Number) -> "BigReal":
        return self._binary(other, lambda a, b: b / a)

    def __pow__(self, exponent: int) -> "BigReal":
        if not isinstance(exponent, int):
            raise TypeError("BigReal exponent must be an integer")
        with mp.workdps(self.precision + 5):
            result = self.value ** exponent
        return BigReal(result, self.precision)

    def __neg__(self) -> "BigReal":
        # mpmath rounds every operation (even unary minus) to the ambient
        # context, so sign flips must run under this value's own precision
        with mp.workdps(self.precision + 5):
            value = -self.value
        return BigReal(value, self.precision)

    def __abs__(self) -> "BigReal":
        with mp.workdps(self.precision + 5):
            value = abs(self.value)
        return BigReal(value, self.precision)

    # -- comparisons (on the underlying values) --------------------------------

    def _cmp_value(self, other: _Number) -> mpmath.mpf:
        if isinstance(other, BigReal):
            return other.value
        return self._coerce(other, self.precision).value

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
        return float(self.value)

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

        The underlying binary value is converted exactly through ``Fraction``
        before quantizing, so formatting is deterministic and platform
        independent (byte-identical across runs).
        """
        frac = self.to_fraction()
        quantum = Decimal(1).scaleb(-places) if places > 0 else Decimal(1)
        # Decimal division context: give it enough digits for the quantize.
        import decimal as _decimal

        with _decimal.localcontext() as ctx:
            ctx.prec = self.precision + places + 20
            dec = Decimal(frac.numerator) / Decimal(frac.denominator)
            quantized = dec.quantize(quantum, rounding=ROUND_HALF_EVEN)
            if quantized == 0:
                quantized = abs(quantized)  # never print -0
            # format "f" keeps fixed-point notation at any magnitude, where
            # str() would switch to scientific below 1e-6
            return format(quantized, "f")

    def digits_str(self, significant: int | None = None) -> str:
        """Significant-digit string (mpmath ``nstr``), default = the tag."""
        n = significant if significant is not None else self.precision
        with mp.workdps(self.precision + 5):
            return mpmath.nstr(self.value, n)

    def __repr__(self) -> str:
        return f"BigReal({self.digits_str(min(self.precision, 20))!r}, precision={self.precision})"

    # -- tolerance convention ----------------------------------------------------

    def agrees_to(self, other: _Number, digits: int) -> bool:
        """Shared "agrees to D digits" convention.

        Absolute difference below 0.5*10^-D when |self| < 1, otherwise relative
        difference below 0.5*10^-D.
        """
        other = self._coerce(other, self.precision)
        with mp.workdps(max(self.precision, other.precision) + 5):
            diff = abs(self.value - other.value)
            tol = mpmath.mpf(5) * mpmath.mpf(10) ** (-digits - 1)
            if abs(self.value) < 1:
                return diff < tol
            return diff / abs(self.value) < tol


def big(value: _Number, precision: int = DEFAULT_DIGITS) -> BigReal:
    """Shorthand constructor."""
    return BigReal(value, precision)
