"""Truncated power series and binomial-coefficient utilities.

A ``PowerSeries`` is an immutable list of coefficients ``a[0..order]`` for
``sum a_k z^k + O(z^(order+1))``.  Every operation here is written against
the common field interface (``+ - * /``, multiplication and division by Python
ints) and takes its zeros from the operands (``c * 0``), so one code path
serves three coefficient types:

* raw ``mpmath.mpf`` -- the numeric kernel.  Callers enter one
  ``mp.workdps`` context, run the series work on raw values, and tag each
  result as :class:`BigReal` once, where it leaves the kernel;
* :class:`BigReal` -- the same arithmetic with a precision tag on every
  intermediate, at the cost of one wrapper object per operation;
* :class:`fractions.Fraction` -- exact mode, so that identities can be tested
  with no rounding error at all.

The composition helper substitutes the Koebe-type map ``u = z/(1-z)``
(coefficients 0,1,1,1,...) into a series in ``u``; that map is the pullback of
the half-plane variable used throughout the coefficient computations.  Since
``u^k = sum_{n>=k} C(n-1, k-1) z^n``, the composition is a closed-form sum with
exact integer weights: O(N^2) coefficient operations for order N.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

import mpmath

from .bigreal import BigReal

Coefficient = Union[mpmath.mpf, BigReal, Fraction]


class SeriesOrderError(ValueError):
    """Raised when operands have mismatched truncation orders."""


class SeriesDomainError(ValueError):
    """Raised when an operation's analytic precondition fails (e.g. log of a
    series whose constant term is not 1)."""


class PowerSeries:
    """Immutable truncated power series with field-agnostic coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Coefficient]):
        if len(coeffs) == 0:
            raise SeriesOrderError("a series needs at least the z^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", len(coeffs) - 1)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PowerSeries is immutable")

    def __getitem__(self, k: int) -> Coefficient:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(repr(c) for c in self.coeffs[:3])
        tail = ", ..." if len(self.coeffs) > 3 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"

    def map(self, fn: Callable[[Coefficient], Coefficient]) -> "PowerSeries":
        return PowerSeries([fn(c) for c in self.coeffs])


def _require_same_order(a: PowerSeries, b: PowerSeries) -> None:
    if a.order != b.order:
        raise SeriesOrderError(
            f"series orders differ: {a.order} vs {b.order}"
        )


def series_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    _require_same_order(a, b)
    return PowerSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order."""
    _require_same_order(a, b)
    out = []
    for n in range(a.order + 1):
        acc = a.coeffs[0] * b.coeffs[n]
        for k in range(1, n + 1):
            acc = acc + a.coeffs[k] * b.coeffs[n - k]
        out.append(acc)
    return PowerSeries(out)


def series_log(a: PowerSeries) -> PowerSeries:
    """Logarithm of a series with constant term 1.

    Uses the differential-equation recurrence: with ``b = log a``,

        n * b_n = n * a_n - sum_{k=1}^{n-1} k * b_k * a_{n-k}

    which needs one division per coefficient and no transcendental calls.
    The constant term of the result is exactly the field zero.  A
    :class:`BigReal` constant term may miss 1 by rounding at its tag; raw
    ``mpf`` and ``Fraction`` constant terms must equal 1 exactly.
    """
    c0 = a.coeffs[0]
    if isinstance(c0, BigReal):
        tol = BigReal(1, c0.precision) / (10 ** max(c0.precision - 2, 1))
        if abs(c0 - 1) > tol:
            raise SeriesDomainError(
                f"series_log needs constant term 1, got {c0.digits_str(20)}"
            )
    else:
        if c0 != 1:
            raise SeriesDomainError(f"series_log needs constant term 1, got {c0}")
    b = [c0 * 0]
    for n in range(1, a.order + 1):
        acc = a.coeffs[n] * n
        for k in range(1, n):
            acc = acc - (b[k] * k) * a.coeffs[n - k]
        b.append(acc / n)
    return PowerSeries(b)


def series_derivative(a: PowerSeries) -> PowerSeries:
    """Termwise derivative; the order drops by one."""
    if a.order == 0:
        return PowerSeries([a.coeffs[0] * 0])
    return PowerSeries([a.coeffs[k] * k for k in range(1, a.order + 1)])


def koebe_series(order: int, precision: int | None = None) -> PowerSeries:
    """The extremal map ``K(z) = z/(1-z)^2 = z + 2 z^2 + 3 z^3 + ...``.

    Coefficients 0, 1, 2, ..., order.  With ``precision=None`` the coefficients
    are exact ``Fraction`` values, otherwise ``BigReal`` at ``precision``.
    """
    if order < 1:
        raise SeriesOrderError("koebe_series needs order >= 1")
    if precision is None:
        return PowerSeries([Fraction(n) for n in range(order + 1)])
    return PowerSeries([BigReal(n, precision) for n in range(order + 1)])


def series_compose_zmap(a: PowerSeries) -> PowerSeries:
    """Substitute ``u = z/(1-z) = z + z^2 + z^3 + ...`` into a series in ``u``.

    Closed form: ``u^k = sum_{n>=k} C(n-1, k-1) z^n``, so

        [z^0] = a_0,    [z^n] = sum_{k=1}^{n} C(n-1, k-1) a_k   (n >= 1).

    Coefficient ``n`` depends only on ``a_0..a_n``, so truncating at
    ``a.order`` is exact.  The weights are exact integers and the whole
    composition costs ``order*(order-1)/2`` coefficient multiplications, where
    a Horner loop of truncated series products costs O(order^3).  With raw
    ``mpf`` coefficients the caller's working precision must absorb the
    cancellation the binomial weights bring (about log10 C(n-1, n/2) digits
    at index ``n``).
    """
    c = a.coeffs
    out = [c[0]]
    for n in range(1, a.order + 1):
        acc = c[1]
        for k in range(2, n + 1):
            acc = acc + c[k] * math.comb(n - 1, k - 1)
        out.append(acc)
    return PowerSeries(out)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside the triangle, errors on n < 0."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parity_sign(exponent: int) -> int:
    """(-1)**exponent computed safely for any integer sign of the exponent."""
    return -1 if exponent % 2 else 1
