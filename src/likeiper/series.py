"""Truncated power series as plain coefficient tuples.

A series is a sequence of coefficients ``a[0..N]`` for
``sum a_k z^k + O(z^(N+1))``; every operation takes any sequence and returns
a tuple of the same length.  Each is written against the common field
interface (``+ - * /``, multiplication and division by Python ints) and takes
its zeros from the operands (``c * 0``), so one code path serves two
coefficient types:

* raw ``mpmath.mpf`` -- the numeric kernel.  Callers enter one
  ``mp.workdps`` context, run the series work on raw values, and tag each
  result as ``BigReal`` once, where it leaves the kernel;
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
from typing import Sequence, Tuple, Union

import mpmath

Coefficient = Union[mpmath.mpf, Fraction]


class SeriesOrderError(ValueError):
    """Raised when operands have mismatched truncation orders."""


class SeriesDomainError(ValueError):
    """Raised when an operation's analytic precondition fails (e.g. log of a
    series whose constant term is not 1)."""


def series_mul(a: Sequence[Coefficient], b: Sequence[Coefficient]) -> Tuple[Coefficient, ...]:
    """Cauchy product of two series of the same length, truncated at it."""
    if len(a) != len(b):
        raise SeriesOrderError(f"series orders differ: {len(a) - 1} vs {len(b) - 1}")
    out = []
    for n in range(len(a)):
        acc = a[0] * b[n]
        for k in range(1, n + 1):
            acc = acc + a[k] * b[n - k]
        out.append(acc)
    return tuple(out)


def series_log(a: Sequence[Coefficient]) -> Tuple[Coefficient, ...]:
    """Logarithm of a series with constant term 1.

    Uses the differential-equation recurrence: with ``b = log a``,

        n * b_n = n * a_n - sum_{k=1}^{n-1} k * b_k * a_{n-k}

    which needs one division per coefficient and no transcendental calls.
    The constant term of the result is exactly the field zero, and the
    constant term of ``a`` must equal 1 exactly.
    """
    c0 = a[0]
    if c0 != 1:
        raise SeriesDomainError(f"series_log needs constant term 1, got {c0}")
    b = [c0 * 0]
    for n in range(1, len(a)):
        acc = a[n] * n
        for k in range(1, n):
            acc = acc - (b[k] * k) * a[n - k]
        b.append(acc / n)
    return tuple(b)


def series_compose_zmap(a: Sequence[Coefficient]) -> Tuple[Coefficient, ...]:
    """Substitute ``u = z/(1-z) = z + z^2 + z^3 + ...`` into a series in ``u``.

    Closed form: ``u^k = sum_{n>=k} C(n-1, k-1) z^n``, so

        [z^0] = a_0,    [z^n] = sum_{k=1}^{n} C(n-1, k-1) a_k   (n >= 1).

    Coefficient ``n`` depends only on ``a_0..a_n``, so truncating at the
    input's length is exact.  The weights are exact integers and the whole
    composition costs ``order*(order-1)/2`` coefficient multiplications, where
    a Horner loop of truncated series products costs O(order^3).  With raw
    ``mpf`` coefficients the caller's working precision must absorb the
    cancellation the binomial weights bring (about log10 C(n-1, n/2) digits
    at index ``n``).
    """
    out = [a[0]]
    for n in range(1, len(a)):
        acc = a[1]
        for k in range(2, n + 1):
            acc = acc + a[k] * math.comb(n - 1, k - 1)
        out.append(acc)
    return tuple(out)


def parity_sign(exponent: int) -> int:
    """(-1)**exponent computed safely for any integer sign of the exponent."""
    return -1 if exponent % 2 else 1
