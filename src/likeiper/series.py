"""Truncated power series as plain coefficient tuples.

A series is a sequence of coefficients ``a[0..N]`` for
``sum a_k z^k + O(z^(N+1))``; every operation takes any sequence and returns
a tuple of the same length.  Each is written against the common field
interface (``+ - * /``, multiplication and division by Python ints) and takes
its zeros from the operands (``c * 0``), so one code path serves three
coefficient types:

* :class:`~likeiper.bigreal.BigReal` -- each operation rounded at its tag's
  bits; ``lambda_core.tiny_series`` logs its composed series at its working
  tag and tags each result once more, at the requested precision;
* ``int`` -- fixed point, each coefficient scaled by a common 2^wp.  Only
  ``series_compose_zmap`` takes it (it only adds, so it stays exact and
  needs no rescaling); the caller tags each result once;
* :class:`fractions.Fraction` -- exact mode, so that identities can be tested
  with no rounding error at all.

The composition helper substitutes the Koebe-type map ``u = z/(1-z)``
(coefficients 0,1,1,1,...) into a series in ``u``; that map is the pullback of
the half-plane variable used throughout the coefficient computations.
Multiplying by ``u`` is a prefix sum (``1/(1-z)``) and a shift (``z``), so
Horner's rule composes with N(N-1)/2 additions and no multiplications for
order N.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Tuple, Union

from .bigreal import BigReal

Coefficient = Union[BigReal, int, Fraction]


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
    Each k * b_k is formed once, when b_k is, and kept in ``kb``, so order N
    costs N(N-1)/2 + 2N + 1 multiplications and N divisions; the operands
    and their order are those of the sum above, so rounded ``BigReal``
    results do not depend on the hoist.  The constant term of the result is
    exactly the field zero, and the constant term of ``a`` must equal 1 exactly.
    """
    c0 = a[0]
    if c0 != 1:
        raise SeriesDomainError(f"series_log needs constant term 1, got {c0}")
    b = [c0 * 0]
    kb = b[:]  # kb[k] = k * b_k; kb[0] is never read
    for n in range(1, len(a)):
        acc = a[n] * n
        for k in range(1, n):
            acc = acc - kb[k] * a[n - k]
        b_n = acc / n
        b.append(b_n)
        kb.append(b_n * n)
    return tuple(b)


def series_compose_zmap(a: Sequence[Coefficient]) -> Tuple[Coefficient, ...]:
    """Substitute ``u = z/(1-z) = z + z^2 + z^3 + ...`` into a series in ``u``.

    Horner's rule from the top coefficient down, ``h <- a_k + u*h``, where
    ``[z^0](u*h) = 0`` and ``[z^m](u*h) = h_0 + ... + h_(m-1)``: multiplying
    by ``u`` is a shift of the prefix sums.  Coefficient ``n`` depends only on
    ``a_0..a_n``, so ``h`` grows by one coefficient per step and truncating at
    the input's length is exact.  The whole composition costs
    ``order*(order-1)/2`` additions and no multiplications, so fixed-point
    ``int`` and ``Fraction`` coefficients compose exactly.  With ``BigReal``
    coefficients their tag must absorb the cancellation
    of the composed sums, ``[z^n] = sum_{k=1}^{n} C(n-1, k-1) a_k`` (about
    log10 C(n-1, n/2) digits at index ``n``).
    """
    h = []
    for a_k in reversed(a[1:]):
        h = [a_k, *accumulate(h)]
    return (a[0], *accumulate(h))


def parity_sign(exponent: int) -> int:
    """(-1)**exponent computed safely for any integer sign of the exponent."""
    return -1 if exponent % 2 else 1
