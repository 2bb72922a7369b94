"""Discrete-derivative approximation schemes for the coefficient sequence.

Observation: the sequence lambda_tiny(n) is numerically close to a solution
of Delta^m = 0 for small m, and closer still to the "full-memory" binomial
recurrence obtained by dropping the tail of an exact binomial identity.
This module implements those predictors:

* ``predict_order_m``   - solve the order-m difference equation at the top
                          index (m = 2 and 3 are the classical cases);
* ``predict_full_history`` - the all-lower-indices binomial predictor
                          lambda(n) ~ sum_{k<n} (-1)^(k-n+1) C(n,k) lambda(k);
* ``predict_voros``     - the central-binomial variant with weights C(2n, n-k).

All three are one alternating binomial sum with a different weight, and one
kernel, ``_predict_binomial``, computes them: weight C(m, n-k) for order m,
C(n, k) for the full history, C(2n, n-k) for Voros.  The sum runs over
k >= 1 by default, so the boundary convention value(0) = 0 needs no code.
Every other alternating binomial sum in the package is the same kernel:

* ``discrete_derivative`` - the kernel at n = m + 1, weight C(m, k), from k = 0;
* ``phi_nlogn``           - phi1 is (-1)^(n-1) times the full-history
                            predictor of k log k;
* ``model_predictor``     - (-1)^(n-1) phi1 / 2 + (c + gamma) n, since the
                            full-history predictor is linear and maps k to n;
* ``zeros.inversion_check`` - its left side is
                            (-1)^(n-1) (lambda_n - predict_voros(lambda, n)).

The kernel sums raw ``mpf`` or exact ``Fraction`` values and takes its zeros from
the operands (``x * 0``); a ``BigReal`` history is summed raw, then tagged once.

The mode is the function called: ``prediction_run`` predicts from exact
history (true lower-index values substituted at every step) and
``self_seeded_run`` feeds the scheme's own predictions back in.  The
closed-form families the self-seeded runs collapse to (n*l1, n^2*l1,
n(n+1)/2*l1, and the general quadratic [(c/2-1)n(n-1)+n]*l1) make sharp
exactness tests.

``phi_nlogn`` and ``model_predictor`` evaluate the operator on the explicit
large-n model g(k) = (1/2) k log k + (c + gamma) k, where the binomial sums
telescope to elementary closed forms up to an O(1/n) defect.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mp

from .bigreal import BigReal, DEFAULT_DIGITS
from .constants import euler_gamma
from .lambda_core import binomial_guard_digits
from .series import parity_sign

Value = Union[BigReal, Fraction]

ORDER_M = "order_m"
FULL_HISTORY = "full_history"
VOROS = "voros"


class HistoryError(ValueError):
    """Raised when a predictor lacks the lower-index values it needs."""


class _SchemeFields(NamedTuple):
    kind: str
    m: Optional[int] = None
    initial: Optional[Tuple[Value, ...]] = None


class RecurrenceScheme(_SchemeFields):
    """A predictor family.

    ``kind`` is one of ``order_m`` (requires ``m >= 2``), ``full_history``,
    ``voros``.  ``initial`` holds the values at indices 2..m that an order-m
    scheme with m > 2 starts from when it self-seeds.
    """

    __slots__ = ()

    def __new__(cls, kind, m=None, initial=None):
        if kind not in (ORDER_M, FULL_HISTORY, VOROS):
            raise ValueError(f"unknown scheme kind {kind!r}")
        if kind == ORDER_M:
            if m is None or m < 2:
                raise ValueError("order_m schemes need m >= 2")
        elif m is not None:
            raise ValueError(f"{kind} takes no order parameter")
        return super().__new__(cls, kind, m, initial)

    @classmethod
    def _make(cls, iterable) -> RecurrenceScheme:  # so that _replace validates too
        return cls(*iterable)


class PredictionResult(NamedTuple):
    n: int
    predicted: Value
    exact: Optional[Value] = None
    abs_error: Optional[Value] = None
    rel_error: Optional[Value] = None


def discrete_derivative(f: Sequence[Value], n: int, m: int) -> Value:
    """The m-th forward difference of ``f`` at base point 0.

        Delta^m f(0) = sum_{k=0}^{m} (-1)^k C(m,k) f(m-k)

    ``f`` must cover indices 0..n with m <= n.  Annihilates polynomials of
    degree < m exactly and maps degree-m leading coefficient a to m! * a.
    """
    if m < 0:
        raise ValueError("difference order m must be >= 0")
    if m > n:
        raise HistoryError(f"order m={m} exceeds available index range 0..{n}")
    return _predict_binomial(f, m + 1, lambda k: math.comb(m, k), lowest=0)


def _predict_binomial(
    history: Sequence[Value], n: int, weight: Callable[[int], int], lowest: int = 1
) -> Value:
    """sum_{k=lowest}^{n-1} (-1)^(k-n+1) weight(k) history[k], zero weights skipped.

    Terms are added in ascending k.  The empty sum is ``history[0] * 0``, so
    it comes back in the history's own type.  A ``BigReal`` history is summed as
    raw ``mpf`` at its smallest tag's working precision; only the sum is tagged.
    """
    if n < 1:
        raise ValueError(f"a binomial prediction needs n >= 1, got n={n}")
    if n > len(history):
        raise HistoryError(
            f"prediction at n={n} needs history 0..{n - 1}, have 0..{len(history) - 1}"
        )
    if isinstance(history[0], BigReal):
        tag = min(h.precision for h in history[:n])
        with mp.workdps(tag + 5):
            raw = _predict_binomial([h.value for h in history[:n]], n, _rounded_weight(weight), lowest)
        return BigReal(raw, tag)
    total: Optional[Value] = None
    for k in range(lowest, n):
        w = weight(k)
        if w:
            term = history[k] * (parity_sign(k - n + 1) * w)
            total = term if total is None else total + term
    return history[0] * 0 if total is None else total


def _rounded_weight(weight: Callable[[int], int]) -> Callable[[int], int]:
    """``weight`` rounded to the working precision, as ``BigReal`` rounds an int operand."""
    def rounded(k: int) -> int:
        w = weight(k)
        return w if w.bit_length() <= mp.prec else int(mpmath.mpf(w))
    return rounded


def predict_order_m(history: Sequence[Value], n: int, m: int) -> Value:
    """Solve Delta^m = 0 at the top index for the value at n:

        predicted = sum_{j=1}^{m} (-1)^(j+1) C(m,j) history[n-j]

    with the boundary convention value(0) = 0, which holds because the
    kernel's sum starts at index 1.  Requires n >= m (an index below 0 is
    not defined by any convention).
    """
    if m < 2:
        raise ValueError("predict_order_m needs m >= 2")
    if n < m:
        raise HistoryError(
            f"order-{m} prediction at n={n} would need an index below 0"
        )
    return _predict_binomial(history, n, lambda k: math.comb(m, n - k))


def predict_full_history(history: Sequence[Value], n: int) -> Value:
    """The all-lower-indices binomial predictor

        predicted = sum_{k=1}^{n-1} (-1)^(k-n+1) C(n,k) history[k].

    At n = 4 this reads 4 h(3) - 6 h(2) + 4 h(1); the empty sum at n = 1 is 0.
    """
    return _predict_binomial(history, n, lambda k: math.comb(n, k))


def predict_voros(history: Sequence[Value], n: int) -> Value:
    """The central-binomial predictor

        predicted = sum_{k=1}^{n-1} (-1)^(k-n+1) C(2n, n-k) history[k].

    At n = 2 it reads 4 h(1).  Same sign pattern as predict_full_history;
    the weights are the tail-suppressing C(2n, n-k) instead of C(n, k).
    """
    return _predict_binomial(history, n, lambda k: math.comb(2 * n, n - k))


def _predict(scheme: RecurrenceScheme, history: Sequence[Value], n: int) -> Value:
    if scheme.kind == ORDER_M:
        return predict_order_m(history, n, scheme.m)
    if scheme.kind == FULL_HISTORY:
        return predict_full_history(history, n)
    return predict_voros(history, n)


def prediction_run(
    scheme: RecurrenceScheme,
    history: Sequence[Value],
    n_lo: int,
    n_hi: int,
) -> List[PredictionResult]:
    """Exact-history predictions for n in [n_lo, n_hi], with errors.

    ``history[k]`` must hold the true value at k for every k < n_hi (and at
    n itself whenever the error columns are wanted).
    """
    results = []
    for n in range(n_lo, n_hi + 1):
        predicted = _predict(scheme, history, n)
        exact = history[n] if n < len(history) else None
        abs_err = rel_err = None
        if exact is not None:
            abs_err = abs(predicted - exact)
            rel_err = abs_err / abs(exact) if exact != 0 else None
        results.append(
            PredictionResult(n=n, predicted=predicted, exact=exact, abs_error=abs_err, rel_error=rel_err)
        )
    return results


def self_seeded_run(
    scheme: RecurrenceScheme,
    lambda1: Value,
    c: Optional[Value] = None,
    n_max: int = 10,
) -> List[Value]:
    """Iterate a scheme on its own output; returns values at 1..n_max.

    Seeding protocol: the Voros scheme needs only lambda1 (its n = 2
    prediction 4*lambda1 is already determined); order-2 and full-history
    schemes need the additional initial condition lambda2 = c * lambda1.
    Higher-order schemes need explicit ``scheme.initial`` values for
    indices 2..m.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values: List[Value] = [lambda1 * 0, lambda1]
    if scheme.kind == VOROS:
        if c is not None:
            raise ValueError(
                "the Voros scheme self-seeds from lambda1 alone; no c accepted"
            )
        start = 2
    elif scheme.kind == FULL_HISTORY or (scheme.kind == ORDER_M and scheme.m == 2):
        if c is None:
            raise ValueError("this scheme needs the initial condition lambda2 = c*lambda1")
        values.append(lambda1 * c)
        start = 3
    else:  # ORDER_M with m > 2
        if not scheme.initial or len(scheme.initial) != scheme.m - 1:
            raise ValueError(
                f"order-{scheme.m} self-seeding needs explicit initial values "
                f"for indices 2..{scheme.m}"
            )
        values.extend(lambda1 * 0 + v for v in scheme.initial)  # in lambda1's type
        start = scheme.m + 1
    for n in range(start, n_max + 1):
        values.append(_predict(scheme, values, n))
    return values[1 : n_max + 1]


def closed_form_check_linear(
    alpha: Value, beta: Value, n_max: int
) -> List[Tuple[int, Value, Value]]:
    """Feed the linear family f(k) = alpha*k + beta through the full-history
    predictor and report (n, predicted, residual) with residual = predicted
    minus alpha*n.

    Linear-through-origin sequences are exact fixed points (residual 0); a
    constant offset beta survives as residual 0 for odd n and 2*beta for
    even n, which is why the fitted solution must have zero intercept.

    Rows cover 2 <= n <= n_max: a prediction at n draws on indices below n,
    so n = 1 has nothing to predict from.
    """
    rows = []
    history = [alpha * 0] + [alpha * k + beta for k in range(1, n_max)]
    for n in range(2, n_max + 1):
        predicted = predict_full_history(history[:n], n)
        residual = predicted - alpha * n
        rows.append((n, predicted, residual))
    return rows


def phi_nlogn(n: int, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, BigReal]:
    """The two n log n sums of the large-n model comparison:

        phi1(n) = sum_{k=1}^{n-1} (-1)^k C(n,k) k log k        (1 log 1 = 0)
        phi2(n) = (-1)^(n-1) n log n

    phi1 carries the raw alternating sign as printed in the source tables,
    so it is (-1)^(n-1) times the full-history predictor of k log k; the
    empty sum at n = 1 is 0.
    """
    if n < 1:
        raise ValueError("phi_nlogn needs n >= 1")
    with mp.workdps(precision + 10 + binomial_guard_digits(n)):  # the C(n, k) cancel
        k_log_k = [mpmath.mpf(0)] + [k * mpmath.log(k) for k in range(1, n)]
        phi1 = predict_full_history(k_log_k, n) * parity_sign(n - 1)
        phi2 = mpmath.mpf(0)
        if n > 1:
            phi2 = parity_sign(n - 1) * n * mpmath.log(n)
        return BigReal(phi1, precision), BigReal(phi2, precision)


def model_predictor(n: int, precision: int = DEFAULT_DIGITS) -> BigReal:
    """Full-history predictor applied to the explicit large-n model

        g(k) = (1/2) k log k + (c + gamma) k,

    where c = (gamma - 1 - log 2pi)/2.  The predictor is linear and maps the
    sequence k to n exactly, so this is (-1)^(n-1) phi1(n) / 2 + (c + gamma) n.
    """
    if n < 2:
        raise ValueError("model_predictor needs n >= 2")
    work = precision + 10
    gamma = euler_gamma(work)
    with mp.workdps(work + 10):
        log2pi = BigReal(mpmath.log(2 * mp.pi), work)
    c = (gamma - 1 - log2pi) / 2
    phi1, _ = phi_nlogn(n, work)
    total = phi1 * parity_sign(n - 1) / 2 + (c + gamma) * n
    return BigReal(total, precision)
