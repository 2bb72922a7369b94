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

Each can run on exact history (true lower-index values substituted at every
step) or self-seeded (its own predictions fed back in).  The closed-form
families the self-seeded runs collapse to (n*l1, n^2*l1, n(n+1)/2*l1, and the
general quadratic [(c/2-1)n(n-1)+n]*l1) make sharp exactness tests.

``phi_nlogn`` and ``model_predictor`` evaluate the operator on the explicit
large-n model g(k) = (1/2) k log k + (c + gamma) k, where the binomial sums
telescope to elementary closed forms up to an O(1/n) defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mp

from .bigreal import BigReal, DEFAULT_DIGITS
from .constants import fundamental_constants
from .series import binomial, parity_sign

Value = Union[BigReal, Fraction]

ORDER_M = "order_m"
FULL_HISTORY = "full_history"
VOROS = "voros"

EXACT_HISTORY = "exact_history"
SELF_SEEDED = "self_seeded"


class HistoryError(ValueError):
    """Raised when a predictor lacks the lower-index values it needs."""


@dataclass(frozen=True)
class RecurrenceScheme:
    """A predictor family plus its seeding mode.

    ``kind`` is one of ``order_m`` (requires ``m >= 2``), ``full_history``,
    ``voros``.  ``seed_mode`` is ``exact_history`` (true lower-index values
    substituted everywhere) or ``self_seeded`` (predictions fed back in,
    started from explicit initial values).
    """

    kind: str
    m: Optional[int] = None
    seed_mode: str = EXACT_HISTORY
    initial: Optional[Tuple[Value, ...]] = None

    def __post_init__(self):
        if self.kind not in (ORDER_M, FULL_HISTORY, VOROS):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == ORDER_M:
            if self.m is None or self.m < 2:
                raise ValueError("order_m schemes need m >= 2")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no order parameter")
        if self.seed_mode not in (EXACT_HISTORY, SELF_SEEDED):
            raise ValueError(f"unknown seed mode {self.seed_mode!r}")


@dataclass(frozen=True)
class PredictionResult:
    n: int
    predicted: Value
    exact: Optional[Value] = None
    abs_error: Optional[Value] = None
    rel_error: Optional[Value] = None


def _value_at(history: Sequence[Value], k: int, what: str) -> Value:
    """history[k] with the boundary convention value(0) = 0."""
    if k < 0:
        raise HistoryError(f"{what}: needs index {k} < 0 (insufficient history)")
    if k == 0:
        sample = history[0] if len(history) > 0 else None
        if isinstance(sample, BigReal):
            return BigReal.zero(sample.precision)
        return Fraction(0)
    if k >= len(history):
        raise HistoryError(
            f"{what}: needs index {k} but history covers only 0..{len(history) - 1}"
        )
    return history[k]


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
    if len(f) < m + 1:
        raise HistoryError(
            f"sequence covers 0..{len(f) - 1}, need 0..{m}"
        )
    total = None
    for k in range(m + 1):
        term = f[m - k] * (parity_sign(k) * binomial(m, k))
        total = term if total is None else total + term
    return total


def predict_order_m(history: Sequence[Value], n: int, m: int) -> Value:
    """Solve Delta^m = 0 at the top index for the value at n:

        predicted = sum_{j=1}^{m} (-1)^(j+1) C(m,j) history[n-j]

    with the boundary convention value(0) = 0.  Requires n >= m (an index
    below 0 is not defined by any convention).
    """
    if m < 2:
        raise ValueError("predict_order_m needs m >= 2")
    if n < m:
        raise HistoryError(
            f"order-{m} prediction at n={n} would need an index below 0"
        )
    total = None
    for j in range(1, m + 1):
        term = _value_at(history, n - j, f"order-{m} prediction at n={n}") * (
            parity_sign(j + 1) * binomial(m, j)
        )
        total = term if total is None else total + term
    return total


def _predict_binomial(history: Sequence[Value], n: int, weight: Callable[[int], int]) -> Value:
    """sum_{k=1}^{n-1} (-1)^(k-n+1) weight(k) history[k]; the empty sum is 0."""
    if n < 1:
        raise ValueError(f"a binomial prediction needs n >= 1, got n={n}")
    if n - 1 >= len(history) and n > 1:
        raise HistoryError(
            f"prediction at n={n} needs history 1..{n - 1}, have 0..{len(history) - 1}"
        )
    total: Optional[Value] = None
    for k in range(1, n):
        term = history[k] * (parity_sign(k - n + 1) * weight(k))
        total = term if total is None else total + term
    if total is None:
        return _zero_like(history[0]) if len(history) > 0 else Fraction(0)
    return total


def predict_full_history(history: Sequence[Value], n: int) -> Value:
    """The all-lower-indices binomial predictor

        predicted = sum_{k=1}^{n-1} (-1)^(k-n+1) C(n,k) history[k].

    At n = 4 this reads 4 h(3) - 6 h(2) + 4 h(1); the empty sum at n = 1 is 0.
    """
    return _predict_binomial(history, n, lambda k: binomial(n, k))


def predict_voros(history: Sequence[Value], n: int) -> Value:
    """The central-binomial predictor

        predicted = sum_{k=1}^{n-1} (-1)^(k-n+1) C(2n, n-k) history[k].

    At n = 2 it reads 4 h(1).  Same sign pattern as predict_full_history;
    the weights are the tail-suppressing C(2n, n-k) instead of C(n, k).
    """
    return _predict_binomial(history, n, lambda k: binomial(2 * n, n - k))


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
            if isinstance(exact, Fraction):
                rel_err = abs_err / abs(exact) if exact != 0 else None
            elif exact != 0:
                rel_err = abs_err / abs(exact)
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
    if scheme.seed_mode != SELF_SEEDED:
        raise ValueError("self_seeded_run needs a scheme in self_seeded mode")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values: List[Value] = [_zero_like(lambda1), lambda1]
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
        values.extend(scheme.initial)
        start = scheme.m + 1
    for n in range(start, n_max + 1):
        values.append(_predict(scheme, values, n))
    return values[1 : n_max + 1]


def _zero_like(value: Value) -> Value:
    if isinstance(value, BigReal):
        return BigReal.zero(value.precision)
    return Fraction(0)


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
    history = [_zero_like(alpha)] + [alpha * k + beta for k in range(1, n_max)]
    for n in range(2, n_max + 1):
        predicted = predict_full_history(history[:n], n)
        residual = predicted - alpha * n
        rows.append((n, predicted, residual))
    return rows


def phi_nlogn(n: int, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, BigReal]:
    """The two n log n sums of the large-n model comparison:

        phi1(n) = sum_{k=1}^{n-1} (-1)^k C(n,k) k log k        (1 log 1 = 0)
        phi2(n) = (-1)^(n-1) n log n

    phi1 carries the raw alternating sign as printed in the source tables
    (no global (-1)^(n-1) factor); the empty sum at n = 1 is 0.
    """
    if n < 1:
        raise ValueError("phi_nlogn needs n >= 1")
    with mp.workdps(precision + 10):
        phi1 = mpmath.mpf(0)
        for k in range(2, n):  # k=1 contributes 1*log(1) = 0
            phi1 += parity_sign(k) * binomial(n, k) * k * mpmath.log(k)
        phi2 = mpmath.mpf(0)
        if n > 1:
            phi2 = parity_sign(n - 1) * n * mpmath.log(n)
        return BigReal(phi1, precision), BigReal(phi2, precision)


def model_predictor(
    n: int,
    precision: int = DEFAULT_DIGITS,
    raw_printed_signs: bool = False,
) -> BigReal:
    """Full-history predictor applied to the explicit large-n model

        g(k) = (1/2) k log k + (c + gamma) k,

    where c = (gamma - 1 - log 2pi)/2.  Default signs follow the
    predict_full_history convention (-1)^(k-n+1), which makes the operator
    consistent with the recurrence it models; ``raw_printed_signs`` selects
    the plain (-1)^k weighting instead (a global factor (-1)^(n-1) apart).
    """
    if n < 2:
        raise ValueError("model_predictor needs n >= 2")
    consts = fundamental_constants(precision + 10)
    with mp.workdps(precision + 10):
        slope = consts.c_model.value + consts.gamma.value
        total = mpmath.mpf(0)
        for k in range(1, n):
            g = k * mpmath.log(k) / 2 + slope * k if k > 1 else slope
            sign = parity_sign(k) if raw_printed_signs else parity_sign(k - n + 1)
            total += sign * binomial(n, k) * g
    return BigReal(total, precision)
