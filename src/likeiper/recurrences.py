"""Discrete-derivative approximation schemes for the coefficient sequence.

Observation: the sequence lambda_tiny(n) is numerically close to a solution
of Delta^m = 0 for small m, and closer still to the "full-memory" binomial
recurrence obtained by dropping the tail of an exact binomial identity.
Every such scheme sets a discrete derivative to zero, and ``predict`` weighs
history[k] by C(top, n-k) for all of them, with the top its
``RecurrenceScheme`` fixes:

* ``order_m``      - m: Delta^m = 0 at the top index (m = 2 and 3 are the
                     classical cases);
* ``full_history`` - n: every lower index, weights C(n, k);
* ``voros``        - 2n: the central-binomial weights C(2n, n-k).

One kernel, ``_predict_binomial``, sums over k >= 1 by default, so the
boundary convention value(0) = 0 needs no code.  Every other alternating
binomial sum in the package is the same kernel:

* ``discrete_derivative`` - the kernel at n = m + 1, weight C(m, k), from k = 0;
* ``phi_nlogn``           - phi1 is (-1)^(n-1) times the full-history
                            prediction of k log k;
* ``model_predictor``     - (-1)^(n-1) phi1 / 2 + (c + gamma) n, since the
                            full-history prediction is linear and maps k to n;
* ``zeros.inversion_check`` - its left side is (-1)^(n-1) (lambda_n minus
                            the Voros prediction of lambda at n), the kernel
                            at n + 1 on the Voros row.

The kernel reads two number types.  Each term is an integer over one common
denominator (a ``BigReal`` mantissa over a power of two, a ``Fraction`` or
``int`` numerator); the kernel sums the weighted integers exactly and rounds
once: a ``BigReal`` history at its smallest tag, an exact history not at all.

The mode is the function called: ``prediction_run`` predicts from exact
history (true lower-index values substituted at every step) and
``self_seeded_run`` feeds the scheme's own predictions back in, on exact
``Fraction`` values, rounding each output once.  The
closed-form families the self-seeded runs collapse to (n*l1, n^2*l1,
n(n+1)/2*l1, and the general quadratic [(c/2-1)n(n-1)+n]*l1) make sharp
exactness tests.

``phi_nlogn`` and ``model_predictor`` evaluate the operator on the explicit
large-n model g(k) = (1/2) k log k + (c + gamma) k, where the binomial sums
telescope to elementary closed forms up to an O(1/n) defect; k log k are
2^wp-scaled ints, summed on the kernel's exact integer path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from mpmath.libmp import dps_to_prec, log_int_fixed

from .bigreal import (BigReal, DEFAULT_DIGITS, PrecisionError, _checked, _dyadic, _fixed,
                      _places_tag)
from .constants import _elementary
from .series import parity_sign

Value = Union[BigReal, Fraction]

ORDER_M = "order_m"
FULL_HISTORY = "full_history"
VOROS = "voros"


class HistoryError(ValueError):
    """Raised when a predictor lacks the lower-index values it needs."""


def binomial_guard_digits(m: int) -> int:
    """Digits a sum with weights C(m, k) can cancel: ceil(log10 C(m, m // 2))."""
    return math.ceil(math.log10(math.comb(m, m // 2)))


class _SchemeFields(NamedTuple):
    kind: str
    m: Optional[int] = None
    initial: Optional[Tuple[Value, ...]] = None


class RecurrenceScheme(_SchemeFields):
    """A predictor family, and the one place that tells the kinds apart.

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

    def top(self, n: int) -> int:
        """The top of the binomial row C(top, n-k) a prediction at n weighs
        history[k] by: m for order m, n for the full history, 2n for Voros."""
        return {ORDER_M: self.m, FULL_HISTORY: n, VOROS: 2 * n}[self.kind]

    @property
    def seeds(self) -> int:
        """Values past lambda(1) a self-seeded run starts from: 0 for Voros, 1
        (lambda(2) = c*lambda(1)) for the full history, m - 1 for order m."""
        if self.kind == ORDER_M:
            return self.m - 1
        return int(self.kind == FULL_HISTORY)

    def guard_digits(self, n_max: int) -> int:
        """Digits a prediction up to ``n_max`` can cancel, plus 3: the history's
        tag must exceed the predictions' by this much.

        With exact history a prediction's error is its inputs' error times the
        sum of its weights' sizes, and nothing compounds.  The largest weight is
        C(top, top/2) at n_max; the 3 covers the sum over the weights.
        """
        return binomial_guard_digits(self.top(n_max)) + 3


class PredictionResult(NamedTuple):
    n: int
    predicted: Value
    exact: Optional[Value] = None
    abs_error: Optional[Value] = None
    rel_error: Optional[Value] = None


def discrete_derivative(f: Sequence[Value], m: int) -> Value:
    """The m-th forward difference of ``f`` at base point 0.

        Delta^m f(0) = sum_{k=0}^{m} (-1)^k C(m,k) f(m-k)

    ``f`` must cover indices 0..m.  Annihilates polynomials of
    degree < m exactly and maps degree-m leading coefficient a to m! * a.
    """
    if m < 0:
        raise ValueError("difference order m must be >= 0")
    if m >= len(f):
        raise HistoryError(f"order m={m} exceeds available index range 0..{len(f) - 1}")
    return _predict_binomial(f, m + 1, _binomial_row(m, m + 1).__getitem__, lowest=0)


def _binomial_row(top: int, count: int) -> List[int]:
    """C(top, 0..count-1), each from the one before by one multiplication and
    one exact division (a ``math.comb`` per weight costs a product each)."""
    row = [1]
    for j in range(1, count):
        row.append(row[-1] * (top - j + 1) // j)
    return row


def _predict_binomial(
    history: Sequence[Value], n: int, weight: Callable[[int], int], lowest: int = 1
) -> Value:
    """sum_{k=lowest}^{n-1} (-1)^(k-n+1) weight(k) history[k], zero weights skipped.

    Every term read is an integer over one common denominator: a ``BigReal`` is
    its mantissa over a power of two, a ``Fraction`` or ``int`` its numerator
    over its denominator.  The weighted integers are summed exactly and rounded
    once, at the smallest tag of ``history[:n]`` for a ``BigReal`` history; any
    other sum is an exact ``Fraction``.  The empty sum is zero in the history's
    type.  A non-finite term raises ``ValueError``, any other type ``TypeError``.
    """
    if n < 1:
        raise ValueError(f"a binomial prediction needs n >= 1, got n={n}")
    if n > len(history):
        raise HistoryError(
            f"prediction at n={n} needs history 0..{n - 1}, have 0..{len(history) - 1}"
        )
    terms = [(parity_sign(k - n + 1) * w, _ratio(history[k]))
             for k in range(lowest, n) if (w := weight(k))]
    # no n-item tuple: CPython 3.11 keeps freed 20-item tuples it never reuses
    den = reduce(math.lcm, [d for _, (_, d) in terms], 1)
    total = sum(w * num * (den // d) for w, (num, d) in terms)
    if isinstance(history[0], BigReal):  # den is a power of two
        return _fixed(total, den.bit_length() - 1, min(history[k].precision for k in range(n)))
    return Fraction(total, den)


def _ratio(value: Union[Value, int]) -> Tuple[int, int]:
    """``value`` exactly as (numerator, denominator); a ``BigReal``'s
    denominator is a power of two."""
    if isinstance(value, BigReal):
        try:
            return _dyadic(value)
        except ValueError:
            raise ValueError(f"a binomial prediction cannot sum the non-finite value {value}"
                             ) from None
    if isinstance(value, (Fraction, int)):
        return value.numerator, value.denominator
    raise TypeError(f"predictions sum BigReal, Fraction or int values, not {type(value).__name__}")


def predict(scheme: RecurrenceScheme, history: Sequence[Value], n: int) -> Value:
    """The scheme's prediction at n, sum_{k=1}^{n-1} (-1)^(k-n+1) C(top, n-k)
    history[k] with top = ``scheme.top(n)``; the empty sum at n = 1 is 0:

        order m       sum_{j=1}^{m} (-1)^(j+1) C(m,j) history[n-j]; needs n >= m,
                      and the term at j = n is value(0) = 0
        full history  sum_{k=1}^{n-1} (-1)^(k-n+1) C(n,k) history[k];
                      4 h(3) - 6 h(2) + 4 h(1) at n = 4
        Voros         sum_{k=1}^{n-1} (-1)^(k-n+1) C(2n, n-k) history[k];
                      4 h(1) at n = 2
    """
    if scheme.m and n < scheme.m:
        raise HistoryError(
            f"order-{scheme.m} prediction at n={n} would need an index below 0"
        )
    row = _binomial_row(scheme.top(n), n)
    return _predict_binomial(history, n, lambda k: row[n - k])


def prediction_run(
    scheme: RecurrenceScheme,
    history: Sequence[Value],
    n_lo: int,
    n_hi: int,
    precision: int,
) -> List[PredictionResult]:
    """Exact-history predictions for n in [n_lo, n_hi], with errors.

    ``history[k]`` must hold the true value at k for every k < n_hi (and at
    n itself whenever the error columns are wanted).  A history with
    ``BigReal`` values must be tagged at least ``precision`` plus
    ``scheme.guard_digits(n_hi)`` (``PrecisionError`` otherwise), and each
    prediction and error from it is tagged to hold ``precision`` places (see
    ``bigreal._places_tag``); an exact history gives exact predictions.
    """
    tags = [h.precision for h in history if isinstance(h, BigReal)]
    if tags:
        need, tag = precision + scheme.guard_digits(n_hi), min(tags)
        if tag < need:
            raise PrecisionError(
                f"predictions to n = {n_hi} at {precision} digits need a history tagged "
                f"{need}, not {tag}"
            )
    results = []
    for n in range(n_lo, n_hi + 1):
        predicted = predict(scheme, history, n)
        exact = history[n] if n < len(history) else None
        abs_err = None if exact is None else abs(predicted - exact)
        rel_err = abs_err / abs(exact) if exact else None  # none at a zero exact value
        if tags:  # each formed at the history's tag, then tagged once for its places
            predicted, abs_err, rel_err = (v if v is None else BigReal(v, _places_tag(
                precision, int(v.to_fraction()))) for v in (predicted, abs_err, rel_err))
        results.append(PredictionResult(n, predicted, exact, abs_err, rel_err))
    return results


def self_seeded_run(
    scheme: RecurrenceScheme,
    lambda1: Value,
    c: Optional[Value] = None,
    n_max: int = 10,
) -> List[Value]:
    """Iterate a scheme on its own output; returns values at 1..n_max.

    Seeding protocol, ``scheme.seeds`` values past lambda1: the Voros scheme
    needs only lambda1 (its n = 2 prediction 4*lambda1 is already
    determined); order-2 and full-history schemes need the additional initial
    condition lambda2 = c * lambda1.  Higher-order schemes need explicit
    ``scheme.initial`` values for indices 2..m.

    The run is exact: ``BigReal`` inputs are read through ``to_fraction()``
    and the scheme iterates on ``Fraction`` values, so no step amplifies the
    rounding of the one before.  With any ``BigReal`` input each output is the
    exact value rounded once, as ``BigReal(value, tag)`` rounds a ``Fraction``,
    at the smallest input tag; otherwise the outputs are exact.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    initial = scheme.initial or ()
    tags = [v.precision for v in (lambda1, c, *initial) if isinstance(v, BigReal)]
    lambda1, c = _exact(lambda1), None if c is None else _exact(c)
    values: List[Fraction] = [Fraction(0), lambda1]
    if not scheme.seeds:
        if c is not None:
            raise ValueError(
                "the Voros scheme self-seeds from lambda1 alone; no c accepted"
            )
    elif scheme.seeds == 1:
        if c is None:
            raise ValueError("this scheme needs the initial condition lambda2 = c*lambda1")
        values.append(lambda1 * c)
    elif len(initial) != scheme.seeds:
        raise ValueError(
            f"order-{scheme.m} self-seeding needs explicit initial values "
            f"for indices 2..{scheme.m}"
        )
    else:
        values.extend(map(_exact, initial))
    for n in range(scheme.seeds + 2, n_max + 1):
        values.append(predict(scheme, values, n))
    if tags:
        return [BigReal(v, min(tags)) for v in values[1 : n_max + 1]]
    return values[1 : n_max + 1]


def _exact(value: Value) -> Fraction:
    return value.to_fraction() if isinstance(value, BigReal) else Fraction(value)


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
        predicted = predict(RecurrenceScheme(FULL_HISTORY), history[:n], n)
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
    wp = dps_to_prec(precision + 10 + binomial_guard_digits(n))  # the C(n, k) cancel
    k_log_k = [0] + [k * log_int_fixed(k, wp) for k in range(1, n + 1)]  # 2^wp-scaled
    phi1, sign = predict(RecurrenceScheme(FULL_HISTORY), k_log_k, n).numerator, parity_sign(n - 1)
    return _fixed(sign * phi1, wp, precision), _fixed(sign * k_log_k[n], wp, precision)


def model_predictor(n: int, precision: int = DEFAULT_DIGITS) -> BigReal:
    """Full-history predictor applied to the explicit large-n model

        g(k) = (1/2) k log k + (c + gamma) k,

    where c = (gamma - 1 - log 2pi)/2.  The predictor is linear and maps the
    sequence k to n exactly, so this is (-1)^(n-1) phi1(n) / 2 + (c + gamma) n,
    the second term (3 gamma - 1 - log 2 - log pi) n / 2 formed on
    ``_elementary``'s ints and tagged once.
    """
    if n < 2:
        raise ValueError("model_predictor needs n >= 2")
    work = _checked(precision) + 10
    wp = dps_to_prec(work + 15)
    gamma, log2, logpi = _elementary(wp)
    linear = _fixed((3 * gamma - (1 << wp) - log2 - logpi) * n, wp + 1, work)
    phi1, _ = phi_nlogn(n, work)
    return BigReal(phi1 * parity_sign(n - 1) / 2 + linear, precision)
