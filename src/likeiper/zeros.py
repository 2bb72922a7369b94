"""Zero-ordinate ingestion, partial zero sums, and tail/remainder bounds.

With x_k = 1/4 + t_k^2 (t_k the imaginary parts of the nontrivial zeros),
the power sums Z(j) = sum_k x_k^(-j) tie the coefficient sequence to the
zeros through a binomial inversion: the alternating central-binomial
combination of lambda_1..lambda_n equals Z(n) up to a tail that shrinks like
t_1^(-(2n-1)).  This module computes, each for j = 1..n in one pass, the
truncated sums (in fixed point) and rigorous-to-a-factor bounds on their tails
and on the dropped remainders from the zero-counting density
(1/2pi) log(t/2pi) dt; and the inversion consistency check.

Ordinates are ingested from a data file, never computed here, and kept as
their exact decimal values; the shipped table carries provenance in its header.
The module imports only ``datafiles`` at load, so that ``load_zeros``, which
compares exact values, loads no mpmath; the sums, bounds and the inversion check
import libmp, ``bigreal`` and the predictors in their bodies.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from .datafiles import (DEFAULT_DIGITS, PrecisionError, default_zeros_path, exact_decimal,
                        parse_indexed_table, table_digits)

if TYPE_CHECKING:
    from .bigreal import BigReal
    from .lambda_core import LambdaTable


class ZeroDataError(ValueError):
    """Raised for unusable zero-ordinate files."""


class ZeroList(NamedTuple):
    """Validated, strictly increasing zero ordinates t_1 < t_2 < ..., each the
    exact value of its decimal in the file, which carries ``digits`` digits."""

    ordinates: Tuple[Fraction, ...]
    digits: int
    warnings: Tuple[str, ...] = ()

    @property
    def count(self) -> int:
        return len(self.ordinates)

    @property
    def last(self) -> Fraction:
        return self.ordinates[-1]


def load_zeros(path: Optional[Path] = None) -> ZeroList:
    """Load and validate a zero-ordinate table.

    Hard failures: non-increasing ordinates, or a first ordinate outside
    (14.1, 14.2) — both indicate a corrupt or mislabeled file.  A file with
    very few ordinates is accepted but carries a warning, since tail bounds
    then dominate every partial sum.  Every check compares exact values.
    Without a ``# digits:`` header the table carries the significant digits
    of its shortest ordinate.
    """
    if path is None:
        path = default_zeros_path()
    metadata, rows = parse_indexed_table(path)
    digits = table_digits(path, metadata, rows, ZeroDataError)
    ordinates = tuple([exact_decimal(text) for _, text in rows])
    for (index, text), t, previous in zip(rows[1:], ordinates[1:], ordinates):
        if not t > previous:
            raise ZeroDataError(f"{path}: ordinate #{index} = {text} is not strictly increasing")
    first = ordinates[0]
    if not (Fraction(141, 10) < first < Fraction(142, 10)):
        from .bigreal import BigReal
        raise ZeroDataError(
            f"{path}: first ordinate {BigReal(first, digits).digits_str(10)} outside "
            "(14.1, 14.2); not a table of nontrivial-zero ordinates from the start"
        )
    warnings = () if len(ordinates) >= 10 else (
        f"only {len(ordinates)} ordinate(s): tail bounds dominate partial sums",)
    return ZeroList(ordinates=ordinates, digits=digits, warnings=warnings)


def _zero_digits(zeros: ZeroList, precision: int) -> int:
    """``precision``, the digits a zero sum or its bound is tagged; past the
    digits the ordinates carry, ``PrecisionError``."""
    if precision > zeros.digits:
        raise PrecisionError(f"{precision} digits exceed the {zeros.digits} digits of the zero table")
    return precision


def z_partial(j_max: int, zeros: ZeroList, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, ...]:
    """Truncated power sums Z(j) = sum_{k=1}^{count} (1/4 + t_k^2)^(-j), j = 1..j_max.

    One fixed-point pass: with x_k = 1/4 + t_k^2 = a_k / (4 q_k^2), exact for
    t_k = p_k / q_k and a_k = 4 p_k^2 + q_k^2, and r_k = x_1/x_k <= 1 as
    2^wp-scaled ints, Z(j) = x_1^(-j) sum_k r_k^j, each r_k^j one multiply and
    shift from r_k^(j-1).  Scaling by x_1 keeps the sum >= 1, so the fixed
    point is relative (Z(32) is near 10^-74).  Each r_k is one integer
    division, a_1 q_k^2 2^wp // (q_1^2 a_k), below its exact value by < 1 ulp,
    so r_k^j by < 2j ulps after j truncating steps, and the running x_1^(-j)
    is within j ulps: (2 count + 1) j_max bounds the error in ulps, and its
    bit length is added as guard bits.  Values are tagged ``precision``; past
    the digits the ordinates carry, ``PrecisionError``.
    """
    from mpmath.libmp import dps_to_prec, from_man_exp, from_rational, mpf_mul, round_nearest
    from .bigreal import _rounded
    if j_max < 1:
        raise ValueError("z_partial needs j_max >= 1")
    precision = _zero_digits(zeros, precision)
    wp = dps_to_prec(precision + 10) + ((2 * zeros.count + 1) * j_max).bit_length()
    xs = [(4 * t.numerator**2 + t.denominator**2, t.denominator**2) for t in zeros.ordinates]
    a1, qq1 = xs[0]  # x_k = a / (4 qq)
    ratios = [(a1 * qq << wp) // (qq1 * a) for a, qq in xs]
    step = from_rational(4 * qq1, a1, wp, round_nearest)
    powers, scale, sums = ratios, step, []
    for _ in range(j_max):
        total = mpf_mul(from_man_exp(sum(powers), -wp), scale, wp, round_nearest)
        sums.append(_rounded(total, precision))
        powers = [p * r >> wp for p, r in zip(powers, ratios)]
        scale = mpf_mul(scale, step, wp, round_nearest)
    return tuple(sums)


def _density_tails(j_max: int, T: Fraction, precision: int) -> Tuple[BigReal, ...]:
    """The density integral over the omitted tail beyond the exact height T, for j = 1..j_max:

        integral_T^inf (1/2pi) log(t/2pi) t^(-2j) dt
          = (1/2pi) T^(-(2j-1)) (1/(2j-1)) (log(T/2pi) + 1/(2j-1)).

    T is rounded once to precision + 10 digits; 1/2pi and log(T/2pi) are
    computed once; each j takes its own power of T and evaluates the closed
    form left to right at those digits, so every value has the bits of a
    separate evaluation for that j alone.
    """
    from mpmath.libmp import (dps_to_prec, fone, from_int, from_rational, mpf_add, mpf_div, mpf_log,
                              mpf_mul, mpf_pi, mpf_pow_int, mpf_shift, round_nearest)
    from .bigreal import _rounded
    if j_max < 1:
        raise ValueError("tail bounds need j_max >= 1")
    prec, rnd = dps_to_prec(precision + 10), round_nearest
    T = from_rational(T.numerator, T.denominator, prec, rnd)
    twopi = mpf_shift(mpf_pi(prec, rnd), 1)
    scale = mpf_div(fone, twopi, prec, rnd)
    log_term = mpf_log(mpf_div(T, twopi, prec, rnd), prec, rnd)
    tails = []
    for j in range(1, j_max + 1):
        inv = mpf_div(fone, from_int(2 * j - 1), prec, rnd)
        tail = mpf_mul(scale, mpf_pow_int(T, 1 - 2 * j, prec, rnd), prec, rnd)
        tail = mpf_mul(mpf_mul(tail, inv, prec, rnd), mpf_add(log_term, inv, prec, rnd), prec, rnd)
        tails.append(_rounded(tail, precision))
    return tuple(tails)


def z_tail_bound(j_max: int, zeros: ZeroList, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, ...]:
    """Upper bounds on the omitted tails of z_partial(j), j = 1..j_max.

    Twice the density integral beyond the last ingested ordinate: the
    zero-counting function fluctuates around the smooth density, and the
    factor 2 absorbs that fluctuation over every range relevant here.
    Tagged ``precision``, which T = t_count must carry, as in z_partial.
    """
    tails = _density_tails(j_max, zeros.last, _zero_digits(zeros, precision))
    return tuple([tail * 2 for tail in tails])


def delta_bound(n_max: int, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, ...]:
    """Bounds on the dropped remainders Delta(n) = sum_rho (-1)^(n-1) rho^(-n), n = 1..n_max:

        |Delta(n)| < (1/2pi) (1/14)^(2n-1) (1/(2n-1)) (log(14/2pi) + 1/(2n-1)).

    This is the density integral from the first-zero height; it does not
    assume anything about the real parts of the zeros.
    """
    return _density_tails(n_max, Fraction(14), precision)


class InversionCheck(NamedTuple):
    """One row of the lambda <-> zero-sum consistency check."""

    n: int
    lhs: BigReal            # alternating central-binomial combination of lambdas
    z_truncated: BigReal    # partial power sum over ingested zeros
    tail_bound: BigReal
    allowance: BigReal      # max(10^-40, B(n)): slack for the table's own rounding
    consistent: bool

    @property
    def residual(self) -> BigReal:
        return abs(self.lhs - self.z_truncated)


def inversion_check(
    n_max: int,
    lambdas: LambdaTable,
    zeros: ZeroList,
    precision: int = DEFAULT_DIGITS,
) -> Tuple[InversionCheck, ...]:
    """Check sum_{k=0}^n (-1)^(k-1) C(2n, n-k) lambda_k = Z(n) for n = 1..n_max.

    The k = 0 term vanishes (lambda_0 = 0 by convention), so the left side
    is (-1)^(n-1) (lambda_n - predict(voros, lambda, n)), summed exactly over
    k = 1..n by the binomial kernel and rounded once at the table's tag.
    The right side is only available truncated, so consistency means

        |LHS - z_partial(n)| <= z_tail_bound(n) + allowance

    where the allowance max(10^-40, B(n)) covers the rounding of the lambda
    values themselves: with P the table's tag,

        B(n) = 1/2 10^(1-P) sum_{k=1}^n C(2n, n-k) |lambda_k|

    is the first-order effect on the LHS of an error of half a unit in the
    P-th significant digit of each lambda_k, evaluated in floating point.
    The table's values are closer than that, so B(n) bounds their rounding
    with slack.  One ``z_partial`` and one ``z_tail_bound`` pass give every
    Z(n) and its bound, so ``precision`` past the zero table's digits raises
    ``PrecisionError`` as they do.  The weights C(2n, n-k) amplify the
    table's rounding, so the table must be tagged ``precision`` plus the
    Voros scheme's ``guard_digits(n_max)`` (``PrecisionError`` otherwise).
    Every field is tagged ``precision``.
    """
    # here, so that loading zeros loads no predictor
    from .bigreal import BigReal
    from .recurrences import VOROS, RecurrenceScheme, _binomial_row, _predict_binomial
    from .series import parity_sign

    if n_max < 1:
        raise ValueError("inversion_check needs n_max >= 1")
    if lambdas.n_max < n_max:
        raise ValueError(
            f"lambda table covers n <= {lambdas.n_max}, need n = {n_max}"
        )
    sums = zip(z_partial(n_max, zeros, precision), z_tail_bound(n_max, zeros, precision))
    voros = RecurrenceScheme(kind=VOROS)
    need = precision + voros.guard_digits(n_max)
    if lambdas.precision < need:
        raise PrecisionError(
            f"the inversion to n = {n_max} at {precision} digits needs a lambda table tagged "
            f"{need}, not {lambdas.precision}"
        )
    floor = BigReal(1, precision) / (10 ** 40)
    sizes = [abs(float(lam)) for lam in lambdas.total]
    half_unit = 10.0 ** (1 - lambdas.precision) / 2
    rows = []
    for n, (z_trunc, bound) in enumerate(sums, 1):
        weights = _binomial_row(voros.top(n), n)  # C(2n, n - k) at index n - k
        lhs = _predict_binomial(lambdas.total, n + 1, lambda k: weights[n - k])
        lhs = BigReal(lhs * parity_sign(n - 1), precision)
        spread = half_unit * sum(weights[n - k] * sizes[k] for k in range(1, n + 1))
        allowance = max(floor, BigReal(spread, precision))
        rows.append(InversionCheck(
            n=n,
            lhs=lhs,
            z_truncated=z_trunc,
            tail_bound=bound,
            allowance=allowance,
            consistent=abs(lhs - z_trunc) <= bound + allowance,
        ))
    return tuple(rows)
