"""The coefficient sequence lambda(n) and its trend/tiny decomposition.

The object of study is the sequence

    lambda(n) = sum over rho of (1 - (1 - 1/rho)^n)

over nontrivial zeta zeros, equivalently the Taylor coefficients of
``(d/dz) log xi(1/(1-z))`` type generating functions.  Everything here is
computed from the completed-zeta factorization: with s = 1/(1-z) and
u = s - 1 = z/(1-z),

    lambda(n)/n = [z^n] log( s * pi^(-s/2) * Gamma(s/2) * (s-1) zeta(s) )

which splits into a smooth *trend* part (the s, pi, Gamma factors) and a
*tiny* part ([z^n] log((s-1) zeta(s))), whose u-expansion is driven by the
Stieltjes coefficients:

    (s-1) zeta(s) = 1 + sum_{k>=0} (-1)^k gamma_k u^(k+1) / k!

Composition through u = z/(1-z) concentrates binomial-sized cancellation
(roughly log10 C(n, n/2) digits at index n), so both series are computed at
a boosted internal precision and rounded down to the requested tag.  Both
series are composed on 2^wp-scaled ints; the tiny series then takes its log
on ``BigReal`` values at its working tag.  Each coefficient is tagged at the
requested precision once, and nothing reads mpmath's global context.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from mpmath.libmp import dps_to_prec

from .bigreal import BigReal, DEFAULT_DIGITS, _bits, _checked, _fixed
from .constants import (ConstantsError, StieltjesTable, _elementary, euler_gamma, load_stieltjes,
                        zeta_ints)
from .series import parity_sign, series_compose_zmap, series_log


def guard_digits(n_max: int) -> int:
    """Internal extra digits needed to absorb composition cancellation.

    The z^n coefficient after substituting u = z/(1-z) mixes u-coefficients
    with binomial weights up to C(n, n/2) ~ 10^(0.301 n), so that many digits
    can cancel; pad generously.
    """
    return max(15, int(0.302 * n_max) + 5)


def tiny_series(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> Tuple[BigReal, ...]:
    """Series with index-n coefficient lambda_tiny(n)/n, n = 0..n_max.

    Built as log((s-1) zeta(s)) expanded in u = s-1 from the Stieltjes table,
    composed through u = z/(1-z), then series_log.  The constant term is
    exactly zero; coefficient 1 is the Euler constant.  The one check of what
    the table supports: it must hold gamma_0..gamma_{n_max-1} at work = precision
    + guard_digits(n_max) digits, or ``ConstantsError`` is raised; nothing is capped.

    Each (-1)^k gamma_k / k! is one integer division of the table's exact
    decimal by k! times its power of ten, rounded to nearest at 2^wp: the one
    rounding of gamma_k.  Those compose exactly, and series_log runs on them
    tagged at the working digits, whose bits are wp.
    """
    if n_max < 1:
        raise ValueError("tiny_series needs n_max >= 1")
    _checked(precision)
    if stieltjes is None:
        stieltjes = load_stieltjes()
    work = precision + guard_digits(n_max)
    if n_max - 1 > stieltjes.k_max or work > stieltjes.digits:
        raise ConstantsError(f"lambda to n = {n_max} at {precision} digits reads gamma_0.."
                             f"gamma_{n_max - 1} at {work} digits; the Stieltjes table has "
                             f"gamma_0..gamma_{stieltjes.k_max} at {stieltjes.digits}")
    wp = _bits(work + 5)
    coeffs = [1 << wp]
    for k in range(n_max):
        gamma, fact = stieltjes.gamma(k), math.factorial(k)
        num, den = parity_sign(k) * gamma.numerator << (wp + 1), gamma.denominator * fact
        coeffs.append((num + den) // (2 * den))
    logged = series_log([_fixed(c, wp, work + 5) for c in series_compose_zmap(coeffs)])
    return tuple([BigReal(c, precision) for c in logged])


def trend_series(n_max: int, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, ...]:
    """Series with index-n coefficient lambda_trend(n)/n, n = 0..n_max.

    The trend is [z^n] log(s * pi^(-s/2) * Gamma(s/2)); in u = s-1 the log is

        log(1+u) - ((1+u)/2) log pi + log Gamma((1+u)/2)

    whose Taylor coefficients come from polygamma values at 1/2:
    the u^1 coefficient is 1 - (log pi)/2 + psi(1/2)/2 and the u^k coefficient
    (k >= 2) is (-1)^(k+1)/k + psi^(k-1)(1/2) / (2^k k!) =
    (-1)^k ((1 - 2^-k) zeta(k) - 1) / k.  The constant term vanishes
    (log Gamma(1/2) = (log pi)/2), so composition needs no log.

    Everything runs on 2^wp-scaled ints: each u^k coefficient is one integer
    division of ``zeta_ints``' value, rounded to nearest, the u^1 coefficient
    ``_u1``'s, and the composition only adds, so it is exact.  Each output is
    tagged once.
    """
    if n_max < 1:
        raise ValueError("trend_series needs n_max >= 1")
    _checked(precision)
    work = precision + guard_digits(n_max)
    wp, zetas = zeta_ints(n_max, work + 5)
    one = 1 << wp
    coeffs = [0, _u1(wp)[1]]
    for k in range(2, n_max + 1):
        zeta = zetas[k]
        coeffs.append(parity_sign(k) * ((2 * (zeta - (zeta >> k) - one) + k) // (2 * k)))
    return tuple([_fixed(c, wp, precision) for c in series_compose_zmap(coeffs)])


def _u1(wp: int) -> Tuple[int, int]:
    """gamma and the u^1 coefficient 1 - gamma/2 - log 2 - (log pi)/2, times 2^wp."""
    gamma, log2, logpi = _elementary(wp)
    return gamma, (1 << wp) - (gamma >> 1) - log2 - (logpi >> 1)


def history(series: Tuple[BigReal, ...]) -> Tuple[BigReal, ...]:
    """Coefficient n times n: the index-n history the predictors read, 0 at n = 0."""
    return tuple([c * n for n, c in enumerate(series)])


class LambdaTable(NamedTuple):
    """lambda(n) = trend + tiny, each an index-n tuple for n = 0..n_max.

    Position 0 holds the tag's zero (lambda(0) = 0 by convention), so each
    tuple is the history the predictors read; ``table.tiny[n] / n`` is the
    per-n coefficient.
    """

    n_max: int
    precision: int
    trend: Tuple[BigReal, ...]
    tiny: Tuple[BigReal, ...]
    total: Tuple[BigReal, ...]

    def lam(self, n: int) -> BigReal:
        """lambda(n); ``IndexError`` outside 1..n_max."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 1..{self.n_max}")
        return self.total[n]


def lambda_table(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> LambdaTable:
    """Assemble lambda(n) = lambda_trend(n) + lambda_tiny(n) for n = 0..n_max.

    Each part is its series' ``history`` (the constant terms are exactly
    zero), and the total is formed as the sum of the two parts (not
    re-rounded independently), so total = trend + tiny holds identically.
    """
    tiny = history(tiny_series(n_max, precision, stieltjes))
    trend = history(trend_series(n_max, precision))
    return LambdaTable(n_max=n_max, precision=precision, trend=trend, tiny=tiny,
                       total=tuple([t + s for t, s in zip(trend, tiny)]))


def lambda1_closed_form(precision: int = DEFAULT_DIGITS) -> BigReal:
    """lambda(1) = 1 + gamma/2 - (1/2) log(4 pi): the trend's u^1 coefficient plus gamma."""
    wp = dps_to_prec(precision + 15)
    return _fixed(sum(_u1(wp)), wp, precision)


class ScanRow(NamedTuple):
    n: int
    ratio: BigReal
    within_bound: bool


def conjecture_scan(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> List[ScanRow]:
    """Test |lambda_tiny(n)/n| <= gamma for n = 1..n_max.

    The ratio lambda_tiny(n)/(n gamma) is identically 1 at n = 1, so the bound
    is tight there; elsewhere |lambda_tiny(n)/n| is compared with gamma itself.
    """
    series = tiny_series(n_max, precision, stieltjes)
    gamma = euler_gamma(precision)
    rows: List[ScanRow] = []
    for n in range(1, n_max + 1):
        ratio = series[n] / gamma if n > 1 else BigReal(1, precision)
        rows.append(ScanRow(n=n, ratio=ratio, within_bound=n == 1 or abs(series[n]) <= gamma))
    return rows
