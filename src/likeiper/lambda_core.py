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
a boosted internal precision and rounded down to the requested tag.  The
series work runs on raw ``mpf`` values under one ``mp.workdps`` context; each
series comes back as a plain tuple of coefficients, each tagged as ``BigReal``
once, at the requested precision.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mp

from .bigreal import BigReal, DEFAULT_DIGITS
from .constants import (
    ConstantsError,
    StieltjesTable,
    euler_gamma,
    load_stieltjes,
    log_pi,
    polygamma_half,
    zeta_ints,
)
from .series import series_compose_zmap, series_log


def guard_digits(n_max: int) -> int:
    """Internal extra digits needed to absorb composition cancellation.

    The z^n coefficient after substituting u = z/(1-z) mixes u-coefficients
    with binomial weights up to C(n, n/2) ~ 10^(0.301 n), so that many digits
    can cancel; pad generously.
    """
    return max(15, int(0.302 * n_max) + 5)


def binomial_guard_digits(m: int) -> int:
    """Digits a sum with weights C(m, k) can cancel: ceil(log10 C(m, m // 2))."""
    return math.ceil(math.log10(math.comb(m, m // 2)))


def tiny_series(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> Tuple[BigReal, ...]:
    """Series with index-n coefficient lambda_tiny(n)/n, n = 0..n_max.

    Built as log((s-1) zeta(s)) expanded in u = s-1 from the Stieltjes table,
    composed through u = z/(1-z), then series_log.  The constant term is
    exactly zero; coefficient 1 is the Euler constant.  Reads gamma_0 to
    gamma_{n_max-1} from the table, and raises ``ConstantsError`` when
    ``precision`` exceeds the table's digits.
    """
    if n_max < 1:
        raise ValueError("tiny_series needs n_max >= 1")
    if stieltjes is None:
        stieltjes = load_stieltjes()
    stieltjes.require(n_max - 1)
    if precision > stieltjes.digits:
        raise ConstantsError(
            f"precision {precision} exceeds the {stieltjes.digits} digits of the Stieltjes table"
        )
    work = min(precision + guard_digits(n_max), stieltjes.digits)
    with mp.workdps(work + 10):
        coeffs = [mpmath.mpf(1)]
        fact = mpmath.mpf(1)
        for k in range(0, n_max):
            if k > 0:
                fact *= k
            sign = -1 if k % 2 else 1
            coeffs.append(sign * stieltjes.gamma(k).value / fact)
        logged = series_log(series_compose_zmap(coeffs))
    return tuple(BigReal(c, precision) for c in logged)


def trend_series(n_max: int, precision: int = DEFAULT_DIGITS) -> Tuple[BigReal, ...]:
    """Series with index-n coefficient lambda_trend(n)/n, n = 0..n_max.

    The trend is [z^n] log(s * pi^(-s/2) * Gamma(s/2)); in u = s-1 the log is

        log(1+u) - ((1+u)/2) log pi + log Gamma((1+u)/2)

    whose Taylor coefficients come from polygamma values at 1/2:
    the u^1 coefficient is 1 - (log pi)/2 + psi(1/2)/2 and the u^k coefficient
    (k >= 2) is (-1)^(k+1)/k + psi^(k-1)(1/2) / (2^k k!) =
    (-1)^k ((1 - 2^-k) zeta(k) - 1) / k, from one ``zeta_ints`` pass.  The
    constant term vanishes (log Gamma(1/2) = (log pi)/2), so composition
    needs no log.
    """
    if n_max < 1:
        raise ValueError("trend_series needs n_max >= 1")
    work = precision + guard_digits(n_max)
    zetas = zeta_ints(n_max, work + 5)
    with mp.workdps(work + 10):
        coeffs = [mpmath.mpf(0)]
        coeffs.append(1 - log_pi(work).value / 2 + polygamma_half(0, work).value / 2)
        for k in range(2, n_max + 1):
            coeffs.append((-1) ** k * ((1 - mpmath.ldexp(1, -k)) * zetas[k] - 1) / k)
        z_series = series_compose_zmap(coeffs)
    return tuple(BigReal(c, precision) for c in z_series)


class LambdaTable(NamedTuple):
    """lambda(n) = trend + tiny for n = 1..n_max, plus the /n coefficients."""

    n_max: int
    precision: int
    trend: Tuple[BigReal, ...]  # index n in 1..n_max at position n-1
    tiny: Tuple[BigReal, ...]
    total: Tuple[BigReal, ...]

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 1..{self.n_max}")

    def trend_part(self, n: int) -> BigReal:
        self._check(n)
        return self.trend[n - 1]

    def tiny_part(self, n: int) -> BigReal:
        self._check(n)
        return self.tiny[n - 1]

    def lam(self, n: int) -> BigReal:
        self._check(n)
        return self.total[n - 1]

    def trend_over_n(self, n: int) -> BigReal:
        return self.trend_part(n) / n

    def tiny_over_n(self, n: int) -> BigReal:
        return self.tiny_part(n) / n

    def lam_over_n(self, n: int) -> BigReal:
        return self.lam(n) / n

    def tiny_history(self) -> List[BigReal]:
        """[0, lambda_tiny(1), ..., lambda_tiny(n_max)]; index = n."""
        return [BigReal(0, self.precision)] + list(self.tiny)

    def trend_history(self) -> List[BigReal]:
        return [BigReal(0, self.precision)] + list(self.trend)

    def lambda_history(self) -> List[BigReal]:
        return [BigReal(0, self.precision)] + list(self.total)


def lambda_table(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> LambdaTable:
    """Assemble lambda(n) = lambda_trend(n) + lambda_tiny(n) for n = 1..n_max.

    The total is formed as the exact sum of the two parts (not re-rounded
    independently), so total = trend + tiny holds identically.
    """
    tiny = tiny_series(n_max, precision, stieltjes)
    trend = trend_series(n_max, precision)
    trend_vals = []
    tiny_vals = []
    total_vals = []
    for n in range(1, n_max + 1):
        t_part = trend[n] * n
        s_part = tiny[n] * n
        trend_vals.append(t_part)
        tiny_vals.append(s_part)
        total_vals.append(t_part + s_part)
    return LambdaTable(
        n_max=n_max,
        precision=precision,
        trend=tuple(trend_vals),
        tiny=tuple(tiny_vals),
        total=tuple(total_vals),
    )


def lambda1_closed_form(precision: int = DEFAULT_DIGITS) -> BigReal:
    """lambda(1) = 1 + gamma/2 - (1/2) log(4 pi), the classical closed form."""
    with mp.workdps(precision + 10):
        log4pi = BigReal(mpmath.log(4 * mp.pi), precision)
    return BigReal(1, precision) + euler_gamma(precision) / 2 - log4pi / 2


class ScanRow(NamedTuple):
    n: int
    ratio: BigReal
    within_bound: bool


def conjecture_scan(
    n_max: int,
    precision: int = DEFAULT_DIGITS,
    stieltjes: Optional[StieltjesTable] = None,
) -> List[ScanRow]:
    """Test |lambda_tiny(n)/(n gamma)| <= 1 for n = 1..n_max.

    The ratio at n = 1 is identically 1, so the bound is tight there; the
    scan flags any n where the normalized tiny part escapes the unit bound.
    """
    series = tiny_series(n_max, precision, stieltjes)
    gamma = euler_gamma(precision)
    rows: List[ScanRow] = []
    for n in range(1, n_max + 1):
        ratio = series[n] / gamma if n > 1 else BigReal(1, precision)
        rows.append(ScanRow(n=n, ratio=ratio, within_bound=abs(ratio) <= 1))
    return rows
