"""Fundamental constants: Stieltjes coefficients, zeta at integers, polygamma.

The Stieltjes coefficients gamma_k (the Laurent coefficients of zeta about
s = 1) are loaded from a bundled table rather than recomputed: high-index
gamma_k are expensive, and a fixed table keeps results reproducible.  The
loader cross-validates the table's gamma_0 entry against an independently
computed Euler constant before anything downstream can consume it.

``zeta_ints`` gives zeta(2..K) as 2^wp-scaled ints, from one fixed-point
Euler-Maclaurin pass with an explicit error cutoff and no library zeta routine;
it shares each n^-k across k, and the weights B_2j/(2j)! (one lazily built
table per wp) with the probe's complex sum.  ``_elementary`` gives gamma, log 2
and log pi as such ints: gamma and log 2 computed here, cached per wp, and log pi
from libmp at explicit bits.  ``lambda_core``, ``recurrences.model_predictor``
and the probe consume the ints as they are; ``zeta_int``, ``polygamma_half`` and
``euler_gamma`` tag them; nothing reads mpmath's global context.  The module
imports only ``datafiles`` at load, so that ``load_stieltjes``, checking gamma_0
on exact rationals, loads no mpmath; the rest imports libmp and ``bigreal`` in
the function bodies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from .datafiles import (DEFAULT_DIGITS, default_stieltjes_path, exact_decimal, parse_indexed_table,
                        table_digits)

if TYPE_CHECKING:
    from .bigreal import BigReal


class ConstantsError(ValueError):
    """Raised for unusable constants tables or out-of-domain requests."""


@lru_cache(maxsize=None)
def _ln2_int(wp: int) -> int:
    """log 2 = 2 atanh(1/3) = sum_k 2 / ((2k + 1) 3^(2k+1)), floored at 2^wp from 30 guard bits."""
    total, power, k = 0, (1 << wp + 31) // 3, 1
    while power:
        total, power, k = total + power // k, power // 9, k + 2
    return total >> 30


@lru_cache(maxsize=None)
def _euler_int(wp: int) -> int:
    """Euler's constant floored at 2^wp from 30 guard bits, by Brent-McMillan (Math. Comp. 34
    (1980)): gamma = U/V with U = sum A_k, V = sum B_k, B_k = (n^k/k!)^2, A_k = B_k (H_k - log n),
    within pi e^(-4n); n = 2^m, so log n = m log 2."""
    prec = wp + 30
    m = (prec * 7 // 40).bit_length()  # 2^m > prec log(2) / 4
    nn, k, a, b = 1 << 2 * m, 1, -m * _ln2_int(prec), 1 << prec
    u, v = a, b
    while abs(a) >= 100 or b >= 100:
        b = b * nn // (k * k)
        a = (a * nn // k + b) // k
        u, v, k = u + a, v + b, k + 1
    return (u << wp) // v


def _elementary(wp: int) -> Tuple[int, int, int]:
    """(gamma, log 2, log pi) * 2^wp, each within a few units of its last place;
    a value tagged P takes wp = the bits of P + 15 digits."""
    from mpmath.libmp import mpf_log, mpf_pi, to_fixed
    return _euler_int(wp), _ln2_int(wp), to_fixed(mpf_log(mpf_pi(wp + 10), wp + 10), wp)


def euler_gamma(precision: int = DEFAULT_DIGITS) -> BigReal:
    """Euler's constant at the requested precision."""
    from .bigreal import _bits, _fixed
    wp = _bits(precision + 10)  # the bits of precision + 15 digits
    return _fixed(_euler_int(wp), wp, precision)


class StieltjesTable(NamedTuple):
    """Stieltjes coefficients gamma_0..gamma_{k_max} at a common digit count.

    ``entries`` holds the file's text, checked by ``load_stieltjes``; ``gamma(k)``
    reads entry k's exact value when it is asked for, and the caller rounds it
    once at its own bits.  ``tiny_series`` alone decides which entries, at how
    many digits, a lambda request may read."""

    entries: Dict[int, str]
    digits: int

    @property
    def k_max(self) -> int:
        return max(self.entries)

    def gamma(self, k: int) -> Fraction:
        try:
            return exact_decimal(self.entries[k])
        except KeyError:
            raise ConstantsError(
                f"Stieltjes table covers k <= {self.k_max}; gamma_{k} missing"
            ) from None


def load_stieltjes(path: Optional[Path] = None) -> StieltjesTable:
    """Load and validate a Stieltjes-coefficient table.

    Checked here, before any entry is read: each row is an index and one plain
    decimal, and the digit count is at least ``MIN_DIGITS`` (``datafiles``);
    the indices run from 0 without a gap; and gamma_0 agrees with an
    independently computed Euler constant to the table's digit count (minus a
    2-digit margin for the table's own final-place rounding), since a wrong
    gamma_0 poisons every downstream coefficient; exactly, |gamma_0 - gamma| <
    1/2 10^-(digits-2).  Only gamma_0 is read here; the entries keep the text.
    """
    if path is None:
        path = default_stieltjes_path()
    metadata, rows = parse_indexed_table(path)
    digits = table_digits(path, metadata, rows, ConstantsError)
    for expected, (index, _) in enumerate(rows):
        if index != expected:
            raise ConstantsError(
                f"{path}: Stieltjes indices must be contiguous from 0; "
                f"expected {expected}, found {index}"
            )
    table = StieltjesTable(entries=dict(rows), digits=digits)
    wp = 4 * digits + 50  # gamma floored at 2^-wp, far below the margin
    gamma = Fraction(_euler_int(wp), 1 << wp)
    if abs(table.gamma(0) - gamma) >= Fraction(1, 2 * 10 ** (digits - 2)):
        from .bigreal import BigReal
        gamma0, reference = BigReal(table.gamma(0), digits), euler_gamma(digits)
        raise ConstantsError(
            f"{path}: gamma_0 entry {gamma0.digits_str(20)} does not match "
            f"the Euler constant {reference.digits_str(20)}"
        )
    return table


_BERNOULLI_WEIGHTS: Dict[int, List[int]] = {}  # wp -> [weight 1, weight 2, ...]


def bernoulli_weight(j: int, wp: int) -> int:
    """B_2j/(2j)! (j >= 1) as a 2^wp-scaled int, from one table per wp that all
    Euler-Maclaurin tails share and that grows on demand, never at import."""
    table = _BERNOULLI_WEIGHTS.setdefault(wp, [])
    if j > len(table):
        from mpmath.libmp import bernfrac, ifac
        for i in range(len(table) + 1, j + 1):
            num, den = bernfrac(2 * i)
            # a slice, not append: two threads filling entry i store the same value
            table[i - 1 : i] = [((num << (wp + 1)) // (den * ifac(2 * i)) + 1) >> 1]
    return table[j - 1]


def zeta_ints(k_max: int, precision: int = DEFAULT_DIGITS) -> Tuple[int, Dict[int, int]]:
    """(wp, {k: zeta(k) * 2^wp}) for every integer 2 <= k <= k_max from one
    fixed-point pass.

    Euler-Maclaurin with N = max(10, precision) direct terms, n^-k one integer
    division of n^-(k-1).  Each k's tail adds c_j q_j, c_j = B_2j/(2j)!,
    q_j = k (k+1) ... (k+2j-2) N^(-k-2j+1), until a term is below
    10^-(precision+10).  wp is the bits of precision + 15 digits plus 10, and
    each int is within 10^-(precision+10) * 2^wp of its exact value.
    """
    from mpmath.libmp import dps_to_prec
    if not isinstance(k_max, int) or k_max < 1:
        raise ConstantsError(f"zeta_ints needs an integer k_max >= 1, got {k_max!r}")
    wp, N = dps_to_prec(precision + 15) + 10, max(10, precision)
    one, target = 1 << wp, (1 << wp) // 10 ** (precision + 10)
    sums = [one] * (k_max + 1)  # sum over n < N of n^-k; n = 1 gives one
    for n in range(2, N):
        power = one
        for k in range(1, k_max + 1):
            power //= n
            sums[k] += power
    values = {}
    for k in range(2, k_max + 1):
        power = one // N**k
        total = sums[k] + N * power // (k - 1) + power // 2
        q, previous = k * power // N, None
        for j in range(1, 200):
            term = bernoulli_weight(j, wp) * q >> wp
            total += term
            if abs(term) < target:
                break
            if previous is not None and abs(term) >= previous:
                raise ConstantsError(f"zeta({k}) correction terms stopped converging at j={j}")
            previous = abs(term)
            q = q * ((k + 2 * j - 1) * (k + 2 * j)) // (N * N)
        else:  # pragma: no cover - loop bound generous
            raise ConstantsError(f"zeta({k}) did not reach target precision")
        values[k] = total
    return wp, values


def zeta_int(k: int, precision: int = DEFAULT_DIGITS) -> BigReal:
    """zeta(k) for integer k >= 2 (``zeta_ints`` at one k)."""
    from .bigreal import _fixed
    if not isinstance(k, int) or k < 2:
        raise ConstantsError(f"zeta_int needs an integer k >= 2, got {k!r}")
    wp, values = zeta_ints(k, precision)
    return _fixed(values[k], wp, precision)


def polygamma_half(k: int, precision: int = DEFAULT_DIGITS) -> BigReal:
    """psi^(k)(1/2): digamma and its derivatives at one half.

    Closed forms: psi(1/2) = -gamma - 2 log 2, and for k >= 1

        psi^(k)(1/2) = (-1)^(k+1) * k! * (2^(k+1) - 1) * zeta(k+1),

    an exact integer multiple of ``zeta_ints``' fixed-point value.
    """
    from .bigreal import _bits, _fixed
    if not isinstance(k, int) or k < 0:
        raise ConstantsError(f"polygamma_half needs an integer k >= 0, got {k!r}")
    if k == 0:  # one rounding of the ints, as euler_gamma makes
        wp = _bits(precision + 10)
        gamma, log2, _ = _elementary(wp)
        return _fixed(-(gamma + 2 * log2), wp, precision)
    wp, values = zeta_ints(k + 1, precision + 5)
    factor = (-1) ** (k + 1) * factorial(k) * ((2 << k) - 1)
    return _fixed(factor * values[k + 1], wp, precision)
