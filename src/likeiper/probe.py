"""Sampling the normalized log-derivative map along lines in the s-plane.

The map under investigation is

    f(s) = (1/gamma) * s * (s-1) * d/ds log((s-1) zeta(s))
         = (1/gamma) * (s + s (s-1) zeta'(s)/zeta(s)),

whose Taylor coefficients in the disk variable z (s = 1/(1-z)) are the
normalized tiny coefficients n * a_n.  Univalence of f on half-plane lines
would transfer growth bounds to those coefficients, so this module samples f
along such lines and reports a *sampled-injectivity* diagnostic: two samples
whose parameters are more than one grid step apart but whose f values are
closer than a tolerance constitute a near-collision.  No flags means the
line passed the diagnostic — a heuristic, not a proof.

The complex zeta evaluation is a self-contained Euler-Maclaurin sum (the
rest of the package only ever needs zeta at real integers), its N direct
terms and M corrections chosen together from its remainder bound, so that N
grows with the digits and |s|/(2 pi).  zeta'(s) comes out of the same pass,
differentiated analytically term by term, so each sample of f costs one
sum; there are no finite differences.

The sum runs in fixed point on scalar 2^wp-scaled ints (the idiom of F.
Johansson, Numer. Algorithms 69 (2015)): a smallest-prime-factor sieve leaves
exp and cos/sin to primes, Re s < 0 lifts wp by the digits the direct terms
cancel and s near 1 by the bits s - 1, formed exactly, costs in the pole term,
and the weights B_2j/(2j)! come from ``constants``' table.
A non-finite point, or one whose N or lift passes ``_MAX_TERMS`` or
``_MAX_LIFT_DIGITS``, is refused with ``ProbeEvaluationError`` before any work.
A probe line keeps one state: each grid point's M and lift, sized once, and one
N, the largest, at which each per-wp table is built: the sieve and log n, the
tail's multipliers c_(j+1)/(c_j N^2) and the primes <= N; per wp also 1/gamma
and the budget's powers of ten; and each prime's power, stepped as p^(-s') =
p^(-s) p^(-delta) for the exact difference delta of the points.  p^(-delta)
comes from exp and cos/sin once per prime and distinct delta, of which a float
grid has few, and log once per prime and wp.  f follows on the same ints: a
line's points enter as the exact mpf parts of their floats, |s - 1| < 10^-6 is
decided on those ints, zeta'/zeta is one integer complex division, and each
part of f is rounded once, into the ``BigReal`` a sample keeps, tagged for the
places asked for.  A sample's working digits come from its propagated error
budget, absolute for a line's printed places and relative to |f| for
``f_eval``, with one retry where the first pass falls short.  mpc
appears only where ``zeta_complex``, ``zeta_deriv`` and ``f_eval`` take and
return values.
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_float, from_man_exp, log_int_fixed, mpf_abs,
                          mpf_cos_sin, mpf_exp, round_nearest, to_fixed, to_float)

from .bigreal import BigReal, _checked, _fixed, _places_tag
from .constants import _euler_int, bernoulli_weight

DEFAULT_PROBE_DIGITS = 30

#: Caps on one zeta evaluation, checked before any list is built: the direct
#: terms N, which grow with the digits and |s|, and the digits that Re s < 0
#: lifts the working precision by, or that a sample's error budget adds to the
#: digits asked for.  A point past either is refused.
_MAX_TERMS = 100_000
_MAX_LIFT_DIGITS = 10_000

ComplexLike = Union[complex, mpmath.mpc, mpmath.mpf, int, float]


class ProbeEvaluationError(ValueError):
    """Raised when f cannot be trusted at a point (pole or zero proximity)."""


def _mul(a: Sequence[int], b: Sequence[int], wp: int) -> Tuple[int, int]:
    """a * b for complex numbers held as (re, im) pairs of 2^wp-scaled ints."""
    return (a[0] * b[0] - a[1] * b[1]) >> wp, (a[0] * b[1] + a[1] * b[0]) >> wp


def _power(log_n: int, re: int, im: int, wp: int) -> Tuple[int, int]:
    """n^(-(re + i im)) from log n, in fixed point; a zero part costs no exp or cos/sin."""
    mag = to_fixed(mpf_exp(from_man_exp(-re * log_n >> wp, -wp), wp), wp) if re else 1 << wp
    if not im:
        return mag, 0
    cos, sin = mpf_cos_sin(from_man_exp(-im * log_n >> wp, -wp), wp)
    return mag * to_fixed(cos, wp) >> wp, mag * to_fixed(sin, wp) >> wp


def _size(s: Tuple[tuple, tuple], work: int) -> Tuple[int, int, float]:
    """M, N and -min(Re s, 0), for ``_zeta_fixed`` at ``work`` digits."""
    L = (work + 5) * math.log(10)
    # the bound reads Re s in [-4 _MAX_LIFT_DIGITS, L] and |Im s| up to 7 _MAX_TERMS as
    # floats; past those ends a point is refused, or its first correction is below target
    sig = min(max(to_float(s[0], rnd=round_nearest), -4.0 * _MAX_LIFT_DIGITS), L)
    t = min(to_float(mpf_abs(s[1]), rnd=round_nearest), 7.0 * _MAX_TERMS)
    M = math.ceil(L / 5 + math.sqrt(L * t) / 6 - min(sig, 0.0))
    m, log_prod = 2 * M - 1, 0.0
    for i0, i1 in ((m * k // 4, m * (k + 1) // 4) for k in range(4)):  # runs of i < m
        mid = sig + (i0 + i1 - 1) / 2
        log_prod += (i1 - i0) / 2 * math.log(1 + t * t + mid * mid + ((i1 - i0) ** 2 - 1) / 12)
    exponent = (L + math.log(4 * (m + 12)) + log_prod - (m + 1) * math.log(2 * math.pi)) / (m + sig)
    N = math.ceil(max(math.exp(min(exponent, 50.0)), (math.hypot(sig, t) + m) / (2 * math.pi), 2))
    return M, N, max(0.0, -sig)


def _zeta_fixed(s: Tuple[tuple, tuple], work: int, line: dict,
                guard: int) -> Tuple[int, Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
    """wp, s, zeta(s) and zeta'(s) as (re, im) pairs of 2^wp-scaled ints, from one
    Euler-Maclaurin pass in fixed point; ``s`` is a pair of raw mpf tuples, and
    ``work`` the working digits: precision + 15 for ``zeta_complex`` and
    ``zeta_deriv``, what its error budget asks for in a probe sample.

    N direct terms, then Bernoulli corrections c_j P_j N^(-s) (c_j = B_2j/(2j)!,
    P_j = s (s+1) ... (s+2j-2) N^(1-2j)) until one is below 10^-(work+5).  As
    |c_j| <= 4 (2 pi)^(-2j), the j-th and its s-derivative are at most 4 (2j - 1
    + log N) N^(1 - Re s) prod_{i<2j-1} (|s+i|^2 + 1)^(1/2) / (2 pi N)^(2j), the
    product bounded by Jensen's inequality on 4 runs of i.  They stop by j = M =
    L/5 + (L |Im s|)^(1/2)/6 - min(Re s, 0), L = (work + 5) log 10, which weighs
    their cost (2.5 direct terms each) against N's; N is the least with the
    bound at M below the target and at least (|s| + 2M)/(2 pi), so they
    decrease.  zeta' is taken term by term: -log(n) n^(-s) and c_j Q_j N^(-s),
    Q_j = P_j' - log(N) P_j.  The tail carries c_j P_j and c_j Q_j, stepped by
    r_j = c_(j+1)/(c_j N^2), so a small c_j costs no precision.  |c_(j+1)/c_j| >=
    1/60 and N^2 < 2^(2b), b = N's bit length, so r_j held to 2^-(wp + 2b) is
    within a relative 2^(6-wp): each step adds at most that and one unit of 2^-wp.

    Past Re s = 2 wp the terms past n = 1 are 0 at wp: zeta = 1, zeta' = 0 exactly.

    ``line``, one probe line's state, keeps each prime's last p^(-s), s and
    wp; a prime with none at this wp (first evaluated sample, new lift) steps
    from p^0 = 1; a grid point's M, N and -min(Re s, 0) are kept under (s,
    work); the line's largest N within ``_MAX_TERMS``, under "N", is every
    point's N, so they share the primes and wp.  p^(-delta), delta the exact
    fixed-point difference, comes from ``_power`` and is kept under (p, delta re,
    delta im, wp); the float grid lo + i step has few distinct deltas.  Lines run
    lo -> hi, so |p^(-delta)| <= 1 and k steps add O(k) ulps, which ``guard``, the
    step count's bit length, absorbs.  Each per-wp table is built at the state's
    one N: the sieve and log n under ("log", wp), the r_j, M of them, and the
    primes <= N under ("tail", wp).
    """
    M, N, cancel = line.get((s, work)) or _size(s, work)
    N = max(N, line.get("N", 0))
    n_bits = N.bit_length()  # absorb N roundings of |s| log N ulps each
    # Direct terms reach N^(-Re s) and cancel, so Re s < 0 lifts the digits.  N grows
    # with -Re s too, so a point past both caps is refused for its lift.
    lift = cancel * math.log10(N)
    pole = _near_pole(s)  # |s - 1| = r^(1/2) 2^-k >= 2^-a: s - 1 at wp is off by 2^(a - wp)
    if pole:  # relative, so a lifts wp, less the 2 n_bits + 10 bits wp has over its target
        if not pole[0]:
            raise ProbeEvaluationError("zeta has its pole at s = 1")
        lift = max(0, pole[1] - (pole[0].bit_length() - 1) // 2 - 2 * n_bits - 10) * math.log10(2)
    if N > _MAX_TERMS or lift > _MAX_LIFT_DIGITS:
        near = "s near 1" if pole else "Re s < 0"
        need = (f"more than {_MAX_LIFT_DIGITS} extra digits for {near}" if lift > _MAX_LIFT_DIGITS
                else f"more than {_MAX_TERMS} direct terms")
        raise ProbeEvaluationError(f"zeta evaluation at {_where(s)} needs {need}")
    wp = dps_to_prec(work + 5 + math.ceil(lift)) + 2 * n_bits + 10 + guard
    one = 1 << wp
    sre, sim = to_fixed(s[0], wp), to_fixed(s[1], wp)
    if sre >= 2 * wp * one:  # every term past n = 1 is below 2^-2wp, so 0 at wp, as in the sum
        return wp, (sre, sim), (one, 0), (0, 0)
    spf, logs = line.get(("log", wp), ((), ()))
    if len(spf) <= N:  # log n: log_int_fixed at primes, one add per composite
        spf, logs = list(range(N + 1)), [0, 0]
        for p in range(2, math.isqrt(N) + 1):
            spf[p * p :: p] = [min(q, p) for q in spf[p * p :: p]]
        for n in range(2, N + 1):
            logs.append(log_int_fixed(n, wp) if spf[n] == n else logs[spf[n]] + logs[n // spf[n]])
        line[("log", wp)] = spf, logs
    # n^(-s) = x + i y for n <= N: exp and cos/sin at primes, one multiply per composite
    xs, ys = [0, one], [0, 0]
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            held = line.get(n)  # the multiply by p^0 = 1 is exact
            held = held if held and held[2] == wp else (0, 0, wp, one, 0)
            step = (n, sre - held[0], sim - held[1], wp)
            if step not in line:
                line[step] = _power(logs[n], *step[1:])
            (a, b), (c, d) = held[3:], line[step]
        else:
            a, b, c, d = xs[p], ys[p], xs[n // p], ys[n // p]
        xs.append((a * c - b * d) >> wp)
        ys.append((a * d + b * c) >> wp)
    key = "tail", wp
    multipliers, primes = line.get(key, ((), ()))
    if len(multipliers) < M:  # |c_j| > 2^(1 - 5.31 j): at 2^(wp + 6 (M // 32 + 1) 32) c_j keeps wp bits
        c = [bernoulli_weight(j, wp + 6 * (M // 32 + 1) * 32) for j in range(1, M + 2)]
        r = [(b << wp + 2 * N.bit_length()) // (a * N * N) for a, b in zip(c, c[1:])]
        multipliers, primes = line[key] = r, [p for p in range(2, N + 1) if spf[p] == p]
    line.update((p, (sre, sim, wp, xs[p], ys[p])) for p in primes)
    z = sum(xs[:N]), sum(ys[:N])
    dz = [-sum(map(operator.mul, logs, v[:N])) >> wp for v in (xs, ys)]

    # The rest has the factor w = N^(-s), applied at the end: w (N/(s-1) + 1/2),
    # s-derivative -w (N/(s-1) (log N + 1/(s-1)) + log(N)/2), and corrections.
    log_N, w = logs[N], (xs[N], ys[N])
    den = (sre - one) ** 2 + sim * sim
    inv = ((sre - one) << 2 * wp) // den, (-sim << 2 * wp) // den  # 1/(s-1)
    d_inv = _mul(inv, (log_N + inv[0], inv[1]), wp)
    tr, ti = N * inv[0] + one // 2, N * inv[1]
    dtr, dti = -N * d_inv[0] - log_N // 2, -N * d_inv[1]
    # |term|^2 |w|^2 < target^2 as |term|^2 < bound, exact for integer |term|^2
    limit, w2 = (one // 10 ** (work + 5)) ** 2 << 2 * wp, w[0] * w[0] + w[1] * w[1]
    bound = -(-limit // w2) if w2 else math.inf
    shift, s2 = 2 * wp + 2 * N.bit_length(), 2 * sim
    # T_j = c_j P_j and U_j = c_j Q_j from T_1 = s/(12 N) and U_1 = (1 - s log N)/(12 N);
    # a = s + 2j - 1, b = a + 1: ab = a (a + 1) and a + b advance by additions
    p0, p1, a, previous = sre // (12 * N), sim // (12 * N), sre + one, None
    q0, q1 = (one - (log_N * sre >> wp)) // (12 * N), -(log_N * sim >> wp) // (12 * N)
    ab0, ab1, apb = (a * (a + one) - sim * sim) >> wp, (2 * a + one) * sim >> wp, 2 * a + one
    for j in range(1, M + 1):
        tr, ti, dtr, dti = tr + p0, ti + p1, dtr + q0, dti + q1
        magnitude = p0 * p0 + p1 * p1
        if magnitude < bound and q0 * q0 + q1 * q1 < bound:
            break
        if previous is not None and magnitude > previous:
            raise ProbeEvaluationError(f"zeta evaluation at {_where(s)} stopped converging (j={j}); "
                                       "point too far outside the supported region")
        previous, r = magnitude, multipliers[j - 1]
        # T <- r T ab, U <- r (U ab + T (a + b)), r = c_(j+1)/(c_j N^2)
        x0, x1 = p0 * ab0 - p1 * ab1, p0 * ab1 + p1 * ab0
        y0, y1 = q0 * ab0 - q1 * ab1 + p0 * apb - p1 * s2, q0 * ab1 + q1 * ab0 + p0 * s2 + p1 * apb
        p0, p1, q0, q1 = x0 * r >> shift, x1 * r >> shift, y0 * r >> shift, y1 * r >> shift
        ab0, ab1, apb = ab0 + 2 * apb + 4 * one, ab1 + 2 * s2, apb + 4 * one
    else:
        raise ProbeEvaluationError(f"zeta evaluation at {_where(s)} missed the precision target")
    (wr, wi), (dwr, dwi) = _mul(w, (tr, ti), wp), _mul(w, (dtr, dti), wp)
    return wp, (sre, sim), (z[0] + wr, z[1] + wi), (dz[0] + dwr, dz[1] + dwi)


def _near_pole(s: Tuple[tuple, tuple]) -> Optional[Tuple[int, int]]:
    """(r, k) with |s - 1|^2 = r 4^-k, on the ints of the raw mpf parts, for s in the window
    Re s in [1/2, 2), |Im s| <= 2^-18, else None; exact on Re s = 1.  Off it x = Re s - 1 is on
    a 2^e grid, and an Im s under 2^(e-20) is dropped: it moves |s - 1| by under 2^-40 of itself
    and, as x^2 = 10^-12 misses by 2^(2e+12) 10^-12, cannot turn |s - 1| < 10^-6."""
    (sx, mx, ex, bx), (_, my, ey, by) = s
    if sx or ex + bx not in (0, 1) or my and ey + by > -18:  # Re s outside [1/2, 2), |Im s| > 2^-18
        return None
    if (mx, ex) == (1, 0):  # Re s = 1: s - 1 = i Im s
        return my * my, -ey
    if not my or ey + by < ex - 20:
        my, ey = 0, ex
    k = max(-ex, -ey)
    x, y = (mx << ex + k) - (1 << k), my << ey + k
    return x * x + y * y, k


def _where(s: Tuple[tuple, tuple]) -> str:
    """``s`` for a message: as a Python complex where its parts are floats, else by ``nstr``."""
    z = mp.make_mpc(s)
    return str(complex(z)) if complex(z) == z else mpmath.nstr(z, 15)


def _point(s: ComplexLike, precision: int) -> Tuple[tuple, tuple]:
    """An API argument as the engine's finite raw (re, im) pair at precision + 15 digits."""
    parts = (s.real, s.imag) if isinstance(s, (complex, mpmath.mpc)) else (s, 0)
    point = tuple(mpmath.mpf(x, dps=precision + 15, rounding=round_nearest)._mpf_ for x in parts)
    if any(not man and exp for _, man, exp, _ in point):  # inf and nan have no mantissa
        raise ProbeEvaluationError(f"cannot evaluate at the non-finite point {s!r}")
    return point


def _mpc(v: Sequence[int], wp: int, precision: int) -> mpmath.mpc:
    """A pair of 2^wp-scaled ints as an mpc, each part rounded once at precision + 15 digits."""
    prec = dps_to_prec(precision + 15)
    return mp.make_mpc(tuple(from_man_exp(x, -wp, prec, round_nearest) for x in v))


def _zeta_and_deriv(s: ComplexLike, precision: int) -> Tuple[mpmath.mpc, mpmath.mpc]:
    """zeta(s) and zeta'(s) from ``_zeta_fixed``, converted at the API boundary."""
    wp, _, z, dz = _zeta_fixed(_point(s, precision), precision + 15, {}, 0)
    return _mpc(z, wp, precision), _mpc(dz, wp, precision)


def zeta_complex(s: ComplexLike, precision: int = DEFAULT_PROBE_DIGITS) -> mpmath.mpc:
    """zeta(s) for complex s by Euler-Maclaurin summation."""
    return _zeta_and_deriv(s, precision)[0]


def zeta_deriv(s: ComplexLike, precision: int = DEFAULT_PROBE_DIGITS) -> mpmath.mpc:
    """zeta'(s), differentiated analytically term by term in the same
    Euler-Maclaurin pass that gives zeta(s) (no finite differences)."""
    return _zeta_and_deriv(s, precision)[1]


def f_eval(s: ComplexLike, precision: int = DEFAULT_PROBE_DIGITS) -> mpmath.mpc:
    """The normalized map f(s) = (1/gamma)(s + s(s-1) zeta'(s)/zeta(s)).

    Rejects points too close to s = 1 (the formula has a 0/0 there; the
    analytic continuation exists but the quotient form does not) and points
    where |zeta(s)| < 10^(-precision/2) (log-derivative blows up near a
    zero, and roundoff with it).  It is a one-point line of ``_f_on_line`` whose
    budget is relative to |f|, as its value holds precision + 15 significant digits.
    """
    wp, f = _f_on_line(_point(s, precision), precision, {}, 0)
    return _mpc(f, wp, precision)


def _f_on_line(s: Tuple[tuple, tuple], precision: int, line: dict,
               guard: int) -> Tuple[int, Tuple[int, int]]:
    """wp and f(s) as 2^wp-scaled ints for a sample of a probe line (``s``, ``line`` and
    ``guard`` as in ``_zeta_fixed``): at precision + 3 working digits, then once more at the
    digits its error budget asks for if those are more (A. Ziv, ACM TOMS 17 (1991)), from a
    fresh state that leaves the line's alone.  A sample whose retry still misses its budget,
    or that asks for more than ``_MAX_LIFT_DIGITS`` extra digits, is refused."""
    if (pole := _near_pole(s)) and (pole[0] * 10**12).bit_length() <= 2 * pole[1]:  # |s-1| < 10^-6
        raise ProbeEvaluationError(f"s = {_where(s)} too close to s = 1 for the quotient form")
    work, absolute = precision + 3, "N" in line  # a line's state has "N"; its cells print places
    for line, guard in (line, guard), ({}, 0):
        wp, (sre, sim), (zr, zi), (dzr, dzi) = _zeta_fixed(s, work, line, guard)
        den, one, key = zr * zr + zi * zi, 1 << wp, ("budget", wp, work, precision)
        if key not in line:  # 1/gamma, e (below), |zeta|^2's floor, f's floor, 20 10^precision
            line[key] = ((one << wp) // _euler_int(wp), one // 10 ** (work + 4) + 1,
                         -(-one * one // 100 ** (precision // 2)), one // 10**precision,
                         20 * 10**precision)
        inv_gamma, e, floor, tiny, scale = line[key]
        if den < floor:
            raise ProbeEvaluationError(f"|zeta({_where(s)})| below safe floor 1e-{precision // 2} "
                                       "(too near a zero)")
        q = ((dzr * zr + dzi * zi) << wp) // den, ((dzi * zr - dzr * zi) << wp) // den  # zeta'/zeta
        a = _mul((sre, sim), (sre - one, sim), wp)  # s (s - 1)
        fr, fi = _mul(a, q, wp)
        fr, fi = (fr + sre) * inv_gamma >> wp, (fi + sim) * inv_gamma >> wp
        # The budget in units of 2^-wp, on |re| + |im| >= |x| >= max(|re|, |im|): zeta and
        # zeta' within e = 10^-(work+4), ten times the engine's target, put zeta'/zeta within
        # dq = (e + |q| e)/(|zeta| - e), and f within 2 |s(s-1)| dq (1/gamma < 2) plus roundings.
        a, q = abs(a[0]) + abs(a[1]) + 2, abs(q[0]) + abs(q[1]) + 2
        a = a if sre < 2 * wp * one else 0  # zeta'/zeta = 0 exactly, s(s-1) zeta'/zeta < 2^-wp
        dq = e * (one + q) // (max(abs(zr), abs(zi)) - e) + 1
        err = scale * (2 * (a * dq + 2 * (a + q) + abs(fr) + abs(fi) >> wp) + 8)
        # 20 |df| <= 10^-precision max(|f|, 10^-precision), |f| capped at 1 on a line
        allowed = min(one if absolute else math.inf, max(abs(fr), abs(fi), tiny))
        if err <= allowed:
            return wp, (fr, fi)
        # err falls as 10^-work and err/allowed < 2^bits (1234/4096 > log10 2): one digit more
        work += 1 - (-(err.bit_length() - allowed.bit_length() + 1) * 1234 >> 12)
        if work > precision + _MAX_LIFT_DIGITS:
            break
    raise ProbeEvaluationError(f"f at {_where(s)} needs about {work} working digits,"
                               f" more than one retry or {_MAX_LIFT_DIGITS} extra digits allow")


VARY_RE = "re"
VARY_IM = "im"


class ComplexSample(NamedTuple):
    param: float
    f_re: BigReal
    f_im: BigReal


class SampleFailure(NamedTuple):
    param: float
    reason: str


class NearCollision(NamedTuple):
    param1: float
    param2: float
    distance: float


class LineProbeReport(NamedTuple):
    requested_samples: int
    grid_step: float
    samples: Tuple[ComplexSample, ...]
    failures: Tuple[SampleFailure, ...]
    near_collisions: Tuple[NearCollision, ...]

    @property
    def sampled_injective(self) -> bool:
        return len(self.near_collisions) == 0


def _near_collisions(points: Sequence[Tuple[float, complex]], step_gate: float,
                     tol: float) -> Tuple[NearCollision, ...]:
    """Pairs a < b of (param, f) points with |f_a - f_b| < tol and
    |param_a - param_b| > step_gate, in (a, b) order.

    A sweep over the points sorted by Re f: |f_a - f_b| >= |Re f_a - Re f_b|
    in floats too, so each point's partners lie before the first later one
    whose real gap reaches tol.  Each pair is met once, in either order.
    """
    order = sorted(range(len(points)), key=lambda k: points[k][1].real)
    pairs = []
    for i, a in enumerate(order):
        pa, fa = points[a]
        for k in range(i + 1, len(order)):
            b = order[k]
            pb, fb = points[b]
            if fb.real - fa.real >= tol:
                break
            if abs(pa - pb) > step_gate and abs(fa - fb) < tol:
                pairs.append((min(a, b), max(a, b)))
    pairs.sort()
    return tuple(
        NearCollision(points[a][0], points[b][0], abs(points[a][1] - points[b][1]))
        for a, b in pairs
    )


def line_probe(
    kind: str,
    fixed: float,
    lo: float,
    hi: float,
    samples: int = 200,
    precision: int = DEFAULT_PROBE_DIGITS,
    tol: float = 1e-6,
) -> LineProbeReport:
    """Sample f along a line and flag near-collisions.

    ``kind`` = "re": s = b + i*fixed with b running over [lo, hi];
    ``kind`` = "im": s = fixed + i*t with t running over [lo, hi].
    A near-collision is a pair of successful samples with
    |f1 - f2| < tol while |param1 - param2| > grid step (adjacent samples
    get close by continuity alone, so they never count).  Individual
    evaluation failures (pole or zero proximity) are recorded, not fatal,
    but a verdict needs a pair to compare: fewer than two evaluated samples,
    or evaluated samples that are all grid neighbours (always the case with
    ``samples=2``), raise ``ProbeEvaluationError``.
    """
    _checked(precision)
    if kind not in (VARY_RE, VARY_IM):
        raise ValueError(f"kind must be '{VARY_RE}' or '{VARY_IM}', got {kind!r}")
    if samples < 2:
        raise ValueError("line_probe needs samples >= 2")
    if not all(math.isfinite(x) for x in (fixed, lo, hi)):
        raise ValueError(
            f"line_probe needs a finite line, got fixed={fixed!r}, range [{lo!r}, {hi!r}]"
        )
    if not hi > lo:
        raise ValueError("line_probe needs hi > lo")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"line_probe needs a finite tol > 0, got {tol!r}")
    grid_step = (hi - lo) / (samples - 1)
    collected: List[ComplexSample] = []
    failures: List[SampleFailure] = []
    params = [lo + i * grid_step for i in range(samples)]
    # floats are exact as mpf tuples: the points need no rounding
    points = [tuple(map(from_float, (p, fixed) if kind == VARY_RE else (fixed, p))) for p in params]
    # see _zeta_fixed: each point's size at a first pass's digits, the largest N, the step count's bits
    sizes = {(point, precision + 3): _size(point, precision + 3) for point in points}
    line = dict(sizes, N=max([N for _, N, _ in sizes.values() if N <= _MAX_TERMS], default=0))
    guard = (samples - 1).bit_length()
    for param, point in zip(params, points):
        try:
            wp, f = _f_on_line(point, precision, line, guard)
        except ProbeEvaluationError as exc:
            failures.append(SampleFailure(param=param, reason=str(exc)))
            continue
        f_re, f_im = (_fixed(x, wp, _places_tag(precision, abs(x) >> wp)) for x in f)
        collected.append(ComplexSample(param=param, f_re=f_re, f_im=f_im))
    if len(collected) < 2:
        raise ProbeEvaluationError(
            f"only {len(collected)} of {samples} samples evaluated, so no pair can be "
            f"compared; first failure at {failures[0].param!r}: {failures[0].reason}"
        )
    step_gate = grid_step * (1 + 1e-9)
    if collected[-1].param - collected[0].param <= step_gate:
        raise ProbeEvaluationError(
            f"the {len(collected)} evaluated samples of {samples} are all grid neighbours, "
            "so no pair more than one grid step apart can be compared"
        )
    # Pair search in plain floats: tol is far above double roundoff.
    points = [(c.param, complex(float(c.f_re), float(c.f_im))) for c in collected]
    return LineProbeReport(
        requested_samples=samples,
        grid_step=grid_step,
        samples=tuple(collected),
        failures=tuple(failures),
        near_collisions=_near_collisions(points, step_gate, tol),
    )
