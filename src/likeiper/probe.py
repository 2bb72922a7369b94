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
Johansson, Numer. Algorithms 69 (2015)): a smallest-prime-factor sieve
leaves exp and cos/sin to primes, Re s < 0 lifts wp by the digits the direct
terms cancel, and the weights B_2j/(2j)! come from ``constants``' table.
A non-finite point, or one whose N or lift passes ``_MAX_TERMS`` or
``_MAX_LIFT_DIGITS``, is refused with ``ProbeEvaluationError`` before any work.
A probe line keeps one state: the sieve and log n per wp, grown with N, and
each prime's power, stepped as p^(-s') = p^(-s) p^(-delta) for the exact
difference delta of the points.  A delta within float ulps of the prime's
last fresh one, delta0, nudges p^(-delta0) by a short Taylor series of
exp(-(delta - delta0) log p), so log runs once per prime and wp, and exp
and cos/sin about once per prime and line.  f follows on the same ints: a
line's points enter as the exact mpf parts of their floats, zeta'/zeta is
one integer complex division, and each part of f is rounded once, into the
``BigReal`` a sample keeps.  mpc appears only where ``zeta_complex``,
``zeta_deriv`` and ``f_eval`` take and return values.
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (dps_to_prec, fone, from_float, from_man_exp, ften, log_int_fixed, mpc_abs,
                          mpc_sub_mpf, mpf_abs, mpf_cos_sin, mpf_exp, mpf_lt, mpf_pow_int,
                          round_nearest, to_fixed, to_float)

from .bigreal import BigReal, _fixed
from .constants import _elementary, bernoulli_weight

DEFAULT_PROBE_DIGITS = 30

#: Caps on one zeta evaluation, checked before any list is built: the direct
#: terms N, which grow with the digits and |s|, and the digits that Re s < 0
#: lifts the working precision by.  A point past either is refused.
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


def _nudge(x: int, y: int, e0: int, e1: int, wp: int) -> Tuple[int, int]:
    """(x + i y) exp(e0 + i e1) for 2^wp-scaled |e0| + |e1| < 2^(wp-b), b >= 32: the
    Taylor terms below ceil(wp/b), each rounded once, leave out under 2^-wp |x + i y|."""
    terms = -(-wp // (wp - (abs(e0) + abs(e1)).bit_length()))
    tx, ty = x, y
    for k in range(1, terms):
        tx, ty = (tx * e0 - ty * e1 >> wp) // k, (tx * e1 + ty * e0 >> wp) // k
        x, y = x + tx, y + ty
    return x, y


def _step(line: dict, log_p: int, step: Tuple[int, int, int, int]) -> Tuple[int, int]:
    """p^(-delta) for ``step`` = (p, delta re, delta im, wp): the prime's kept p^(-delta0)
    nudged when |delta - delta0| log p < 2^-32, else exp and cos/sin, kept in turn."""
    p, dre, dim, wp = step
    kept = line.get((p, wp))
    if kept:
        e0, e1 = -(dre - kept[0]) * log_p >> wp, -(dim - kept[1]) * log_p >> wp
        if (abs(e0) + abs(e1)).bit_length() <= wp - 32:
            return _nudge(kept[2], kept[3], e0, e1, wp)
    value = _power(log_p, dre, dim, wp)
    line[p, wp] = dre, dim, *value
    return value


def _zeta_fixed(s: Tuple[tuple, tuple], precision: int, line: dict,
                guard: int) -> Tuple[int, Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
    """wp, s, zeta(s) and zeta'(s) as (re, im) pairs of 2^wp-scaled ints, from one
    Euler-Maclaurin pass in fixed point; ``s`` is a pair of raw mpf tuples.

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
    c_(j+1)/c_j, so a small c_j costs no precision.

    ``line``, one probe line's state, keeps each prime's last p^(-s), s and
    wp; a prime with none at this wp (first evaluated sample, new prime, new
    lift or N bit length) steps from p^0 = 1.  p^(-delta), delta the exact
    fixed-point difference, is kept under (p, delta, wp); the float grid
    lo + i step has few deltas, which differ by ulps, so ``_step`` nudges the
    prime's last fresh p^(-delta0) and exp and cos/sin run about once per
    prime and line.  Lines run lo -> hi, so |p^(-delta)| <= 1 and k steps add
    O(k) ulps, which ``guard``, the step count's bit length, absorbs.  The
    sieve and log n, which depend on N and wp only, are kept under ("log",
    wp) and extended as N grows, and the ratios c_(j+1)/c_j under ("ratios", wp).
    """
    work, L = precision + 15, (precision + 20) * math.log(10)
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
    # Direct terms reach N^(-Re s) and cancel, so Re s < 0 lifts the digits;
    # the extra bits absorb N roundings of about |s| log N ulps each.  N grows
    # with -Re s too, so a point past both caps is refused for its lift.
    lift = max(0.0, -sig) * math.log10(N)
    if N > _MAX_TERMS or lift > _MAX_LIFT_DIGITS:
        need = (f"more than {_MAX_LIFT_DIGITS} extra digits for Re s < 0" if lift > _MAX_LIFT_DIGITS
                else f"more than {_MAX_TERMS} direct terms")
        raise ProbeEvaluationError(f"zeta evaluation at {complex(mp.make_mpc(s))} needs {need}")
    wp = dps_to_prec(work + 5 + math.ceil(lift)) + 2 * N.bit_length() + 10 + guard
    one = 1 << wp
    sre, sim = to_fixed(s[0], wp), to_fixed(s[1], wp)
    if (sre, sim) == (one, 0):
        raise ProbeEvaluationError("zeta has its pole at s = 1")
    spf, logs = line.get(("log", wp), ((), [0, 0]))
    if len(spf) <= N:  # log n: log_int_fixed at primes, one add per composite
        spf = list(range(N + 1))
        for p in range(2, math.isqrt(N) + 1):
            spf[p * p :: p] = [min(q, p) for q in spf[p * p :: p]]
        for n in range(len(logs), N + 1):
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
                line[step] = _step(line, logs[n], step)
            (a, b), (c, d) = held[3:], line[step]
        else:
            a, b, c, d = xs[p], ys[p], xs[n // p], ys[n // p]
        xs.append((a * c - b * d) >> wp)
        ys.append((a * d + b * c) >> wp)
    line.update((p, (sre, sim, wp, xs[p], ys[p])) for p in range(2, N + 1) if spf[p] == p)
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
    ratios = line.get(("ratios", wp), ())
    if len(ratios) < M:  # |c_j| > 2^(1 - 5.31 j), so at 2^(wp + 6 size) each c_j keeps wp bits
        size = (M // 32 + 1) * 32
        c = [bernoulli_weight(j, wp + 6 * size) for j in range(1, size + 1)]
        ratios = line["ratios", wp] = [(b << wp) // a for a, b in zip(c, c[1:])]
    NN, wp2, s2 = N * N, 2 * wp, 2 * sim
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
            raise ProbeEvaluationError(
                f"zeta evaluation at {complex(mp.make_mpc(s))} stopped converging (j={j}); "
                "point too far outside the supported region"
            )
        previous, r = magnitude, ratios[j - 1]
        # T <- r T ab / N^2, U <- r (U ab + T (a + b)) / N^2, r = c_(j+1)/c_j
        x0, x1 = p0 * ab0 - p1 * ab1, p0 * ab1 + p1 * ab0
        y0, y1 = q0 * ab0 - q1 * ab1 + p0 * apb - p1 * s2, q0 * ab1 + q1 * ab0 + p0 * s2 + p1 * apb
        p0, p1 = (x0 * r >> wp2) // NN, (x1 * r >> wp2) // NN
        q0, q1 = (y0 * r >> wp2) // NN, (y1 * r >> wp2) // NN
        ab0, ab1, apb = ab0 + 2 * apb + 4 * one, ab1 + 2 * s2, apb + 4 * one
    else:
        raise ProbeEvaluationError(
            f"zeta evaluation at {complex(mp.make_mpc(s))} missed the precision target"
        )
    (wr, wi), (dwr, dwi) = _mul(w, (tr, ti), wp), _mul(w, (dtr, dti), wp)
    return wp, (sre, sim), (z[0] + wr, z[1] + wi), (dz[0] + dwr, dz[1] + dwi)


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
    wp, _, z, dz = _zeta_fixed(_point(s, precision), precision, {}, 0)
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
    zero, and roundoff with it).  It is a one-point line of ``_f_on_line``.
    """
    wp, f = _f_on_line(_point(s, precision), precision, {}, 0)
    return _mpc(f, wp, precision)


def _f_on_line(s: Tuple[tuple, tuple], precision: int, line: dict,
               guard: int) -> Tuple[int, Tuple[int, int]]:
    """wp and f(s) as a pair of 2^wp-scaled ints, for a sample of a probe line;
    ``s``, ``line`` and ``guard`` as in ``_zeta_fixed``."""
    prec = dps_to_prec(precision + 15)  # |s - 1| < 10^-6 as mpmath tests it at that precision
    if mpf_lt(mpc_abs(mpc_sub_mpf(s, fone, prec, round_nearest), prec, round_nearest),
              mpf_pow_int(ften, -6, prec, round_nearest)):
        raise ProbeEvaluationError(
            f"s = {complex(mp.make_mpc(s))} too close to s = 1 for the quotient form"
        )
    wp, (sre, sim), (zr, zi), (dzr, dzi) = _zeta_fixed(s, precision, line, guard)
    den, one = zr * zr + zi * zi, 1 << wp
    if den * 100 ** (precision // 2) < one * one:
        raise ProbeEvaluationError(
            f"|zeta({complex(mp.make_mpc(s))})| below safe floor 1e-{precision // 2} "
            "(too near a zero)"
        )
    if ("1/gamma", wp) not in line:
        line["1/gamma", wp] = (one << wp) // _elementary(wp)[0]
    q = ((dzr * zr + dzi * zi) << wp) // den, ((dzi * zr - dzr * zi) << wp) // den  # zeta'/zeta
    fr, fi = _mul(_mul((sre, sim), (sre - one, sim), wp), q, wp)
    inv_gamma = line["1/gamma", wp]
    return wp, ((fr + sre) * inv_gamma >> wp, (fi + sim) * inv_gamma >> wp)


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
    line, guard = {}, (samples - 1).bit_length()  # see _zeta_fixed
    for i in range(samples):
        param = lo + i * grid_step
        # floats are exact as mpf tuples: the point needs no rounding
        re_s, im_s = (param, fixed) if kind == VARY_RE else (fixed, param)
        try:
            wp, f = _f_on_line((from_float(re_s), from_float(im_s)), precision, line, guard)
        except ProbeEvaluationError as exc:
            failures.append(SampleFailure(param=param, reason=str(exc)))
            continue
        f_re, f_im = (_fixed(x, wp, precision) for x in f)
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
