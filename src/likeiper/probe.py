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
rest of the package only ever needs zeta at real integers), with parameters
chosen from the requested precision and the height |Im s|.  zeta'(s) comes
out of the same pass, differentiated analytically term by term, so each
sample of f costs one sum; there are no finite differences.

The sum runs in fixed point on scalar 2^wp-scaled ints (the idiom of F.
Johansson, Numer. Algorithms 69 (2015)): a smallest-prime-factor sieve
leaves exp and cos/sin to primes, Re s < 0 lifts wp by the digits the direct
terms cancel, and the weights B_2j/(2j)! come from ``constants``' table.
A non-finite point, or one whose N or lift passes ``_MAX_TERMS`` or
``_MAX_LIFT_DIGITS``, is refused with ``ProbeEvaluationError`` before any work.
A probe line keeps one state: the sieve and log n per wp, grown with N, and
each prime's power, stepped as p^(-s') = p^(-s) p^(-delta) for the exact
difference delta of the points, so log runs once per prime and wp, and exp
and cos/sin about once per prime and distinct grid step.  f follows on the
same ints: a line's points enter as the exact mpf parts of their floats,
zeta'/zeta is one integer complex division, and each part of f is rounded
once, into the ``BigReal`` a sample keeps.  mpc appears only where
``zeta_complex``, ``zeta_deriv`` and ``f_eval`` take and return values.
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (dps_to_prec, fone, from_float, from_man_exp, ften, log_int_fixed, mpc_abs,
                          mpc_sub_mpf, mpf_abs, mpf_cos_sin, mpf_exp, mpf_lt, mpf_pow_int,
                          round_nearest, to_fixed, to_float, to_int)

from .bigreal import BigReal, _fixed
from .constants import bernoulli_weight, euler_gamma

DEFAULT_PROBE_DIGITS = 30

#: Caps on one zeta evaluation, checked before any list is built: the direct
#: terms N, which grow with the digits and |Im s|, and the digits that
#: Re s < 0 lifts the working precision by.  A point past either is refused.
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


def _zeta_fixed(s: Tuple[tuple, tuple], precision: int, line: dict,
                guard: int) -> Tuple[int, Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
    """wp, s, zeta(s) and zeta'(s) as (re, im) pairs of 2^wp-scaled ints, from one
    Euler-Maclaurin pass in fixed point; ``s`` is a pair of raw mpf tuples.

    N direct terms, N grown with the precision and the height so the Bernoulli
    corrections c_j P_j N^(-s) (c_j = B_2j/(2j)!, P_j = s (s+1) ... (s+2j-2)
    N^(1-2j), ratio about ((|Im s| + 2j)/(2 pi N))^2) decrease until one is
    below the target.  zeta' is taken term by term: -log(n) n^(-s) and
    c_j (P_j' - log(N) P_j) N^(-s).

    ``line``, one probe line's state, keeps each prime's last p^(-s), s and
    wp; a prime with none at this wp (first evaluated sample, new prime, new
    lift or N) steps from p^0 = 1.  p^(-delta), delta the exact fixed-point
    difference, is kept under (p, delta, wp); the float grid lo + i step has
    few deltas.  Lines run lo -> hi, so |p^(-delta)| <= 1 and k steps add
    O(k) ulps, which ``guard``, the step count's bit length, absorbs.  The
    sieve and log n, which depend on N and wp only, are kept under ("log",
    wp) and extended as N grows, and the weights c_j under ("weights", wp).
    """
    work = precision + 15
    N = int(1.2 * work) + to_int(mpf_abs(s[1])) + 10
    # Direct terms reach N^(-Re s) and cancel, so Re s < 0 lifts the digits;
    # the extra bits absorb N roundings of about |s| log N ulps each.
    lift = max(0.0, -to_float(s[0], rnd=round_nearest)) * math.log10(N)
    if N > _MAX_TERMS or lift > _MAX_LIFT_DIGITS:
        need = (f"more than {_MAX_TERMS} direct terms" if N > _MAX_TERMS else
                f"more than {_MAX_LIFT_DIGITS} extra digits for Re s < 0")
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
                line[step] = _power(logs[n], step[1], step[2], wp)
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
    NN, s2, p0, p1, dp0, dp1 = N * N, 2 * sim, sre // N, sim // N, one // N, 0
    weights, previous = line.setdefault(("weights", wp), []), None
    for j in range(1, 4 * N):
        if j > len(weights):
            weights.append(bernoulli_weight(j, wp))
        c = weights[j - 1]
        t0, t1 = c * p0 >> wp, c * p1 >> wp
        d0, d1 = c * (dp0 - (log_N * p0 >> wp)) >> wp, c * (dp1 - (log_N * p1 >> wp)) >> wp
        tr, ti, dtr, dti = tr + t0, ti + t1, dtr + d0, dti + d1
        magnitude = t0 * t0 + t1 * t1
        if magnitude < bound and d0 * d0 + d1 * d1 < bound:
            break
        if previous is not None and magnitude > previous:
            raise ProbeEvaluationError(
                f"zeta evaluation at {complex(mp.make_mpc(s))} stopped converging (j={j}); "
                "point too far outside the supported region"
            )
        previous = magnitude
        # a = s + 2j - 1, b = a + 1: P <- P ab / N^2, P' <- (P' ab + P (a + b)) / N^2
        a = sre + (2 * j - 1) * one
        ab0, ab1, apb = (a * (a + one) - sim * sim) >> wp, (2 * a + one) * sim >> wp, 2 * a + one
        x, y = (dp0 * ab0 - dp1 * ab1) >> wp, (dp0 * ab1 + dp1 * ab0) >> wp
        dp0, dp1 = (x + (p0 * apb - p1 * s2 >> wp)) // NN, (y + (p0 * s2 + p1 * apb >> wp)) // NN
        p0, p1 = ((p0 * ab0 - p1 * ab1) >> wp) // NN, ((p0 * ab1 + p1 * ab0) >> wp) // NN
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
        line["1/gamma", wp] = (one << wp) // to_fixed(euler_gamma(precision).value._mpf_, wp)
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
    kind: str
    fixed: float
    lo: float
    hi: float
    requested_samples: int
    precision: int
    tol: float
    grid_step: float
    samples: Tuple[ComplexSample, ...]
    failures: Tuple[SampleFailure, ...]
    near_collisions: Tuple[NearCollision, ...]

    @property
    def sampled_injective(self) -> bool:
        return len(self.near_collisions) == 0

    def to_tsv(self) -> str:
        lines = [
            f"# line: vary_{self.kind}",
            f"# fixed: {self.fixed!r}",
            f"# range: [{self.lo!r}, {self.hi!r}] samples: {self.requested_samples}",
            "# columns: param\tre_f\tim_f",
        ]
        places = max(self.precision, 12)
        for sample in self.samples:
            lines.append(
                f"{sample.param!r}\t{sample.f_re.to_decimal_string(places)}"
                f"\t{sample.f_im.to_decimal_string(places)}"
            )
        return "\n".join(lines) + "\n"


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
        kind=kind,
        fixed=fixed,
        lo=lo,
        hi=hi,
        requested_samples=samples,
        precision=precision,
        tol=tol,
        grid_step=grid_step,
        samples=tuple(collected),
        failures=tuple(failures),
        near_collisions=_near_collisions(points, step_gate, tol),
    )
