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
A probe line keeps one state: the sieve and log n per wp, grown with N, and
each prime's power, stepped as p^(-s') = p^(-s) p^(-delta) for the exact
difference delta of the points, so log runs once per prime and wp, and exp
and cos/sin about once per prime and distinct grid step.  The last step, f
from zeta and zeta', stays on mpc: fixed point would save about a tenth
more, left until the benchmark's memory stops tracking its pass count.
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, log_int_fixed, mpf_cos_sin, mpf_exp, to_fixed

from .bigreal import BigReal
from .constants import bernoulli_weight, euler_gamma

DEFAULT_PROBE_DIGITS = 30

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


def _zeta_and_deriv(s: ComplexLike, precision: int, line: Optional[dict] = None,
                    guard: int = 0) -> Tuple[mpmath.mpc, mpmath.mpc]:
    """zeta(s) and zeta'(s) from one Euler-Maclaurin pass in fixed point.

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
    wp) and extended as N grows.
    """
    line = {} if line is None else line
    work = precision + 15
    with mp.workdps(work):
        sv = mpmath.mpc(s)
    N = int(1.2 * work) + int(abs(sv.imag)) + 10
    # Direct terms reach N^(-Re s) and cancel, so Re s < 0 lifts the digits;
    # the extra bits absorb N roundings of about |s| log N ulps each.
    lift = math.ceil(max(0.0, -float(sv.real)) * math.log10(N))
    wp = dps_to_prec(work + 5 + lift) + 2 * N.bit_length() + 10 + guard
    one = 1 << wp
    sre, sim = to_fixed(sv.real._mpf_, wp), to_fixed(sv.imag._mpf_, wp)
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
    previous = None
    for j in range(1, 4 * N):
        c = bernoulli_weight(j, wp)
        t0, t1 = c * p0 >> wp, c * p1 >> wp
        d0, d1 = c * (dp0 - (log_N * p0 >> wp)) >> wp, c * (dp1 - (log_N * p1 >> wp)) >> wp
        tr, ti, dtr, dti = tr + t0, ti + t1, dtr + d0, dti + d1
        magnitude = t0 * t0 + t1 * t1
        if magnitude < bound and d0 * d0 + d1 * d1 < bound:
            break
        if previous is not None and magnitude > previous:
            raise ProbeEvaluationError(
                f"zeta evaluation at {complex(sv)} stopped converging (j={j}); "
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
        raise ProbeEvaluationError(f"zeta evaluation at {complex(sv)} missed the precision target")
    prec = dps_to_prec(work)
    return tuple(
        mp.make_mpc(tuple(from_man_exp(x + y, -wp, prec, "n") for x, y in zip(v, _mul(w, t, wp))))
        for v, t in ((z, (tr, ti)), (dz, (dtr, dti)))
    )


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
    return _f_on_line(s, precision, {}, 0)


def _f_on_line(s: ComplexLike, precision: int, line: dict, guard: int) -> mpmath.mpc:
    """f(s) as a sample of a probe line; ``line`` and ``guard`` as in ``_zeta_and_deriv``."""
    with mp.workdps(precision + 15):
        sv = mpmath.mpc(s)
        if abs(sv - 1) < mpmath.mpf(10) ** (-6):
            raise ProbeEvaluationError(
                f"s = {complex(sv)} too close to s = 1 for the quotient form"
            )
        z, zp = _zeta_and_deriv(sv, precision, line, guard)
        floor = mpmath.mpf(10) ** (-(precision // 2))
        if abs(z) < floor:
            raise ProbeEvaluationError(
                f"|zeta({complex(sv)})| below safe floor 1e-{precision // 2} (too near a zero)"
            )
        gamma = euler_gamma(precision).value
        return +((sv + sv * (sv - 1) * zp / z) / gamma)


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
    line, guard = {}, (samples - 1).bit_length()  # see _zeta_and_deriv
    for i in range(samples):
        param = lo + i * grid_step
        # a Python complex is exact for float parts; _f_on_line converts it at
        # its own precision, so the caller's mp.dps cannot round the point
        s = complex(param, fixed) if kind == VARY_RE else complex(fixed, param)
        try:
            f = _f_on_line(s, precision, line, guard)
        except ProbeEvaluationError as exc:
            failures.append(SampleFailure(param=param, reason=str(exc)))
            continue
        collected.append(
            ComplexSample(
                param=param,
                f_re=BigReal(mpmath.re(f), precision),
                f_im=BigReal(mpmath.im(f), precision),
            )
        )
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
    # Pair scan in plain floats: tol is far above double roundoff.
    points = [(c.param, complex(float(c.f_re), float(c.f_im))) for c in collected]
    near: List[NearCollision] = []
    for a in range(len(points)):
        pa, fa = points[a]
        for b in range(a + 1, len(points)):
            pb, fb = points[b]
            if abs(pa - pb) <= step_gate:
                continue
            dist = abs(fa - fb)
            if dist < tol:
                near.append(NearCollision(param1=pa, param2=pb, distance=dist))
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
        near_collisions=tuple(near),
    )
