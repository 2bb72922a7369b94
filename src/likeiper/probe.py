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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import mpmath
from mpmath import mp

from .bigreal import BigReal
from .constants import euler_gamma

DEFAULT_PROBE_DIGITS = 30

ComplexLike = Union[complex, mpmath.mpc, mpmath.mpf, int, float]


class ProbeEvaluationError(ValueError):
    """Raised when f cannot be trusted at a point (pole or zero proximity)."""


def _zeta_and_deriv(s: ComplexLike, precision: int) -> Tuple[mpmath.mpc, mpmath.mpc]:
    """zeta(s) and zeta'(s) from one Euler-Maclaurin pass.

    N direct terms, then Bernoulli corrections until they fall below the
    target; the remainder is comparable to the first omitted correction.
    N grows with both the precision and the height so the correction terms
    (whose ratio is roughly ((|Im s| + 2j)/(2 pi N))^2) actually decrease.
    The derivative is taken term by term: n^(-s) contributes
    -log(n) n^(-s), and each correction c_j R_j(s) N^(-s-2j+1), with R_j
    the rising product s (s+1) ... (s+2j-2), contributes
    c_j (R_j' - log(N) R_j) N^(-s-2j+1).
    """
    work = precision + 15
    with mp.workdps(work):
        sv = mpmath.mpc(s)
        if sv == 1:
            raise ProbeEvaluationError("zeta has its pole at s = 1")
        height = abs(mpmath.im(sv))
        N = int(1.2 * work) + int(height) + 10
        # n = 1 contributes 1 to zeta and, with log 1 = 0, nothing to zeta'
        total = mpmath.mpc(1)
        dtotal = mpmath.mpc(0)
        for n in range(2, N):
            log_n = mpmath.log(n)
            term = mpmath.exp(-sv * log_n)
            total += term
            dtotal -= log_n * term
        Nf = mpmath.mpf(N)
        log_N = mpmath.log(Nf)
        power = mpmath.exp(-sv * log_N)
        inv = 1 / (sv - 1)
        head = Nf * power * inv
        total += head + power / 2
        dtotal -= head * (log_N + inv) + log_N * power / 2
        target = mpmath.mpf(10) ** (-(work + 5))
        rising, drising = sv, mpmath.mpc(1)
        power /= Nf
        previous = None
        converged = False
        for j in range(1, 4 * N):
            weight = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * power
            term = weight * rising
            dterm = weight * (drising - log_N * rising)
            total += term
            dtotal += dterm
            magnitude = abs(term)
            if magnitude < target and abs(dterm) < target:
                converged = True
                break
            if previous is not None and magnitude > previous:
                raise ProbeEvaluationError(
                    f"zeta evaluation at {complex(sv)} stopped converging (j={j}); "
                    "point too far outside the supported region"
                )
            previous = magnitude
            a, b = sv + 2 * j - 1, sv + 2 * j
            drising = drising * a * b + rising * (a + b)
            rising *= a * b
            power /= Nf * Nf
        if not converged:
            raise ProbeEvaluationError(
                f"zeta evaluation at {complex(sv)} missed the precision target"
            )
        return +total, +dtotal


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
    zero, and roundoff with it).
    """
    with mp.workdps(precision + 15):
        sv = mpmath.mpc(s)
        if abs(sv - 1) < mpmath.mpf(10) ** (-6):
            raise ProbeEvaluationError(
                f"s = {complex(sv)} too close to s = 1 for the quotient form"
            )
        z, zp = _zeta_and_deriv(sv, precision)
        floor = mpmath.mpf(10) ** (-(precision // 2))
        if abs(z) < floor:
            raise ProbeEvaluationError(
                f"|zeta({complex(sv)})| = {mpmath.nstr(abs(z), 5)} below safe floor "
                "(too near a zero)"
            )
        gamma = euler_gamma(precision).value
        return +((sv + sv * (sv - 1) * zp / z) / gamma)


VARY_RE = "re"
VARY_IM = "im"


@dataclass(frozen=True)
class ComplexSample:
    param: float
    s_re: BigReal
    s_im: BigReal
    f_re: BigReal
    f_im: BigReal


@dataclass(frozen=True)
class SampleFailure:
    param: float
    reason: str


@dataclass(frozen=True)
class NearCollision:
    param1: float
    param2: float
    distance: float


@dataclass(frozen=True)
class LineProbeReport:
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
    but fewer than two evaluated samples leave no pair to compare and raise
    ``ProbeEvaluationError``.
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
    for i in range(samples):
        param = lo + i * grid_step
        if kind == VARY_RE:
            s = mpmath.mpc(param, fixed)
        else:
            s = mpmath.mpc(fixed, param)
        try:
            f = f_eval(s, precision)
        except ProbeEvaluationError as exc:
            failures.append(SampleFailure(param=param, reason=str(exc)))
            continue
        collected.append(
            ComplexSample(
                param=param,
                s_re=BigReal(mpmath.re(s), precision),
                s_im=BigReal(mpmath.im(s), precision),
                f_re=BigReal(mpmath.re(f), precision),
                f_im=BigReal(mpmath.im(f), precision),
            )
        )
    if len(collected) < 2:
        raise ProbeEvaluationError(
            f"only {len(collected)} of {samples} samples evaluated, so no pair can be "
            f"compared; first failure at {failures[0].param!r}: {failures[0].reason}"
        )
    # Pair scan in plain floats: tol is far above double roundoff.
    points = [(c.param, complex(float(c.f_re), float(c.f_im))) for c in collected]
    near: List[NearCollision] = []
    step_gate = grid_step * (1 + 1e-9)
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
