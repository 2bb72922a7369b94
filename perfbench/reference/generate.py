"""Generate ``reference.json``: the true outputs of every benchmark op.

Everything here is computed from mpmath primitives and the formulas the
README states, never from ``likeiper``:

* lambda(n) from ``mpmath.stieltjes`` (the tiny part) and ``mpmath.psi``
  (the trend part), with a series logarithm and the closed-form
  substitution ``[z^n] sum a_k u^k = sum_k C(n-1, k-1) a_k`` for
  ``u = z/(1-z)``, at ``DPS`` working digits.  A second pass at
  ``CHECK_DPS`` measures how many digits the first one holds.
* probe values f(s) from ``mpmath.zeta(s)`` and
  ``mpmath.zeta(s, derivative=1)``.
* the inversion verdicts from the true residual against the stated bound.
* golden-table verdicts from the true value of each tabulated quantity.

The shipped data files (zero ordinates, golden fixtures) are inputs; the
zero ordinates are checked against ``mpmath.zetazero``.

A number cell is ``[row, column, "num", value, places]``: ``value`` to
``SIG`` significant digits and ``places``, the fixed-point decimal places
the README's output format gives it (``--digits``; at least 12 for the
probe).  A verdict cell is ``[row, column, "text", value]``.

Run from the repository root (about five minutes on one core):

    python3 perfbench/reference/generate.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from workloads import CHECKS, COEFFS, PROBE  # noqa: E402

DATA = HERE.parent.parent / "src" / "likeiper" / "data"
N_MAX = 80
SIG = 130  # significant digits stored per number
DPS = 190  # working digits of the reference
CHECK_DPS = 150  # working digits of the independent cross-check


def num(x) -> str:
    return mpmath.nstr(x, SIG)


def num_cell(row, column: str, x, places: int) -> list:
    return [str(row), column, "num", num(x), places]


def sign(e: int) -> int:
    """(-1)**e as an int for any integer e."""
    return -1 if e % 2 else 1


def stieltjes_table(k_max: int, dps: int) -> list:
    """gamma_0..gamma_k_max by quadrature, ignoring mpmath's cache of
    earlier (higher-precision) results so two precisions are independent."""
    mp.stieltjes_cache = {}
    with mp.workdps(dps):
        return [mpmath.stieltjes(k) for k in range(k_max + 1)]


def series_log(a: list) -> list:
    """log of a series with a[0] = 1: n b_n = n a_n - sum_k k b_k a_{n-k}."""
    b = [mpmath.mpf(0)]
    for n in range(1, len(a)):
        acc = n * a[n]
        for k in range(1, n):
            acc -= k * b[k] * a[n - k]
        b.append(acc / n)
    return b


def compose_zmap(a: list) -> list:
    """Coefficients in z of sum a_k u^k with u = z/(1-z) and a_0 = 0."""
    return [mpmath.mpf(0)] + [
        mpmath.fsum(math.comb(n - 1, k - 1) * a[k] for k in range(1, n + 1))
        for n in range(1, len(a))
    ]


def lambda_parts(gammas: list, dps: int) -> tuple:
    """(trend_over_n, tiny_over_n) lists indexed 0..N_MAX."""
    with mp.workdps(dps):
        # (s-1) zeta(s) = 1 + sum_k (-1)^k gamma_k u^(k+1) / k!
        a = [mpmath.mpf(1)] + [
            sign(k) * gammas[k] / mpmath.factorial(k) for k in range(N_MAX)
        ]
        tiny = compose_zmap(series_log(a))
        # log(1+u) - ((1+u)/2) log pi + log Gamma((1+u)/2), constant term 0
        t = [mpmath.mpf(0), 1 - mpmath.log(mp.pi) / 2 + mpmath.psi(0, 0.5) / 2]
        for k in range(2, N_MAX + 1):
            t.append(mpmath.mpf(sign(k + 1)) / k
                     + mpmath.psi(k - 1, 0.5) / (2 ** k * mpmath.factorial(k)))
        trend = compose_zmap(t)
    return trend, tiny


def rel_digits(a: list, b: list) -> float:
    worst = max(abs(x - y) / abs(y) for x, y in zip(a[1:], b[1:]))
    return float(-mpmath.log10(worst)) if worst else float(SIG)


# -- predictors (README formulas), on any sequence supporting + and * int --

def pred_order_m(h, n, m):
    return sum((sign(j + 1) * math.comb(m, j) * h[n - j] for j in range(2, m + 1)),
               m * h[n - 1])


def pred_full(h, n):
    return sum((sign(k - n + 1) * math.comb(n, k) * h[k] for k in range(2, n)),
               sign(n) * n * h[1]) if n > 1 else 0 * h[0]


def pred_voros(h, n):
    return sum((sign(k - n + 1) * math.comb(2 * n, n - k) * h[k] for k in range(2, n)),
               sign(n) * math.comb(2 * n, n - 1) * h[1]) if n > 1 else 0 * h[0]


def predict(scheme: str, h: list, n: int):
    if scheme == "d":
        return pred_full(h, n)
    if scheme == "a2":
        return pred_voros(h, n)
    m = {"a1": 2, "b": 3}.get(scheme) or int(scheme[2:])
    return pred_order_m(h, n, m)


def arg(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- data inputs ---------------------------------------------------------------

def read_indexed(path: Path) -> list:
    return [line.split("\t")[1] for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def read_golden(name: str) -> list:
    """(row, column, printed, expect, places) for every printed cell."""
    lines = (DATA / "tables" / f"{name}.tsv").read_text().splitlines()
    columns = next(l for l in lines if l.startswith("# columns:")).split(":", 1)[1].split()
    cells = []
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        for column, text in zip(columns, fields[1:]):
            if text == "-":
                continue
            parts = text.split("!")
            ann = dict(p.split("=", 1) for p in parts[1:])
            printed, expect = parts[0], ann.get("expect")
            shown = expect if expect is not None else printed
            places = int(ann["places"]) if "places" in ann else (
                len(shown.split(".", 1)[1]) if "." in shown else 0)
            cells.append((int(fields[0]), column, printed, expect, places))
    return cells


# -- reference cells per op ----------------------------------------------------

class CellMaker:
    def __init__(self, trend, tiny, zeros):
        self.trend_n = trend  # lambda_trend(n)/n
        self.tiny_n = tiny
        self.zeros = zeros
        self.gamma = +mp.euler
        self.lam = [mpmath.mpf(0)] + [n * (trend[n] + tiny[n]) for n in range(1, N_MAX + 1)]
        self.tiny_part = [mpmath.mpf(0)] + [n * tiny[n] for n in range(1, N_MAX + 1)]
        self.trend_part = [mpmath.mpf(0)] + [n * trend[n] for n in range(1, N_MAX + 1)]

    def lambda_op(self, argv):
        n_max, places = int(arg(argv, "--n-max")), int(arg(argv, "--digits"))
        return [num_cell(n, col, v, places) for n in range(1, n_max + 1) for col, v in (
            ("trend_over_n", self.trend_n[n]), ("tiny_over_n", self.tiny_n[n]),
            ("lambda", self.lam[n]))]

    def approx_op(self, argv):
        scheme, n_max = arg(argv, "--scheme"), int(arg(argv, "--n-max"))
        places, seed = int(arg(argv, "--digits")), arg(argv, "--seed", "exact")
        if seed != "exact":
            return self.seeded_op(scheme, seed, n_max, places)
        target = "lambda" if scheme == "a2" else "tiny"
        h = self.lam if target == "lambda" else self.tiny_part
        m = {"a1": 2, "b": 3, "d": 2, "a2": 2}.get(scheme) or int(scheme[2:])
        cells = []
        for n in range(max(2, m), n_max + 1):
            p, e = predict(scheme, h, n), h[n]
            rel = abs(p - e) / abs(e)
            if target == "tiny":
                p, e = p / n, e / n
            for col, v in (("predicted", p), ("exact", e), ("abs_error", abs(p - e)),
                           ("rel_error", rel)):
                cells.append(num_cell(n, col, v, places))
        return cells

    def seeded_op(self, scheme, seed, n_max, places):
        c = Fraction(seed.split(":", 1)[1]) if ":" in seed else None
        r = [Fraction(0), Fraction(1)] + ([c] if c is not None else [])
        while len(r) <= n_max:
            r.append(predict(scheme, r, len(r)))
        lam1 = self.lam[1]
        return [num_cell(n, col, v, places) for n in range(1, n_max + 1) for col, v in (
            ("predicted", lam1 * r[n].numerator / r[n].denominator),
            ("ratio_to_lambda1", mpmath.mpf(r[n].numerator) / r[n].denominator))]

    def z_partial(self, j):
        quarter = mpmath.mpf(1) / 4
        return mpmath.fsum((quarter + t * t) ** (-j) for t in self.zeros)

    @staticmethod
    def density_tail(j, T):
        inv = mpmath.mpf(1) / (2 * j - 1)
        return T ** (-(2 * j - 1)) * inv * (mpmath.log(T / (2 * mp.pi)) + inv) / (2 * mp.pi)

    def zeros_op(self, argv):
        cells, places = [], int(arg(argv, "--digits"))
        for j in range(1, int(arg(argv, "--n-max")) + 1):
            for col, v in (("z_partial", self.z_partial(j)),
                           ("z_tail_bound", 2 * self.density_tail(j, self.zeros[-1])),
                           ("delta_bound", self.density_tail(j, mpmath.mpf(14)))):
                cells.append(num_cell(j, col, v, places))
        return cells

    def inversion_op(self, argv):
        cells, all_ok, places = [], True, int(arg(argv, "--digits"))
        for n in range(1, int(arg(argv, "--n-max")) + 1):
            lhs = mpmath.fsum(sign(k - 1) * math.comb(2 * n, n - k) * self.lam[k]
                              for k in range(1, n + 1))
            z = self.z_partial(n)
            bound = 2 * self.density_tail(n, self.zeros[-1]) + mpmath.mpf(10) ** -40
            ok = abs(lhs - z) <= bound
            all_ok &= ok
            for col, v in (("lhs", lhs), ("z_partial", z), ("residual", abs(lhs - z)),
                           ("bound_plus_allowance", bound)):
                cells.append(num_cell(n, col, v, places))
            cells.append([str(n), "consistent", "text", "yes" if ok else "no"])
        cells.append(["#", "result", "text", "pass" if all_ok else "FAIL"])
        return cells

    def scan_op(self, argv):
        cells, violations, places = [], 0, int(arg(argv, "--digits"))
        for n in range(1, int(arg(argv, "--n-max")) + 1):
            ratio = self.tiny_n[n] / self.gamma if n > 1 else mpmath.mpf(1)
            violations += abs(ratio) > 1
            cells.append(num_cell(n, "ratio", ratio, places))
            cells.append([str(n), "within_bound", "text", "yes" if abs(ratio) <= 1 else "no"])
        cells.append(["#", "violations", "text", str(violations)])
        return cells

    # golden tables: the true value of every tabulated quantity
    def golden_values(self, name):
        g, out = self.gamma, {}
        if name in ("ratio_order2", "ratio_order3"):
            m = 2 if name == "ratio_order2" else 3
            for n in range(2, 12):
                if n >= m:
                    out[(n, "pred")] = pred_order_m(self.tiny_part, n, m) / (g * n)
                out[(n, "exact")] = self.tiny_part[n] / (g * n)
        elif name in ("tiny_fullhistory", "trend_fullhistory"):
            h = self.tiny_part if name == "tiny_fullhistory" else self.trend_part
            for n in range(1 if name == "trend_fullhistory" else 2, 16):
                out[(n, "pred")] = pred_full(h, n) / n if n > 1 else h[1]
                out[(n, "exact")] = h[n] / n
        elif name == "nlogn_sums":
            for n in range(1, 33):
                out[(n, "phi1")] = mpmath.fsum(sign(k) * math.comb(n, k) * k * mpmath.log(k)
                                               for k in range(2, n))
                out[(n, "phi2")] = sign(n - 1) * n * mpmath.log(n)
        elif name == "coeff20":
            for n in range(1, 8):
                out[(n, "lam")] = self.lam[n]
                if n >= 2:
                    out[(n, "a1")] = pred_full(self.lam, n)
                    out[(n, "a2")] = pred_voros(self.lam, n)
        elif name == "scan_ratios":
            for n in range(1, 11):
                out[(n, "ratio")] = self.tiny_n[n] / g if n > 1 else mpmath.mpf(1)
        return out

    def verify_op(self, name, with_summary):
        golden = read_golden(name)
        values = self.golden_values(name)
        cells, unflagged, unflagged_ok, flagged = [], 0, 0, 0
        for row, column, printed, expect, places in golden:
            true = values[(row, column)]
            tol = mpmath.mpf(10) ** -places
            matches = abs(true - mpmath.mpf(expect if expect is not None else printed)) < tol
            key = f"row {row}"
            if expect is not None:
                flagged += 1
                refuted = not abs(true - mpmath.mpf(printed)) < tol
                cells.append([key, f"{column}:status", "text", "FLAGGED"])
                cells.append([key, f"{column}:correction-reproduced", "text",
                              "yes" if matches else "no"])
                cells.append([key, f"{column}:printed-refuted", "text", "yes" if refuted else "no"])
            else:
                unflagged += 1
                unflagged_ok += matches
                cells.append([key, f"{column}:status", "text", "ok" if matches else "MISMATCH"])
        if with_summary:
            cells.append(["#", "cells", "text", f"{unflagged + flagged}  unflagged-ok: "
                          f"{unflagged_ok}/{unflagged}  flagged: {flagged}"])
            cells.append(["#", "result", "text", "pass" if unflagged_ok == unflagged else "FAIL"])
        return cells

    def cells_for(self, kind, spec):
        if kind == "library":
            return self.verify_op(spec, with_summary=False)
        command = spec[0]
        if command == "verify":
            names = ["ratio_order2", "ratio_order3", "tiny_fullhistory", "trend_fullhistory",
                     "nlogn_sums"]
            return self.verify_op(names[int(arg(spec, "--table")) - 1], with_summary=True)
        if command == "zeros":
            return self.inversion_op(spec) if "--inversion" in spec else self.zeros_op(spec)
        return {"lambda": self.lambda_op, "approx": self.approx_op, "scan": self.scan_op}[
            command](spec)


# -- probe -----------------------------------------------------------------------

def probe_cells(argv: list) -> list:
    """f(s) = (s + s(s-1) zeta'(s)/zeta(s))/gamma along the line, with the
    probe's stated rejections (|s-1| < 1e-6, |zeta| < 10^-(digits//2)) and
    its near-collision rule (non-adjacent samples closer than tol)."""
    line, samples = arg(argv, "--line"), int(arg(argv, "--samples"))
    digits, tol = int(arg(argv, "--digits")), float(arg(argv, "--tol", "1e-6"))
    places = max(digits, 12)
    if line == "im":
        fixed, lo, hi = float(arg(argv, "--b")), float(arg(argv, "--t0")), float(arg(argv, "--t1"))
    else:
        fixed, lo, hi = float(arg(argv, "--t")), float(arg(argv, "--b0")), float(arg(argv, "--b1"))
    step = (hi - lo) / (samples - 1)
    cells, points, failures = [], [], 0
    with mp.workdps(digits + 40):
        for i in range(samples):
            param = lo + i * step
            s = mpmath.mpc(param, fixed) if line == "re" else mpmath.mpc(fixed, param)
            if abs(s - 1) < mpmath.mpf(10) ** -6:
                failures += 1
                continue
            z = mpmath.zeta(s)
            if abs(z) < mpmath.mpf(10) ** -(digits // 2):
                failures += 1
                continue
            f = (s + s * (s - 1) * mpmath.zeta(s, derivative=1) / z) / mp.euler
            points.append((param, complex(f)))
            cells.append(num_cell(repr(param), "re_f", f.real, places))
            cells.append(num_cell(repr(param), "im_f", f.imag, places))
    near = sum(1 for a in range(len(points)) for b in range(a + 1, len(points))
               if abs(points[a][0] - points[b][0]) > step * (1 + 1e-9)
               and abs(points[a][1] - points[b][1]) < tol)
    cells += [["#", "failures", "text", str(failures)],
              ["#", "near_collisions", "text", str(near)],
              ["#", "sampled_injective", "text", "yes" if near == 0 else "no"]]
    return cells


def main() -> int:
    started = time.time()

    gammas = stieltjes_table(N_MAX - 1, DPS)
    print(f"stieltjes at {DPS} dps: {time.time() - started:.0f} s", flush=True)
    check = stieltjes_table(N_MAX - 1, CHECK_DPS)
    print(f"stieltjes at {CHECK_DPS} dps: {time.time() - started:.0f} s", flush=True)

    mp.dps = DPS
    trend, tiny = lambda_parts(gammas, DPS)
    with mp.workdps(CHECK_DPS):
        trend2, tiny2 = lambda_parts(check, CHECK_DPS)
        lam = [n * (trend[n] + tiny[n]) for n in range(N_MAX + 1)]
        lam2 = [n * (trend2[n] + tiny2[n]) for n in range(N_MAX + 1)]
        agree = {"n<=32": rel_digits(lam2[:33], lam[:33]), "n<=80": rel_digits(lam2, lam)}
    shipped = [mpmath.mpf(t) for t in read_indexed(DATA / "zeros.tsv")]
    with mp.workdps(60):
        zero_dev = max(abs(mpmath.zetazero(k + 1).imag - t) for k, t in enumerate(shipped))

    maker = CellMaker(trend, tiny, shipped)
    ops = {}
    for op_id, kind, spec in COEFFS + CHECKS:
        ops[op_id] = maker.cells_for(kind, spec)
    for op_id, _, argv in PROBE:
        ops[op_id] = probe_cells(argv)

    meta = {
        "generator": "perfbench/reference/generate.py",
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "dps": DPS,
        "lambda_rel_digits_vs_check_dps": {"check_dps": CHECK_DPS, **agree},
        "shipped_zero_ordinates_max_abs_dev_vs_zetazero": mpmath.nstr(zero_dev, 5),
        "seconds": round(time.time() - started, 1),
    }
    stieltjes = [num(g) for g in gammas]
    (HERE / "reference.json").write_text(json.dumps(
        {"meta": meta, "stieltjes": stieltjes, "ops": ops}, indent=0) + "\n")
    print(json.dumps(meta, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
