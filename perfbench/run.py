#!/usr/bin/env python3
"""likeiper benchmark: end-to-end and per-layer numbers, with checked outputs.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload coeffs --seed 1 --seconds 25 --trace 0

Every workload, with a summary table and a results file
``perfbench/results/BENCH.json``:

    python3 perfbench/run.py --workload all --seconds 25

Each workload runs in one process, one thread, as a closed loop with one
client: an op starts when the previous one has returned.  The seed fixes the
order of the ops in each pass.  Passes repeat until ``--seconds`` have
passed; the pass running then completes.  Every output cell of every pass is
checked against ``reference/reference.json``; wrong cells outside the ones
recorded in ``reference/known_defects.json`` make the run incorrect.

``--trace 0`` prints the end-to-end metrics ``setup_s``, ``wall_s``,
``work_per_s`` (work units per pass over ``wall_s``) and ``peak_rss_mb``.
The two times are given at the reference host speed of ``hostspeed.py``,
whose slowdown is a fixed kernel's median time over ``KERNEL_REF_S``:

* ``setup_s``: ``SETUP_REPS`` fresh interpreters before the passes and as
  many after them, so that the set-up times sample the host at both ends
  of the run.  Each interpreter times the kernel ten times, imports
  likeiper and loads the Stieltjes and zero tables, then times the kernel
  ten times more; its set-up time is divided by the slowdown of those
  twenty samples.  ``setup_s`` is the median.
* ``wall_s``: while the passes run, the kernel runs from a timer signal
  every ``INTERVAL`` seconds in the measuring thread.  Each op's wall time,
  less the kernel time inside it, is divided by the slowdown of the
  samples taken during the op (the latest sample if none was); a pass's
  time is the sum over its ops.  ``wall_s`` is the median over passes.

The times as measured, and the slowdowns, are in the ``# detail`` line.
``--trace 1`` runs each op untraced, traced and untraced again, and prints
the per-layer metrics from the traced runs, including
``trace.overhead_frac``; the traced outputs must equal the untraced ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / "reference.json"
KNOWN_DEFECTS = BENCH / "reference" / "known_defects.json"

from check import compare  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import UNITS, WORKLOADS  # noqa: E402

SETUP_REPS = 8  # before the passes, and as many again after them
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import slowdown, timed_kernel
kernel_s = [timed_kernel() for _ in range(10)]
t0 = time.perf_counter()
import likeiper
from likeiper.constants import load_stieltjes
from likeiper.zeros import load_zeros
load_stieltjes()
load_zeros()
seconds = time.perf_counter() - t0
kernel_s += [timed_kernel() for _ in range(10)]
print(seconds, slowdown(kernel_s), likeiper.__file__)
"""

Outputs = Dict[str, Tuple[bool, str]]  # op id -> (op succeeded, output text)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def render_report(report) -> str:
    """A ``verify_table`` result in the ``likeiper verify`` cell format."""
    lines = []
    for r in report.reports:
        fields = [f"row {r.cell.row}", r.cell.column]
        if r.cell.flagged:
            fields += ["FLAGGED", f"correction-reproduced={'yes' if r.matches else 'no'}",
                       f"printed-refuted={'no' if r.printed_matches else 'yes'}"]
        else:
            fields.append("ok" if r.matches else "MISMATCH")
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def run_op(op) -> Tuple[bool, str]:
    """Run one op; it fails if it raises, crashes or exits with 2."""
    import likeiper.cli as cli
    import likeiper.goldens as goldens

    _, kind, spec = op
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if kind == "cli":
                code = cli.main(list(spec))
            else:
                out.write(render_report(goldens.verify_table(spec)))
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return False, f"crashed: {exc!r}"
    return code in (0, 1), out.getvalue()


def run_pass(ops, rng: random.Random, host: HostSpeed) -> Tuple[float, float, Outputs]:
    """One pass in seed order: (seconds less the kernel's, the same at the
    reference host speed, outputs)."""
    raw = at_ref = 0.0
    outputs = {}
    for op in rng.sample(ops, len(ops)):
        index = len(host.samples)
        start = time.perf_counter()
        outputs[op[0]] = run_op(op)
        seconds = time.perf_counter() - start
        kernel_s, slowdown = host.since(index)
        raw += seconds - kernel_s
        at_ref += (seconds - kernel_s) / slowdown
    return raw, at_ref, outputs


def run_traced(ops, rng: random.Random):
    """Each op untraced, traced, then untraced again, back to back, so the
    tracing overhead compares runs made at nearly the same moment."""
    tracer = Tracer()
    plain, traced, again = {}, {}, {}
    untraced_s = traced_s = 0.0
    for op in rng.sample(ops, len(ops)):
        t0 = time.perf_counter()
        plain[op[0]] = run_op(op)
        t1 = time.perf_counter()
        with tracer:
            traced[op[0]] = run_op(op)
        t2 = time.perf_counter()
        again[op[0]] = run_op(op)
        t3 = time.perf_counter()
        untraced_s += (t1 - t0 + t3 - t2) / 2
        traced_s += t2 - t1
    return tracer, (plain, traced, again), untraced_s, traced_s


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def check_passes(passes: List[Outputs], reference: dict, known: dict) -> dict:
    attempted = checked = wrong_total = 0
    failed_ops: List[str] = []
    wrong: Dict[str, set] = {}
    for outputs in passes:
        for op_id, (ok, text) in outputs.items():
            attempted += 1
            if not ok:
                failed_ops.append(op_id)
            n_checked, cells = compare(reference["ops"][op_id], text if ok else "")
            checked += n_checked
            wrong_total += len(cells)
            wrong.setdefault(op_id, set()).update(cells)
    known_cells = {op: {tuple(c) for c in cells} for op, cells in known["wrong_cells"].items()}
    unexpected = {op: sorted(cells - known_cells.get(op, set()))
                  for op, cells in wrong.items() if cells - known_cells.get(op, set())}
    return {
        "attempted": attempted,
        "failed": len(failed_ops),
        "failed_ops": sorted(set(failed_ops)),
        "cells_checked": checked,
        "cells_wrong": wrong_total,
        "wrong_cells": {op: sorted(cells) for op, cells in wrong.items() if cells},
        "unexpected_wrong_cells": unexpected,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def summary(values: List[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure_setup() -> Tuple[List[float], List[float], List[float]]:
    """Set-up times as measured, the slowdowns sampled in each set-up
    interpreter, and the times at the reference host speed."""
    times, slowdowns, at_ref = [], [], []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()}")
        seconds, slowdown, path = done.stdout.split(maxsplit=2)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported likeiper from {path.strip()}, not {SRC}")
        times.append(float(seconds))
        slowdowns.append(float(slowdown))
        at_ref.append(float(seconds) / float(slowdown))
    return times, slowdowns, at_ref


def layer_metrics(tracer: Tracer, outputs: Outputs, reference: dict, overhead: float) -> dict:
    import mpmath
    from likeiper.lambda_core import guard_digits

    t = tracer
    tables = [result for _, _, result in t.kept["lambda_core.lambda_table"]]
    ref_lambda = {int(row): value for row, col, _, value, _ in reference["ops"]["lambda_80_50"]
                  if col == "lambda"}
    margin = working = 0
    if tables:
        working = max(tb.precision + guard_digits(tb.n_max) for tb in tables)
        with mpmath.mp.workdps(300):
            margins = []
            for tb in tables:
                worst = max(abs(tb.lam(n).value / mpmath.mpf(ref_lambda[n]) - 1)
                            for n in range(1, tb.n_max + 1))
                achieved = float(-mpmath.log10(worst)) if worst else 3.0 * tb.precision
                margins.append(achieved - tb.precision)
            margin = min(margins)
    reports = [result for _, _, result in t.kept["goldens.verify_table"]]
    cells = [r for report in reports for r in report.reports]
    probes = [result for _, _, result in t.kept["probe.line_probe"]]
    requested = sum(p.requested_samples for p in probes)
    inversion_wrong = compare(reference["ops"]["inversion_32_50"],
                              outputs["inversion_32_50"][1])[1] if "inversion_32_50" in outputs else []

    s, count, frac = "s", "count", "frac"
    values = {
        "series.compose_zmap_s": (t.total_time("series.compose_zmap"), s),
        "series.compose_zmap_calls": (t.calls("series.compose_zmap"), count),
        "series.mul_calls": (t.calls("series.mul"), count),
        "series.log_s": (t.total_time("series.log"), s),
        "bigreal.objects": (t.calls("bigreal.objects"), count),
        "bigreal.to_decimal_string_s": (t.total_time("bigreal.to_decimal_string"), s),
        "constants.load_stieltjes_s": (t.total_time("constants.load_stieltjes"), s),
        "constants.polygamma_half_s": (t.total_time("constants.polygamma_half"), s),
        "constants.zeta_int_calls": (t.calls("constants.zeta_int"), count),
        "constants.euler_gamma_calls": (t.calls("constants.euler_gamma"), count),
        "datafiles.parse_calls": (t.calls("datafiles.parse"), count),
        "datafiles.parse_s": (t.total_time("datafiles.parse"), s),
        "lambda_core.tiny_series_s": (t.total_time("lambda_core.tiny_series"), s),
        "lambda_core.trend_series_s": (t.total_time("lambda_core.trend_series"), s),
        "lambda_core.lambda_table_calls": (len(tables), count),
        "lambda_core.lambda_table_distinct_frac": (
            len({(tb.n_max, tb.precision) for tb in tables}) / len(tables) if tables else 0.0, frac),
        "lambda_core.working_digits": (working, "digits"),
        "lambda_core.digits_margin_min": (margin, "digits"),
        "recurrences.prediction_run_s": (t.total_time("recurrences.prediction_run"), s),
        "recurrences.self_seeded_run_s": (t.total_time("recurrences.self_seeded_run"), s),
        "recurrences.phi_nlogn_s": (t.total_time("recurrences.phi_nlogn"), s),
        "zeros.load_zeros_s": (t.total_time("zeros.load_zeros"), s),
        "zeros.z_partial_s": (t.total_time("zeros.z_partial"), s),
        "zeros.inversion_check_s": (t.total_time("zeros.inversion_check"), s),
        "zeros.verdict_mismatches": (sum(1 for _, c in inversion_wrong if c == "consistent"), count),
        "goldens.verify_table_s": (t.total_time("goldens.verify_table"), s),
        "goldens.cells_ok_frac": (sum(r.matches for r in cells) / len(cells) if cells else 0.0, frac),
        "probe.f_eval_s": (t.total_time("probe.f_eval"), s),
        "probe.f_eval_calls": (t.calls("probe.f_eval"), count),
        "probe.zeta_complex_calls": (t.calls("probe.zeta_complex"), count),
        "probe.zeta_deriv_s": (t.total_time("probe.zeta_deriv"), s),
        "probe.line_probe_self_s": (t.self_time("probe.line_probe"), s),
        "probe.sample_yield": (sum(len(p.samples) for p in probes) / requested if requested else 0.0, frac),
        "cli.self_s": (t.self_time("cli.main"), s),
        "trace.overhead_frac": (overhead, frac),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def environment() -> dict:
    import mpmath

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "src_py_lines": src_lines,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "likeiper").is_dir():
        print(f"perfbench: no likeiper sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import likeiper

    if not Path(likeiper.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported likeiper from {likeiper.__file__}, not {SRC}", file=sys.stderr)
        return 1
    reference = json.loads(REFERENCE.read_text())
    known = json.loads(KNOWN_DEFECTS.read_text())
    ops = WORKLOADS[workload]
    rng = random.Random(seed)
    units, unit_name = UNITS[workload]
    detail = {"workload": workload, "seed": seed, "units": unit_name,
              "env": environment()}

    if not trace:
        setup_before = measure_setup()
        walls_raw, walls, slowdowns, passes = [], [], [], []
        start = time.perf_counter()
        with HostSpeed() as host:
            while True:
                wall_raw, wall, outputs = run_pass(ops, rng, host)
                walls_raw.append(wall_raw)
                walls.append(wall)
                slowdowns.append(wall_raw / wall)
                passes.append(outputs)
                if time.perf_counter() - start >= seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_raw, setup_slowdowns, setup = (
            before + after for before, after in zip(setup_before, measure_setup()))
        checked = check_passes(passes, reference, known)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "work_per_s": (units / statistics.median(walls), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        detail.update(setup_s=summary(setup), wall_s=summary(walls),
                      setup_raw_s=summary(setup_raw), wall_raw_s=summary(walls_raw),
                      setup_slowdown=summary(setup_slowdowns), host_slowdown=summary(slowdowns))
        identical = True
    else:
        tracer, (plain, traced, again), untraced_s, traced_s = run_traced(ops, rng)
        checked = check_passes([plain, traced, again], reference, known)
        identical = plain == traced == again
        metrics = layer_metrics(tracer, traced, reference, traced_s / untraced_s - 1)
        detail.update(untraced_wall_s=untraced_s, traced_wall_s=traced_s,
                      traced_outputs_identical=identical, spans=len(tracer.spans))

    detail.update(
        fail_frac=checked["failed"] / checked["attempted"],
        wrong_frac=checked["cells_wrong"] / checked["cells_checked"],
        **checked,
    )
    correct = checked["failed"] == 0 and not checked["unexpected_wrong_cells"] and identical
    print("# detail " + json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':44s} {detail['fail_frac']:.6g} frac")
    print(f"{'wrong_frac':44s} {detail['wrong_frac']:.6g} frac")
    print(json.dumps({"correct": correct, "attempted": checked["attempted"],
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced and traced, each in its own process; prints a
    table and writes ``results/BENCH.json``."""
    results = {}
    for workload in WORKLOADS:
        for t in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            detail = json.loads(next(l for l in lines if l.startswith("# detail "))[9:])
            results.setdefault(workload, {})["trace" if t else "end_to_end"] = {
                "result": json.loads(lines[-1]), "detail": detail}

    print("# env: " + json.dumps(results["coeffs"]["end_to_end"]["detail"]["env"], sort_keys=True))
    print(f"{'workload':8s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for workload, res in results.items():
        d = res["end_to_end"]["detail"]
        m = res["end_to_end"]["result"]["metrics"]
        rows = [(name, d[name]) for name in
                ("setup_s", "wall_s", "setup_raw_s", "wall_raw_s", "setup_slowdown",
                 "host_slowdown")]
        for name, stats in rows:
            print(f"{workload:8s} {name:14s} {stats['median']:12.4f} {stats['q1']:12.4f} "
                  f"{stats['q3']:12.4f} {stats['n']:3d}")
        for name in ("work_per_s", "peak_rss_mb"):
            print(f"{workload:8s} {name:14s} {m[name]['value']:12.4f}")
        for name in ("fail_frac", "wrong_frac"):
            print(f"{workload:8s} {name:14s} {d[name]:12.6f}")
        print(f"{workload:8s} {'correct':14s} {res['end_to_end']['result']['correct']!s:>12s}")
        traced = res["trace"]["result"]
        traced_s = res["trace"]["detail"]["traced_wall_s"]
        print(f"{workload:8s} traced run: {traced_s:.4f} s, correct={traced['correct']}")
        for name, m in traced["metrics"].items():
            if m["value"]:
                share = f"{100 * m['value'] / traced_s:6.1f}%" if m["unit"] == "s" else ""
                print(f"{'':8s}   {name:40s} {m['value']:12.6g} {m['unit']:6s} {share}")
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "BENCH.json"
    path.write_text(json.dumps({"seed": seed, "seconds": seconds, "results": results},
                               indent=1, sort_keys=True) + "\n")
    print(f"# wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
