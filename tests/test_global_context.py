"""Nothing in likeiper reads or sets mpmath's process-global precision:
every function passes its precision explicitly, so another thread's
``mp.workdps`` cannot change its results."""

import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp

import likeiper
from likeiper.bigreal import BigReal
from likeiper.constants import euler_gamma, polygamma_half
from likeiper.lambda_core import (conjecture_scan, lambda1_closed_form, lambda_table, tiny_series,
                                  trend_series)
from likeiper.probe import f_eval, zeta_complex
from likeiper.recurrences import (RecurrenceScheme, VOROS, model_predictor, phi_nlogn,
                                  self_seeded_run)
from likeiper.zeros import delta_bound, load_zeros, z_partial, z_tail_bound

SRC = Path(likeiper.__file__).parent
_CONTEXT = re.compile(r"workdps|workprec|mp\.prec|mp\.dps")


def test_no_module_names_the_global_context():
    hits = [(path.name, number, line.strip())
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if _CONTEXT.search(line)]
    assert hits == []


_POINT = mpmath.mpc(mpmath.mpf("0.666666666666666666666666666666666667", prec=200), 1)

CONVERTED = {
    "euler_gamma": lambda: euler_gamma(80),
    "polygamma_half": lambda: polygamma_half(0, 40),
    "lambda1_closed_form": lambda: lambda1_closed_form(60),
    "phi_nlogn": lambda: phi_nlogn(30, 30),
    "model_predictor": lambda: model_predictor(12, 30),
    "delta_bound": lambda: delta_bound(8, 40),
    "z_partial": lambda: z_partial(8, load_zeros(), 40),
    "z_tail_bound": lambda: z_tail_bound(8, load_zeros(), 40),
    "trend_series": lambda: trend_series(40, 50),
    "tiny_series": lambda: tiny_series(32, 50),
    "lambda_table": lambda: lambda_table(20, 40),
    "conjecture_scan": lambda: conjecture_scan(16, 30),
    "f_eval": lambda: f_eval(0.7 + 3.3j, 30),
    "zeta_complex": lambda: zeta_complex(_POINT, 30),
    "self_seeded_run": lambda: self_seeded_run(RecurrenceScheme(kind=VOROS),
                                               BigReal(Fraction(2, 3), 30), n_max=8),
}


def _bits(value):
    if isinstance(value, BigReal):
        return value.raw, value.precision
    if isinstance(value, mpmath.mpc):
        return value._mpc_
    if isinstance(value, int):  # a table's n_max or tag, a scan row's n or verdict
        return value
    return tuple(map(_bits, value))


def test_results_ignore_another_threads_precision():
    # a thread looping mp.workdps(8) once changed every one of these values
    expected = {name: _bits(call()) for name, call in CONVERTED.items()}
    stop, interval, dps = threading.Event(), sys.getswitchinterval(), mp.dps

    def churn():
        while not stop.is_set():
            with mp.workdps(8):
                mpmath.mpf(1) / 3

    sys.setswitchinterval(1e-5)  # switch threads often, so the loops interleave
    thread = threading.Thread(target=churn, daemon=True)
    thread.start()
    try:
        for _ in range(20):
            for name, call in CONVERTED.items():
                assert _bits(call()) == expected[name], name
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
    assert mp.dps == dps
