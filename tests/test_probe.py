"""Probe map checks.

The strongest test here pins ``f_eval`` to the coefficient layer: the
Taylor coefficients of f(1/(1-z)), extracted by a roots-of-unity DFT on a
circle of radius 0.3, must reproduce lambda_tiny(n)/gamma. Everything the
probe reports flows through f_eval, so this one identity anchors it all.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

import likeiper.probe as probe_module
from likeiper.bigreal import BigReal
from likeiper.cli import main
from likeiper.constants import euler_gamma
from likeiper.probe import (
    DEFAULT_PROBE_DIGITS,
    NearCollision,
    ProbeEvaluationError,
    f_eval,
    line_probe,
    zeta_complex,
    zeta_deriv,
)


def _printed(report, places):
    """Each sample's parameter and f at ``places`` places, as the CLI prints them."""
    return [(s.param, s.f_re.to_decimal_string(places), s.f_im.to_decimal_string(places))
            for s in report.samples]


# Grid samples from both 100-sample benchmark probe lines (b = 1 with
# t = 30 i/99, and t = 14.134725 with b = 0.55 + 2.45 i/99) plus points off them.
ORACLE_POINTS = (
    [complex(1, 30 * i / 99) for i in (1, 25, 47, 73, 99)]
    + [complex(0.55 + 2.45 * i / 99, 14.134725) for i in (0, 20, 60, 99)]
    + [0, 2, complex(-1, 0.5)]
)


class TestZetaComplex:
    def test_basel_to_20_digits(self):
        with mp.workdps(40):
            assert abs(zeta_complex(2, 30) - mp.pi**2 / 6) < mpmath.mpf(10) ** -20

    def test_zeta_zero_value(self):
        with mp.workdps(40):
            assert abs(zeta_complex(0, 30) - mpmath.mpf(-1) / 2) < mpmath.mpf(10) ** -20

    @pytest.mark.parametrize(
        "s", [complex(2, 3), complex(0.5, 14.0), complex(-1, 0.5), complex(1.5, 30.0)]
    )
    def test_matches_library_off_axis(self, s):
        with mp.workdps(45):
            expected = mpmath.zeta(mpmath.mpc(s))
            assert abs(zeta_complex(s, 30) - expected) < mpmath.mpf(10) ** -25

    def test_small_near_first_zero(self, zeros):
        t1 = float(zeros.ordinates[0])
        with mp.workdps(40):
            value = zeta_complex(complex(0.5, t1), 30)
            assert abs(value) < mpmath.mpf(10) ** -4

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_real_path(self, k):
        from likeiper.constants import zeta_int

        with mp.workdps(40):
            diff = abs(zeta_complex(k, 30) - zeta_int(k, 30).value)
            assert diff < mpmath.mpf(10) ** -20

    @pytest.mark.parametrize("s", [1, mpmath.mpf(1), complex(1, 0), mpmath.mpc(1, 0)])
    def test_pole_exactly_at_one(self, s):
        with pytest.raises(ProbeEvaluationError, match=r"^zeta has its pole at s = 1$"):
            zeta_complex(s, 15)

    def test_a_point_that_rounds_onto_the_pole_evaluates(self):
        # Im s = 1e-400 is 0 at the engine's unlifted 2^-140, but s is not 1
        s = mpmath.mpc(1, mpmath.mpf("1e-400"))
        got = zeta_complex(s, 15)
        with mp.workprec(2000):
            expected = mpmath.zeta(s)
            assert abs(got - expected) <= mpmath.mpf(10) ** -15 * abs(expected)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_relative_error_near_the_pole(self, sign):
        # s - 1 is formed exactly, and lifts wp by the bits |s - 1| costs: without the lift
        # Im s = -1e-45 floored to one unit of 2^-wp and zeta came out with relative error 0.999
        for k in range(10, 61):
            s = mpmath.mpc(1, sign * mpmath.mpf(10) ** -k)
            got, dgot = probe_module._zeta_and_deriv(s, 15)
            with mp.workdps(55):
                z, dz = mpmath.zeta(s), mpmath.zeta(s, derivative=1)
                assert abs(got - z) <= mpmath.mpf(10) ** -15 * abs(z), k
                assert abs(dgot - dz) <= mpmath.mpf(10) ** -15 * abs(dz), k

    def test_a_point_past_the_lift_cap_near_the_pole_is_named(self):
        message = ("zeta evaluation at (1.0 + 1.0e-400000000j) needs more than 10000 extra digits"
                   " for s near 1")
        with pytest.raises(ProbeEvaluationError, match=f"^{re.escape(message)}$"):
            zeta_complex(mpmath.mpc(1, mpmath.mpf("1e-400000000")), 15)


class TestZetaDeriv:
    @pytest.mark.parametrize("s", [complex(2, 0), complex(2, 3), complex(1.5, 10)])
    def test_matches_library_derivative(self, s):
        with mp.workdps(45):
            expected = mpmath.zeta(mpmath.mpc(s), derivative=1)
            assert abs(zeta_deriv(s, 30) - expected) < mpmath.mpf(10) ** -20


# Far up the critical strip, where N grows with |Im s|.
HIGH_POINTS = [complex(0.5, 100), complex(2, 500), complex(-0.5, 500)]
# Re s << 0: direct terms reach N^(-Re s) and cancel; the kernel lifts its
# precision by that many digits.
LIFTED_POINTS = [-21, -41, -101, complex(-30, 50)]


class TestEngineOracle:
    """zeta and zeta' against mpmath's independent evaluation at 30 more digits.

    The kernel runs with the global precision left at mpmath's default 15
    digits, so a value converted back at the ambient precision would fail.
    """

    @pytest.mark.parametrize("precision", [15, 30, 60, 100])
    @pytest.mark.parametrize("s", ORACLE_POINTS + HIGH_POINTS + LIFTED_POINTS)
    def test_relative_error_within_precision(self, s, precision):
        assert mp.dps == 15
        got, dgot = probe_module._zeta_and_deriv(s, precision)
        with mp.workdps(precision + 30):
            sv = mpmath.mpc(s)
            bound = mpmath.mpf(10) ** -precision
            z = mpmath.zeta(sv)
            zp = mpmath.zeta(sv, derivative=1)
            assert abs(got - z) <= bound * abs(z)
            assert abs(dgot - zp) <= bound * abs(zp)

    @pytest.mark.parametrize("precision", [15, 30, 50])
    @pytest.mark.parametrize("s", [complex(0.5, 236.5), complex(2, 1000), complex(-5, 3), -101,
                                   complex(3, -20)])
    def test_public_values_to_the_requested_digits(self, s, precision):
        # N from the remainder bound grows with |s|/(2 pi), not with |Im s|
        got, dgot = zeta_complex(s, precision), zeta_deriv(s, precision)
        with mp.workdps(precision + 30):
            sv = mpmath.mpc(s)
            bound = mpmath.mpf(10) ** -precision
            z, zp = mpmath.zeta(sv), mpmath.zeta(sv, derivative=1)
            assert abs(got - z) <= bound * abs(z)
            assert abs(dgot - zp) <= bound * abs(zp)

    def test_f_eval_far_left_of_the_strip(self):
        # without the lift this printed -12600.197... with no error
        got = f_eval(-41.5, 30)
        with mp.workdps(120):
            s = mpmath.mpf(-41.5)
            zeta, dzeta = mpmath.zeta(s), mpmath.zeta(s, derivative=1)
            expected = (s + s * (s - 1) * dzeta / zeta) / mpmath.euler
            assert abs(got - expected) <= mpmath.mpf(10) ** -30 * abs(expected)
            assert abs(expected + 1077) < 1

    def test_nothing_is_built_at_import(self):
        code = (
            "import likeiper.cli, likeiper.constants as c; "
            "assert c._BERNOULLI_WEIGHTS == {}, c._BERNOULLI_WEIGHTS; "
            "likeiper.probe.f_eval(2, 20); assert c._BERNOULLI_WEIGHTS"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_line_values_where_n_changes(self, monkeypatch):
        # the benchmark im line at 30 digits: N runs 25..36 along it, and the tail's
        # multipliers c_(j+1)/(c_j N^2) are one table per working precision and N
        seen = []
        engine = probe_module._zeta_fixed

        def recording(s, work, *line):
            result = engine(s, work, *line)
            seen.append((mp.make_mpc(s), *(mp.make_mpc(tuple(from_man_exp(x, -result[0]) for x in v))
                                          for v in result[2:])))
            return result

        monkeypatch.setattr(probe_module, "_zeta_fixed", recording)
        points = [probe_module._point(complex(1.0, 30 * i / 29), 30) for i in range(1, 30)]
        assert len({probe_module._size(s, 33)[1] for s in points}) >= 10
        line_probe("im", 1.0, 0.0, 30.0, samples=30, precision=30)
        assert len(seen) == 29
        with mp.workdps(60):
            for s, z, dz in seen:
                assert abs(z - mpmath.zeta(s)) <= mpmath.mpf(10) ** -30 * abs(z), s
                assert abs(dz - mpmath.zeta(s, derivative=1)) <= mpmath.mpf(10) ** -30 * abs(dz), s

    def test_f_eval_runs_the_engine_once(self, monkeypatch):
        calls = []
        engine = probe_module._zeta_fixed

        def counting(s, precision, *line):
            calls.append(s)
            return engine(s, precision, *line)

        monkeypatch.setattr(probe_module, "_zeta_fixed", counting)
        f_eval(complex(2, 3), 30)
        f_eval(complex(1, 14.134725), 20)
        assert len(calls) == 2


class TestFOracle:
    """f against mpmath's zeta and zeta' at 30 more digits, relative to |f|."""

    @pytest.mark.parametrize("precision", [15, 30, 60, 100])
    @pytest.mark.parametrize("s", ORACLE_POINTS + HIGH_POINTS + LIFTED_POINTS)
    def test_relative_error_within_precision(self, s, precision):
        got = f_eval(s, precision)
        with mp.workdps(precision + 30):
            sv = mpmath.mpc(s)
            q = mpmath.zeta(sv, derivative=1) / mpmath.zeta(sv)
            expected = (sv + sv * (sv - 1) * q) / mpmath.euler
            assert abs(got - expected) <= mpmath.mpf(10) ** -precision * abs(expected)


class TestFEval:
    def test_rejects_near_pole(self):
        with pytest.raises(ProbeEvaluationError, match="too close to s = 1"):
            f_eval(complex(1, 1e-9), 30)

    @pytest.mark.parametrize("s, message", [
        (complex(1, 1e30), "more than 100000 direct terms"),
        (complex(-1e300, 0), "more than 10000 extra digits for Re s < 0"),
    ])
    def test_refuses_points_past_the_caps(self, s, message):
        # refused before the sieve or 2^wp is built (both raised OverflowError)
        with pytest.raises(ProbeEvaluationError, match=message):
            f_eval(s, 30)

    @pytest.mark.parametrize("s", [mpmath.mpf("1e4000"), mpmath.mpf("1e12000")], ids=str)
    def test_answers_huge_points_relative_to_f(self, s):
        # f_eval's budget is relative to |f|: an absolute one asked for 4000 and 12000 more
        # digits here, and refused 10^12000 for its 10000-digit cap
        got = f_eval(s, 30)
        with mp.workdps(40):
            expected = s / mpmath.euler  # s (s-1) zeta'/zeta is about -s^2 2^-s log 2
            assert abs(got - expected) <= mpmath.mpf(10) ** -15 * abs(expected)

    @pytest.mark.parametrize("s, point", [
        (mpmath.mpc(0.5, mpmath.mpf("1e400")), "(0.5 + 1.0e+400j)"),
        (mpmath.mpc(mpmath.mpf("-1e400"), 0), "(-1.0e+400 + 0.0j)"),
    ])
    def test_refusals_name_the_point(self, s, point):
        # complex() of these parts overflows: the messages once read (0.5+infj), (-inf+0j)
        with pytest.raises(ProbeEvaluationError) as refused:
            zeta_complex(s, 15)
        assert str(refused.value).startswith(f"zeta evaluation at {point} needs more than")

    @pytest.mark.parametrize("evaluate", [zeta_complex, zeta_deriv, f_eval],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("s", [
        complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1), math.nan,
        mpmath.mpf("-inf"), mpmath.mpc(1, mpmath.mpf("nan")),
    ], ids=repr)
    def test_refuses_non_finite_points(self, evaluate, s):
        # nan once read as 0: zeta_complex(nan) returned zeta(0) = -0.5, f_eval 0
        with pytest.raises(ProbeEvaluationError, match="non-finite point"):
            evaluate(s, 15)

    def test_huge_finite_point_is_not_refused(self):
        # the test reads the raw tuple: float() of 1e400 is inf, the mpf is not
        s = mpmath.mpf("1e400")
        assert zeta_complex(s, 15) == 1
        assert zeta_deriv(s, 15) == 0
        assert f_eval(s, 15).real > 10**399

    def test_huge_real_point_builds_no_sum(self, monkeypatch):
        # past Re s = 2 wp zeta = 1 and zeta' = 0 are exact and s(s-1) zeta'/zeta is
        # below 2^-wp: the relative budget holds at the first pass, and the engine
        # builds neither sum nor Bernoulli weight
        works = []
        engine = probe_module._zeta_fixed
        monkeypatch.setattr(probe_module, "_zeta_fixed",
                            lambda s, work, *a: works.append(work) or engine(s, work, *a))
        monkeypatch.setattr(probe_module, "bernoulli_weight", None)
        monkeypatch.setattr(probe_module, "log_int_fixed", None)
        s = mpmath.mpf("1e400")
        got = f_eval(s, 15)
        assert works == [15 + 3]
        with mp.workdps(40):
            assert abs(got - s / mpmath.euler) <= mpmath.mpf(10) ** -15 * s / mpmath.euler

    def test_refuses_a_retry_that_misses_the_budget(self, monkeypatch):
        # an engine that ignores the digits asked for: the retry is no better than the
        # first pass, and the sample is refused rather than returned.  A line's budget is
        # absolute, so the roundings of |f| ~ 10^11 at the first pass's wp miss it too.
        engine = probe_module._zeta_fixed
        monkeypatch.setattr(probe_module, "_zeta_fixed",
                            lambda s, work, *a: engine(s, 33, *a))
        t = float(T1) + 1e-9  # |zeta| ~ 1e-9: the first pass falls short
        with pytest.raises(ProbeEvaluationError, match="more than one retry"):
            line_probe("im", 0.5, t, t + 1e-9, samples=2, precision=30)

    def test_f_vanishes_at_s_0(self):
        # f(0) = 0 exactly: a relative budget alone could never be met there
        assert f_eval(0, 30) == 0

    def test_line_records_points_past_the_caps(self, monkeypatch):
        # N from the remainder bound at 30 digits (33 working digits) on Re s = 2: 29,
        # 42, 60 and 78 for t = 0, 50, 100 and 150, then 93, 107 and 122; a cap of 90
        # refuses t >= 200
        monkeypatch.setattr(probe_module, "_MAX_TERMS", 90)
        report = line_probe("im", 2.0, 0.0, 300.0, samples=7)
        assert [s.param for s in report.samples] == [0.0, 50.0, 100.0, 150.0]
        assert [f.param for f in report.failures] == [200.0, 250.0, 300.0]
        assert all("more than 90 direct terms" in f.reason for f in report.failures)

    def test_rejects_near_zero_of_zeta(self, zeros):
        t1 = float(zeros.ordinates[0])
        with pytest.raises(ProbeEvaluationError, match="near a zero"):
            f_eval(complex(0.5, t1), 30)

    def test_value_at_2(self):
        # f(2) = (1/gamma) * 2 * (1 + zeta'(2)/zeta(2)), via central differences
        with mp.workdps(50):
            h = mpmath.mpf(10) ** -15
            zp = (mpmath.zeta(2 + h) - mpmath.zeta(2 - h)) / (2 * h)
            expected = 2 * (1 + zp / mpmath.zeta(2)) / mpmath.euler
            got = f_eval(2, 30)
            assert abs(got - expected) < mpmath.mpf(10) ** -12
            assert abs(mpmath.im(got)) < mpmath.mpf(10) ** -25

    def test_taylor_coefficients_match_tiny_part(self, table7):
        # DFT on |z| = 0.3 with 32 nodes: [z^n] f(1/(1-z)) = lambda_tiny(n)/gamma
        M, precision = 32, 40
        gamma = euler_gamma(50)
        with mp.workdps(60):
            r = mpmath.mpf("0.3")
            values = [
                f_eval(1 / (1 - r * mpmath.expjpi(2 * mpmath.mpf(j) / M)), precision)
                for j in range(M)
            ]
            for n in range(1, 7):
                coeff = sum(
                    values[j] * mpmath.expjpi(-2 * mpmath.mpf(j) * n / M) for j in range(M)
                ) / (M * r**n)
                target = (table7.tiny[n] / gamma).value
                assert abs(mpmath.re(coeff) - target) < mpmath.mpf(10) ** -10
                assert abs(mpmath.im(coeff)) < mpmath.mpf(10) ** -10

    def test_first_coefficient_is_one(self, table7):
        # special case of the identity above: a_1 = 1 exactly
        gamma = euler_gamma(50)
        assert (table7.tiny[1] / gamma).to_fraction() == 1


class TestLineProbe:
    def test_default_digits(self):
        assert DEFAULT_PROBE_DIGITS == 30

    def test_grid_covers_endpoints(self):
        report = line_probe("re", 1.0, 2.0, 3.0, samples=5, precision=20)
        assert report.failures == ()
        params = [s.param for s in report.samples]
        assert params[0] == 2.0
        assert params[-1] == 3.0
        assert len(params) == 5

    def test_pole_failure_recorded_not_fatal(self):
        # t = 0 at b = 1 is s = 1 itself; the scan continues past it
        report = line_probe("im", 1.0, 0.0, 1.0, samples=6, precision=20)
        assert len(report.failures) == 1
        assert report.failures[0].param == 0.0
        assert "too close to s = 1" in report.failures[0].reason
        assert len(report.samples) == 5

    def test_low_line_injective(self):
        report = line_probe("im", 1.0, 0.0, 4.5, samples=80, precision=20)
        assert report.sampled_injective
        assert len(report.near_collisions) == 0

    def test_horizontal_line_real_part_monotone(self):
        # along s = b + i the real part increases strictly; the imaginary
        # part rises to a fold near b = 3.5 and is NOT injective on its own
        report = line_probe("re", 1.0, 1.0, 10.0, samples=100, precision=20)
        assert report.sampled_injective
        res = [float(s.f_re) for s in report.samples]
        assert all(a < b for a, b in zip(res, res[1:]))
        ims = [float(s.f_im) for s in report.samples]
        assert any(a > b for a, b in zip(ims, ims[1:]))
        assert any(a < b for a, b in zip(ims, ims[1:]))

    def test_huge_tolerance_flags_collisions(self):
        # positive control: with tol past the curve diameter every
        # non-adjacent pair collides, so the detector must fire
        report = line_probe("im", 1.0, 1.0, 2.0, samples=10, precision=20, tol=100.0)
        assert not report.sampled_injective
        assert len(report.near_collisions) > 0

    def test_adjacent_samples_never_count(self):
        # continuity makes neighbors close; only pairs separated by more
        # than one grid step may be flagged
        report = line_probe("im", 1.0, 1.0, 2.0, samples=10, precision=20, tol=100.0)
        step = report.grid_step
        for nc in report.near_collisions:
            assert abs(nc.param1 - nc.param2) > step * 1.5

    @pytest.mark.parametrize("kind", ["re", "im"])
    def test_output_independent_of_ambient_dps(self, kind):
        # the sample points are exact floats; rounding them at the caller's
        # mp.dps (5 digits is about 20 bits) would move every f value
        fixed, lo, hi = (14.134725, 0.55, 3.0) if kind == "re" else (0.55, 13.9, 14.3)
        outputs = []
        for dps in (5, 15, 500):
            with mp.workdps(dps):
                report = line_probe(kind, fixed, lo, hi, samples=5, precision=30)
                outputs.append(_printed(report, 30))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="kind"):
            line_probe("diagonal", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="samples"):
            line_probe("im", 1.0, 0.0, 1.0, samples=1)
        with pytest.raises(ValueError, match="hi > lo"):
            line_probe("im", 1.0, 2.0, 2.0)
        for fixed, lo, hi in [
            (math.inf, 0.0, 1.0),
            (math.nan, 0.0, 1.0),
            (1.0, -math.inf, 1.0),
            (1.0, 0.0, math.inf),
            (1.0, 0.0, math.nan),
        ]:
            with pytest.raises(ValueError, match="finite line"):
                line_probe("im", fixed, lo, hi, samples=2, precision=20)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            line_probe("im", 1.0, 1.0, 2.0, samples=4, precision=20, tol=tol)

    @pytest.mark.parametrize(
        "kind, fixed, lo, hi, evaluated",
        [
            ("re", 0.0, 0.9999999, 1.0000001, 0),  # both samples next to the pole
            ("im", 1.0, 0.0, 1.0, 1),  # t = 0 is the pole, t = 1 has no partner
        ],
    )
    def test_fewer_than_two_evaluated_samples_raise(self, kind, fixed, lo, hi, evaluated):
        with pytest.raises(ProbeEvaluationError, match=f"only {evaluated} of 2 samples evaluated"):
            line_probe(kind, fixed, lo, hi, samples=2, precision=20)

    @pytest.mark.parametrize(
        "kind, fixed, lo, hi, samples, evaluated",
        [
            # the first two samples lie within 1e-6 of the pole at s = 1
            ("re", 0.0, 0.9999995, 1.0000025, 4, 2),
            # two samples are always grid neighbours
            ("im", 2.0, 1.0, 2.0, 2, 2),
        ],
    )
    def test_only_grid_neighbours_evaluated_raise(self, kind, fixed, lo, hi, samples, evaluated):
        with pytest.raises(
            ProbeEvaluationError,
            match=f"the {evaluated} evaluated samples of {samples} are all grid neighbours",
        ):
            line_probe(kind, fixed, lo, hi, samples=samples, precision=15)

    def test_tsv_format(self):
        # the CLI writes a probe line's samples through its one table writer
        argv = "probe --line im --b 1.0 --t0 1 --t1 2 --samples 4 --digits 20".split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        lines = out.getvalue().splitlines()
        assert lines[:4] == ["# line: vary_im", "# fixed: 1.0", "# range: [1.0, 2.0] samples: 4",
                             "# columns: param\tre_f\tim_f"]
        report = line_probe("im", 1.0, 1.0, 2.0, samples=4, precision=20)
        data = [tuple(line.split("\t")) for line in lines if not line.startswith("#")]
        assert data == [(repr(p), re_f, im_f) for p, re_f, im_f in _printed(report, 20)]
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])  # probe output is always TSV
        assert exc.value.code == 2

    def test_deterministic(self):
        a = line_probe("im", 1.0, 1.0, 3.0, samples=20, precision=20)
        b = line_probe("im", 1.0, 1.0, 3.0, samples=20, precision=20)
        assert _printed(a, 20) == _printed(b, 20)


# The float nearest the first zero's ordinate, 14.1347251417346937904...
T1 = "14.134725141734694"


def _exact_value(x):
    """An mpf's exact value as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


class TestPrintedPlaces:
    """Every printed probe cell within one unit of its last place.

    The oracle is mpmath's own zeta and zeta' at --digits + 40, independent of
    ``_zeta_fixed``.  Near a zero |f| has up to 17 integer digits and the
    quotient zeta'/zeta magnifies the engine's error by 1/|zeta|, so each sample
    needs working digits sized from its own error budget, and a tag that counts
    the integer digits too.
    """

    @pytest.mark.parametrize("line", [
        # through rho_1 + 10^-14 .. 10^-10, and rho_1 - 10^-10 .. 10^-14
        f"--line re --t {T1} --b0 0.50000000000001 --b1 0.5000000001 --samples 5 --digits 30",
        f"--line re --t {T1} --b0 0.4999999999 --b1 0.49999999999999 --samples 5 --digits 30",
        f"--line re --t {T1} --b0 0.50000000000001 --b1 0.5000000001 --samples 5 --digits 50",
        # Re s = 0.5 across the ordinates of rho_1 and rho_2 (21.0220396387715...)
        "--line im --b 0.5 --t0 14.1347251416 --t1 14.1347251418 --samples 5 --digits 30",
        "--line im --b 0.5 --t0 21.0220396387 --t1 21.0220396389 --samples 5 --digits 30",
        # Re s < 0: lifted working precisions
        "--line re --t 5 --b0 -60 --b1 -20 --samples 5 --digits 30",
    ])
    def test_every_cell_within_one_unit_of_mpmath(self, line):
        argv = ["probe", *line.split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) in (0, 1)
        digits = int(argv[argv.index("--digits") + 1])
        kind, fixed = argv[2], float(argv[4])
        rows = [row.split("\t") for row in out.getvalue().splitlines() if not row.startswith("#")]
        assert len(rows) >= 4
        wrong = []
        with mp.workdps(digits + 40):
            for param, *printed in rows:
                re_s, im_s = (float(param), fixed) if kind == "re" else (fixed, float(param))
                s = mpmath.mpc(re_s, im_s)
                f = (s + s * (s - 1) * mpmath.zeta(s, derivative=1) / mpmath.zeta(s)) / mpmath.euler
                for text, exact in zip(printed, (f.real, f.imag)):
                    units = abs(Fraction(text) - _exact_value(exact)) * 10**digits
                    if units > 1:
                        wrong.append((param, text, float(units)))
        assert wrong == []


def _brute_force_collisions(points, step_gate, tol):
    """Every pair a < b compared in turn: the oracle for the sorted sweep."""
    near = []
    for a in range(len(points)):
        pa, fa = points[a]
        for b in range(a + 1, len(points)):
            pb, fb = points[b]
            if abs(pa - pb) <= step_gate:
                continue
            dist = abs(fa - fb)
            if dist < tol:
                near.append(NearCollision(param1=pa, param2=pb, distance=dist))
    return tuple(near)


# Quarter-integer parts give equal Re f values and distances of exactly tol;
# plain floats give everything else.
_parts = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-3, 3))


class TestNearCollisionSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.tuples(_parts, _parts), min_size=2, max_size=40),
        step=st.sampled_from([0.1, 0.25, 1.0, 3.0 / 7]),
        tol=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(1e-6, 5)),
    )
    def test_same_pairs_in_the_same_order_as_every_pair(self, values, step, tol):
        points = [(i * step, complex(re, im)) for i, (re, im) in enumerate(values)]
        step_gate = step * (1 + 1e-9)
        got = probe_module._near_collisions(points, step_gate, tol)
        assert got == _brute_force_collisions(points, step_gate, tol)

    def test_equal_real_parts_and_distance_at_tol(self):
        f = [0, 1j, 0.5j, 0.5, 2j, 1j]
        points = [(float(i), complex(v)) for i, v in enumerate(f)]
        got = probe_module._near_collisions(points, 1.0, 0.5)
        # |f_0 - f_2| = |f_0 - f_3| = 0.5 = tol does not count; 1 and 5 coincide
        assert got == (NearCollision(1.0, 5.0, 0.0),)
        assert got == _brute_force_collisions(points, 1.0, 0.5)


def _distinct_steps(params):
    """The exact differences of consecutive float parameters."""
    return {Fraction(b) - Fraction(a) for a, b in zip(params, params[1:])}


class TestLineStepping:
    """line_probe steps each prime's p^(-s) from one sample to the next.

    The engine is spied on inside ``line_probe`` itself, so the values
    checked are the stepped ones the probe uses.
    """

    @staticmethod
    def _probe_engine(monkeypatch, kind, fixed, lo, hi, samples, precision):
        seen = []
        engine = probe_module._zeta_fixed

        def recording(s, precision, *line):
            result = engine(s, precision, *line)
            wp, _, z, zp = result
            # the point's raw mpf parts and the 2^wp-scaled ints, as exact mpc values
            exact = (mp.make_mpc(tuple(from_man_exp(x, -wp) for x in v)) for v in (z, zp))
            seen.append((mp.make_mpc(s), *exact))
            return result

        monkeypatch.setattr(probe_module, "_zeta_fixed", recording)
        report = line_probe(kind, fixed, lo, hi, samples=samples, precision=precision)
        return report, seen

    @pytest.mark.parametrize(
        "kind, fixed, lo, hi, samples, min_steps",
        [
            # N = 64 + int(t) at 30 digits: its bit length, so wp, changes at t = 64
            ("im", 0.5, 60.0, 68.0, 40, 1),
            # the lift ceil(-Re s log10 N) goes 2, 1, 0 digits
            ("re", 30.0, -1.0, 1.0, 21, 1),
            # the first sample is the pole, so the first evaluated one is t = step
            ("im", 1.0, 0.0, 4.0, 12, 1),
            # a long line: ten distinct exact float steps
            ("im", 2.0, 0.3, 17.9, 90, 8),
        ],
    )
    def test_stepped_values_match_mpmath(
        self, monkeypatch, kind, fixed, lo, hi, samples, min_steps
    ):
        precision = 30
        report, seen = self._probe_engine(monkeypatch, kind, fixed, lo, hi, samples, precision)
        assert len(seen) >= len(report.samples) > 1
        params = [float(s.real if kind == "re" else s.imag) for s, _, _ in seen]
        assert len(_distinct_steps(params)) >= min_steps
        with mp.workdps(precision + 30):
            bound = mpmath.mpf(10) ** -precision
            for s, got, dgot in seen:
                sv = mpmath.mpc(s)
                z, zp = mpmath.zeta(sv), mpmath.zeta(sv, derivative=1)
                assert abs(got - z) <= bound * abs(z), s
                assert abs(dgot - zp) <= bound * abs(zp), s

    def test_first_sample_at_the_pole(self, monkeypatch):
        report, seen = self._probe_engine(monkeypatch, "im", 1.0, 0.0, 4.0, 12, 30)
        assert [f.param for f in report.failures] == [0.0]
        assert seen[0][0] == complex(1.0, 4.0 / 11)

    @pytest.mark.parametrize(
        "kind, fixed, lo, hi, samples",
        [
            # the two benchmark lines, and one higher on the critical line
            ("im", 1.0, 0.0, 30.0, 100),
            ("re", 14.134725, 0.55, 3.0, 100),
            ("im", 0.5, 60.0, 68.0, 40),
            # Re s < 0: lifted working precisions, |p^(-s)| > 1
            ("im", -3.0, 1.0, 40.0, 60),
            ("re", 30.0, -1.0, 1.0, 21),
            # toward rho_1: the samples within about 0.03 of it retry at more digits
            ("im", 0.5, 13.9, 14.13, 100),
        ],
    )
    def test_rows_match_one_point_f_eval(self, kind, fixed, lo, hi, samples):
        # f_eval starts from an empty line, so each p^(-s) there is one _power call; the
        # line's are stepped through its cached p^(-delta)
        report = line_probe(kind, fixed, lo, hi, samples=samples, precision=30)
        rows = _printed(report, 30)
        assert rows
        for p, *printed in rows:
            f = f_eval(complex(p, fixed) if kind == "re" else complex(fixed, p), 30)
            assert printed == [BigReal(x, 30).to_decimal_string(30) for x in (f.real, f.imag)]

    def test_exp_and_cos_sin_once_per_prime_and_step(self, monkeypatch):
        # Every sample of a line sums to its one N at one working precision, so each
        # prime's power comes from _power at its first sample and at each distinct step
        # after it: no prime drops out where a point's own N dips, to come back and step
        # from a stale held power.  _power is the one place exp and cos/sin run, and on an
        # im line only the first sample has a real part to step by, so each prime takes
        # one exp and one cos/sin per _power call.  A sample whose budget asks for more
        # digits is evaluated again from a fresh state, one _power per prime, and leaves
        # the line's state alone.
        states, calls, kernels = [], [], []
        engine, power = probe_module._zeta_fixed, probe_module._power

        def recording(s, work, line, guard):
            states.append(line)
            return engine(s, work, line, guard)

        def counting(log_n, re, im, wp):
            calls.append((len(states) - 1, round(math.exp(log_n / 2**wp))))
            return power(log_n, re, im, wp)

        monkeypatch.setattr(probe_module, "_zeta_fixed", recording)
        monkeypatch.setattr(probe_module, "_power", counting)
        for name in ("mpf_exp", "mpf_cos_sin"):
            original = getattr(probe_module, name)
            monkeypatch.setattr(probe_module, name, lambda *a, _n=name, _f=original:
                                kernels.append((len(states) - 1, _n)) or _f(*a))

        def primes(state):  # up to the state's one N
            n = max(len(v[0]) for k, v in state.items() if isinstance(k, tuple) and k[0] == "log")
            return [p for p in range(2, n) if all(p % q for q in range(2, p))]

        for kind, fixed, lo, hi, retries in [
            # the 100-sample benchmark im line: no sample retries, t <= 30 at 33 working
            # digits gives N = 36, and the sample at the pole is refused before any step
            ("im", 1.0, 0.0, 30.0, False),
            # toward rho_1 on the critical line: the samples within about 0.03 of it retry
            ("im", 0.5, 13.9, 14.13, True),
        ]:
            states.clear()
            calls.clear()
            kernels.clear()
            report = line_probe(kind, fixed, lo, hi, samples=100, precision=30)
            line = states[0]
            assert len([k for k in line if isinstance(k, tuple) and k[0] == "log"]) == 1
            steps = _distinct_steps([s.param for s in report.samples])
            counts = {p: 0 for p in primes(line)}
            for i, p in calls:
                if states[i] is line:
                    counts[p] += 1
            if not retries:  # 11 primes up to N = 36, 99 samples with 8 distinct steps
                assert counts == {p: 9 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)}
                assert (line["N"], len(report.samples), len(steps)) == (36, 99, 8)
            assert counts == {p: 1 + len(steps) for p in primes(line)}
            on_line = [name for i, name in kernels if states[i] is line]
            assert on_line.count("mpf_exp") == len(counts)
            assert on_line.count("mpf_cos_sin") == sum(counts.values())
            fresh = [i for i, state in enumerate(states) if state is not line]
            assert bool(fresh) == retries
            for i in fresh:
                assert sorted(p for j, p in calls if j == i) == primes(states[i])

    def test_size_once_per_grid_point(self, monkeypatch):
        # the line sizes each grid point once, before its first sample, and _zeta_fixed
        # reads that size; a sample that retries, from a fresh state, sizes its point again
        sizes, fresh = [], []
        size, engine = probe_module._size, probe_module._zeta_fixed
        monkeypatch.setattr(probe_module, "_size", lambda *a: sizes.append(1) or size(*a))
        monkeypatch.setattr(probe_module, "_zeta_fixed",
                            lambda s, work, line, guard: fresh.append(not line)
                            or engine(s, work, line, guard))
        for fixed, lo, hi, retries in [(1.0, 0.0, 30.0, False), (0.5, 13.9, 14.13, True)]:
            sizes.clear()
            fresh.clear()
            line_probe("im", fixed, lo, hi, samples=100, precision=30)
            assert any(fresh) == retries
            assert len(sizes) == 100 + sum(fresh)

    # |s - 1| = 10^-6 and one float ulp either side of it, on both axes; the benchmark
    # im line's t = 0 sample is s = 1 itself
    _GUARD_POINTS = [
        (1.0, 0.0), (1.0, 1e-6), (1.0, -1e-6), (1 + 1e-6, 0.0), (1 - 1e-6, 0.0),
        *((1.0, math.nextafter(1e-6, d)) for d in (0, 1)),
        *((1.0, -math.nextafter(1e-6, d)) for d in (0, 1)),
        *((math.nextafter(1 + 1e-6, d), 0.0) for d in (0, 2)),
        *((math.nextafter(1 - 1e-6, d), 0.0) for d in (0, 2)),
        (1 + 5e-7, 8.660254037844386e-7), (1 + 6e-7, 8e-7), (1.0, 1e-300), (1 - 2**-40, 9.9e-7),
        (0.5, 0.0), (2.0, 0.0), (1.0, 1.0),
    ]

    @pytest.mark.parametrize("precision", [10, 30, 60])
    def test_pole_guard_verdict(self, precision):
        # f_eval refuses as the mpmath test it replaces did, |s - 1| < 10^-6 at precision + 15
        # digits, and evaluates every other point
        from mpmath.libmp import fone, ften, mpc_abs, mpc_sub_mpf, mpf_lt, mpf_pow_int

        def refused(s):
            try:
                f_eval(s, precision)
            except ProbeEvaluationError as exc:
                assert "too close to s = 1" in str(exc)
                return True
            return False

        prec = mpmath.libmp.dps_to_prec(precision + 15)
        for re_s, im_s in self._GUARD_POINTS:
            s = tuple(mpmath.libmp.from_float(x) for x in (re_s, im_s))
            before = mpf_lt(mpc_abs(mpc_sub_mpf(s, fone, prec, "n"), prec, "n"),
                            mpf_pow_int(ften, -6, prec, "n"))
            assert refused(complex(re_s, im_s)) == before, (re_s, im_s)
        assert not refused(complex(1, 1.0000001e-6))
        assert refused(mpmath.mpc(1, mpmath.mpf("1e-400000000")))

    def test_pole_guard_calls_no_mpmath_function(self):
        called = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name != "_near_pole":
                called.append(frame.f_code.co_filename)
            elif event == "c_call" and arg is not sys.setprofile:
                called.append(getattr(arg, "__module__", None) or "")

        points = [tuple(mpmath.libmp.from_float(x) for x in s) for s in self._GUARD_POINTS]
        sys.setprofile(profile)
        try:
            for s in points:
                probe_module._near_pole(s)
        finally:
            sys.setprofile(None)
        assert called and set(called) == {"builtins"}  # min and max

    def test_log_once_per_prime_and_working_precision(self, monkeypatch):
        # the line keeps its sieve and log n, extended as N grows to 36
        calls = []
        original = probe_module.log_int_fixed
        monkeypatch.setattr(
            probe_module, "log_int_fixed", lambda n, wp: calls.append((n, wp)) or original(n, wp)
        )
        line_probe("im", 1.0, 0.0, 30.0, samples=100, precision=30)
        assert len(calls) == len(set(calls))
        assert all(n <= 36 and all(n % q for q in range(2, n)) for n, _ in calls)
        assert len(calls) <= 11 * len({wp for _, wp in calls})
