"""Probe map checks.

The strongest test here pins ``f_eval`` to the coefficient layer: the
Taylor coefficients of f(1/(1-z)), extracted by a roots-of-unity DFT on a
circle of radius 0.3, must reproduce lambda_tiny(n)/gamma. Everything the
probe reports flows through f_eval, so this one identity anchors it all.
"""

import math
import os
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
        # refused before the sieve or 2^wp is built: both raised OverflowError
        with pytest.raises(ProbeEvaluationError, match=message):
            f_eval(s, 30)

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

    def test_line_records_points_past_the_caps(self, monkeypatch):
        # N from the remainder bound at 30 digits on Re s = 2: 37, 49, 69 and 88
        # for t = 0, 50, 100 and 150, then 103, 119 and 134; a cap of 100 refuses t >= 200
        monkeypatch.setattr(probe_module, "_MAX_TERMS", 100)
        report = line_probe("im", 2.0, 0.0, 300.0, samples=7)
        assert [s.param for s in report.samples] == [0.0, 50.0, 100.0, 150.0]
        assert [f.param for f in report.failures] == [200.0, 250.0, 300.0]
        assert all("more than 100 direct terms" in f.reason for f in report.failures)

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
                outputs.append(line_probe(kind, fixed, lo, hi, samples=5, precision=30).to_tsv())
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
        report = line_probe("im", 1.0, 1.0, 2.0, samples=4, precision=20)
        text = report.to_tsv()
        lines = text.splitlines()
        assert lines[0] == "# line: vary_im"
        assert lines[1].startswith("# fixed: ")
        assert any(line.startswith("# columns: param") for line in lines)
        data = [line for line in lines if not line.startswith("#")]
        assert len(data) == len(report.samples)
        for row in data:
            param, f_re, f_im = row.split("\t")
            float(param), float(f_re), float(f_im)

    def test_deterministic(self):
        a = line_probe("im", 1.0, 1.0, 3.0, samples=20, precision=20).to_tsv()
        b = line_probe("im", 1.0, 1.0, 3.0, samples=20, precision=20).to_tsv()
        assert a == b


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
        ],
    )
    def test_rows_match_one_point_f_eval(self, monkeypatch, kind, fixed, lo, hi, samples):
        # f_eval starts from an empty line, so every p^(-s) there comes from exp and
        # cos/sin; the line's are stepped, mostly through nudged p^(-delta)
        nudges = []
        nudge = probe_module._nudge
        monkeypatch.setattr(probe_module, "_nudge", lambda *a: nudges.append(1) or nudge(*a))
        report = line_probe(kind, fixed, lo, hi, samples=samples, precision=30)
        assert nudges
        monkeypatch.setattr(probe_module, "_nudge", None)  # a fresh state never nudges
        rows = [line for line in report.to_tsv().splitlines() if not line.startswith("#")]
        assert len(rows) == len(report.samples) > 0
        for row, sample in zip(rows, report.samples):
            p = sample.param
            f = f_eval(complex(p, fixed) if kind == "re" else complex(fixed, p), 30)
            re_f, im_f = (BigReal(x, 30).to_decimal_string(30) for x in (f.real, f.imag))
            assert row == f"{p!r}\t{re_f}\t{im_f}"

    @pytest.mark.parametrize("wp", [64, 100, 200, 333])
    @pytest.mark.parametrize("bits", [32, 33, 40, 45, 47, 52, 60])
    def test_nudge_matches_exp(self, wp, bits):
        # (x + i y) exp(e0 + i e1) with |e0| + |e1| just under 2^(wp - bits), against
        # mpmath at twice the bits: within one unit per term, so no term may be left out
        scale = (1 << (wp - bits)) - 1
        with mp.workprec(2 * wp):
            for x, y, c0, c1 in [(7, 0, -8, 0), (3, -4, 4, -4), (-2, 7, -3, 5), (0, 6, 1, 7)]:
                x, y, e0, e1 = x << (wp - 3), y << (wp - 3), c0 * scale // 8, c1 * scale // 8
                got = probe_module._nudge(x, y, e0, e1, wp)
                exact = mpmath.mpc(x, y) * mpmath.exp(mpmath.mpc(e0, e1) / 2**wp)
                terms = -(-wp // bits)
                assert abs(got[0] - exact.real) <= terms and abs(got[1] - exact.imag) <= terms

    def test_exp_and_cos_sin_once_per_prime_and_step(self, monkeypatch):
        # the 100-sample benchmark im line; t <= 30 at 30 digits gives N <= 43.
        # A prime's power comes from exp and cos/sin at its first sample and at its
        # first grid step, or again where N dips below it and grows back; every
        # later step is nudged, though the grid has 8 distinct steps.
        calls = []
        for name in ("mpf_exp", "mpf_cos_sin"):
            original = getattr(probe_module, name)
            monkeypatch.setattr(
                probe_module, name, lambda *a, _f=original: calls.append(1) or _f(*a)
            )
        report = line_probe("im", 1.0, 0.0, 30.0, samples=100, precision=30)
        steps = _distinct_steps([s.param for s in report.samples])
        primes = sum(all(p % q for q in range(2, p)) for p in range(2, 44))
        assert (primes, len(steps)) == (14, 8)
        assert len(calls) <= 4 * primes

    def test_log_once_per_prime_and_working_precision(self, monkeypatch):
        # the line keeps its sieve and log n, extended as N grows to 43
        calls = []
        original = probe_module.log_int_fixed
        monkeypatch.setattr(
            probe_module, "log_int_fixed", lambda n, wp: calls.append((n, wp)) or original(n, wp)
        )
        line_probe("im", 1.0, 0.0, 30.0, samples=100, precision=30)
        assert len(calls) == len(set(calls))
        assert all(n <= 43 and all(n % q for q in range(2, n)) for n, _ in calls)
        assert len(calls) <= 14 * len({wp for _, wp in calls})
