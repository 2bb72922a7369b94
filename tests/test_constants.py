"""Constants are checked against independently derived oracles.

The shipped Stieltjes table and the helper constants all ultimately come
from one library, so the tests here recompute the anchor values by
unrelated routes: Brent-McMillan for the Euler constant, an explicit
Euler-Maclaurin expansion of sum(log k / k) for the first Stieltjes
coefficient, and the Apery central-binomial series for zeta(3).
"""

import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec, euler_fixed, ln2_fixed

from conftest import agrees_to
from likeiper import bigreal, constants
from likeiper.bigreal import BigReal
from likeiper.constants import (
    ConstantsError,
    _elementary,
    euler_gamma,
    load_stieltjes,
    polygamma_half,
    zeta_int,
    zeta_ints,
)
from likeiper.datafiles import DataFormatError, default_stieltjes_path, parse_indexed_table
from likeiper.lambda_core import lambda1_closed_form, tiny_series
from likeiper.recurrences import model_predictor

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "reference.json"


def brent_mcmillan_gamma(dps: int = 70, n: int = 35) -> mpmath.mpf:
    """Euler's constant via the Bessel-function ratio.

    gamma = (sum H_k a_k) / (sum a_k) - log n  with  a_k = (n^k / k!)^2;
    the error is O(e^(-4n)), about 1e-60 at n = 35.
    """
    with mp.workdps(dps + 10):
        a = mp.mpf(1)
        h = mp.mpf(0)
        num = mp.mpf(0)
        den = mp.mpf(0)
        for k in range(0, 6 * n):
            num += a * h
            den += a
            a *= mp.mpf(n) ** 2 / (k + 1) ** 2
            h += mp.mpf(1) / (k + 1)
        return num / den - mp.log(n)


def euler_maclaurin_gamma1(dps: int = 60, big_n: int = 60, terms: int = 14) -> mpmath.mpf:
    """First Stieltjes coefficient via Euler-Maclaurin for f(x) = log(x)/x.

    Uses f^(m)(x) = (-1)^m m! (log x - H_m) / x^(m+1), which turns the
    correction terms into  B_2j/(2j) * (log N - H_{2j-1}) / N^(2j).
    With N = 60 and 14 terms the truncation error is near 1e-42.
    """
    with mp.workdps(dps + 15):
        n = mp.mpf(big_n)
        total = mp.fsum(mp.log(k) / k for k in range(1, big_n + 1))
        total -= mp.log(n) ** 2 / 2
        total -= mp.log(n) / (2 * n)
        for j in range(1, terms + 1):
            harmonic = mp.fsum(mp.mpf(1) / i for i in range(1, 2 * j))
            total += mp.bernoulli(2 * j) / (2 * j) * (mp.log(n) - harmonic) / n ** (2 * j)
        return total


def apery_zeta3(dps: int = 60) -> mpmath.mpf:
    """zeta(3) = (5/2) sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k))."""
    with mp.workdps(dps + 10):
        total = mp.mpf(0)
        for k in range(1, 120):
            total += mp.mpf((-1) ** (k - 1)) / (k**3 * mp.binomial(2 * k, k))
        return mp.mpf(5) / 2 * total


def agrees(x: BigReal, y_mpf: mpmath.mpf, digits: int) -> bool:
    with mp.workdps(max(x.precision, digits) + 10):
        return bool(abs(x.value - y_mpf) < mp.mpf(10) ** (-digits))


class TestEulerGamma:
    def test_brent_mcmillan_oracle(self):
        oracle = brent_mcmillan_gamma()
        assert agrees(euler_gamma(60), oracle, 50)

    def test_precision_stability(self):
        assert agrees_to(euler_gamma(60), euler_gamma(100), 55)

    def test_known_digits(self):
        assert euler_gamma(30).to_decimal_string(10) == "0.5772156649"


class TestZetaInt:
    def test_apery_oracle(self):
        assert agrees(zeta_int(3, 60), apery_zeta3(), 50)

    def test_basel(self):
        with mp.workdps(70):
            assert agrees(zeta_int(2, 60), mp.pi**2 / 6, 55)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_matches_library(self, k):
        with mp.workdps(70):
            assert agrees(zeta_int(k, 60), mp.zeta(k), 55)

    def test_rejects_pole_and_small(self):
        with pytest.raises(ValueError):
            zeta_int(1, 50)
        with pytest.raises(ValueError):
            zeta_int(0, 50)
        with pytest.raises(ValueError):
            zeta_ints(0, 50)


class TestZetaInts:
    """The batched pass against mpmath's independent zeta at 20 more digits."""

    @pytest.mark.parametrize("precision", [30, 100, 200])
    def test_every_k_matches_library(self, precision):
        # 2^wp-scaled ints, within the documented 10^-(precision+10) of zeta(k)
        wp, values = zeta_ints(120, precision)
        assert wp == dps_to_prec(precision + 15) + 10
        assert sorted(values) == list(range(2, 121))
        assert all(isinstance(value, int) for value in values.values())
        with mp.workdps(precision + 20):
            for k, value in values.items():
                assert abs(mp.mpf(value) / 2**wp - mp.zeta(k)) < mp.mpf(10) ** -(precision + 10), k


class TestPolygammaHalf:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_matches_library(self, k):
        with mp.workdps(70):
            assert agrees(polygamma_half(k, 60), mp.psi(k, mp.mpf("0.5")), 50)

    def test_base_value_closed_form(self):
        # psi(1/2) = -gamma - 2 log 2
        with mp.workdps(70):
            expected = BigReal(-mp.euler - 2 * mp.log(2), 60)
        assert agrees_to(polygamma_half(0, 60), expected, 55)

    def test_base_value_rounded_once(self):
        # -gamma - 2 log 2 at 60 more digits, rounded once to each tag's bits; the
        # sum of two tagged values it replaced differed in the last bit at 39 tags
        for precision in range(10, 151):
            with mp.workdps(precision + 60):
                exact = -mp.euler - 2 * mp.log(2)
            expected = mpmath.mpf(exact, prec=bigreal._bits(precision))
            assert polygamma_half(0, precision).value._mpf_ == expected._mpf_, precision

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zeta_closed_form(self, k):
        # psi^(k)(1/2) = (-1)^(k+1) k! (2^(k+1) - 1) zeta(k+1)
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        sign = 1 if (k + 1) % 2 == 0 else -1
        expected = BigReal(sign * fact * (2 ** (k + 1) - 1), 60) * zeta_int(k + 1, 60)
        assert agrees_to(polygamma_half(k, 60), expected, 52)


class TestStieltjesTable:
    def test_load_default(self, stieltjes):
        assert stieltjes.digits == 130
        assert stieltjes.k_max == 80
        assert sorted(stieltjes.entries) == list(range(81))

    def test_gamma_beyond_range_raises(self, stieltjes):
        message = "Stieltjes table covers k <= 80; gamma_81 missing"
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            stieltjes.gamma(81)

    def test_within_one_unit_of_the_reference(self, stieltjes):
        # an independent source: perfbench's reference computed gamma_0..gamma_79
        # at 190 digits and stored them to 130 significant digits
        reference = json.loads(REFERENCE.read_text())["stieltjes"]
        assert len(reference) == 80
        for k, text in enumerate(reference):
            unit = Fraction(10) ** (Decimal(text).adjusted() - 129)
            assert abs(Fraction(stieltjes.entries[k]) - Fraction(text)) <= unit, k

    def test_gamma0_oracle(self, stieltjes):
        assert agrees(BigReal(stieltjes.gamma(0), 60), brent_mcmillan_gamma(), 50)

    def test_gamma1_oracle(self, stieltjes):
        assert agrees(BigReal(stieltjes.gamma(1), 60), euler_maclaurin_gamma1(), 35)

    def test_default_path_exists(self):
        assert default_stieltjes_path().is_file()

    def test_gamma_converts_the_file_text_at_the_table_digits(self, stieltjes):
        # gamma(k) is the text's exact value; rounded once at the table's digits
        # it is mpmath's own reading of the text
        _, rows = parse_indexed_table(default_stieltjes_path())
        prec = dps_to_prec(stieltjes.digits + 5)
        for k, text in rows:
            assert stieltjes.entries[k] == text
            assert stieltjes.gamma(k) == Fraction(text)
            gamma = BigReal(stieltjes.gamma(k), stieltjes.digits)
            assert gamma.value._mpf_ == mpmath.mpf(text, prec=prec, rounding="n")._mpf_

    def test_tiny_series_converts_only_the_gammas_it_reads(self, monkeypatch):
        table = load_stieltjes()
        converted = []
        original = constants.exact_decimal
        monkeypatch.setattr(constants, "exact_decimal",
                            lambda text: converted.append(text) or original(text))
        tiny_series(11, 30, table)
        assert converted == [table.entries[k] for k in range(11)]


def shipped_table_with(tmp_path: Path, old: str, new: str) -> Path:
    """The shipped Stieltjes table with the first match of regex ``old`` replaced."""
    path = tmp_path / "stieltjes.tsv"
    path.write_text(re.sub(old, new, default_stieltjes_path().read_text(), count=1))
    return path


class TestShippedTableChecksAtLoad:
    """Each defect fails in load_stieltjes itself, with the message it has always had,
    although the entries are converted only when read."""

    def test_malformed_row_70(self, tmp_path):
        path = shipped_table_with(tmp_path, r"\n70\t79321663\.", "\n70\t79321663.1e5x")
        rows = enumerate(path.read_text().splitlines(), start=1)
        line, text = next((line, row) for line, row in rows if row.startswith("70\t"))
        message = f"{path}:{line}: value {text[3:]!r} is not a plain decimal"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_stieltjes(path)

    def test_gap_in_the_indices(self, tmp_path):
        path = shipped_table_with(tmp_path, r"\n40\t[^\n]*", "")
        message = f"{path}: Stieltjes indices must be contiguous from 0; expected 40, found 41"
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            load_stieltjes(path)

    def test_wrong_gamma0(self, tmp_path):
        path = shipped_table_with(tmp_path, r"\n0\t0\.57721566490153286060",
                                  "\n0\t0.57721566490153286061")
        message = (f"{path}: gamma_0 entry 0.57721566490153286062 does not match "
                   "the Euler constant 0.57721566490153286061")
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            load_stieltjes(path)

    @pytest.mark.parametrize("header, message", [
        ("1OO", "'# digits: 1OO' is not a digit count"),
        ("8", "table digit count 8 too small (minimum 10)"),
    ])
    def test_bad_digits_header(self, tmp_path, header, message):
        path = shipped_table_with(tmp_path, r"# digits: 130", f"# digits: {header}")
        with pytest.raises(ConstantsError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_stieltjes(path)


def write_table(tmp_path: Path, body: str, digits: int = 30) -> Path:
    path = tmp_path / "table.tsv"
    path.write_text(f"# digits: {digits}\n{body}")
    return path


GAMMA0 = "0.577215664901532860606512090082"
GAMMA1 = "-0.0728158454836767248605863758749"


class TestLoadErrors:
    def test_gap_in_indices(self, tmp_path):
        path = write_table(tmp_path, f"0\t{GAMMA0}\n2\t{GAMMA1}\n")
        with pytest.raises(ConstantsError, match="contiguous"):
            load_stieltjes(path)

    def test_not_starting_at_zero(self, tmp_path):
        path = write_table(tmp_path, f"1\t{GAMMA1}\n")
        with pytest.raises(ConstantsError, match="contiguous"):
            load_stieltjes(path)

    def test_wrong_gamma0_rejected(self, tmp_path):
        path = write_table(tmp_path, f"0\t0.577215664901532860606512090182\n1\t{GAMMA1}\n")
        with pytest.raises(ConstantsError, match="Euler constant"):
            load_stieltjes(path)

    def test_digit_count_too_small(self, tmp_path):
        path = write_table(tmp_path, "0\t0.5772156649\n", digits=8)
        with pytest.raises(ConstantsError, match="too small"):
            load_stieltjes(path)

    def test_good_small_table_loads(self, tmp_path):
        path = write_table(tmp_path, f"0\t{GAMMA0}\n1\t{GAMMA1}\n")
        table = load_stieltjes(path)
        assert table.k_max == 1
        assert table.digits == 30


class TestGamma0Boundary:
    """A 30-digit table's gamma_0 may be off by less than 1/2 10^-28, and no more."""

    @staticmethod
    def table_off_by(tmp_path, units):
        # gamma_0 at 40 places, off gamma by `units` 10^-40, rounding below 10^-40
        with mp.workdps(60):
            places = int(mp.nint(mp.euler * 10**40)) + units
        return write_table(tmp_path, f"0\t0.{places}\n1\t{GAMMA1}\n")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_just_under_the_margin_loads(self, tmp_path, sign):
        assert load_stieltjes(self.table_off_by(tmp_path, sign * (5 * 10**11 - 10**6))).digits == 30

    @pytest.mark.parametrize("sign", [1, -1])
    def test_just_over_the_margin_raises_the_old_message(self, tmp_path, sign):
        path = self.table_off_by(tmp_path, sign * (5 * 10**11 + 10**6))
        message = (f"{path}: gamma_0 entry 0.57721566490153286061 does not match "
                   "the Euler constant 0.57721566490153286061")
        with pytest.raises(ConstantsError, match=f"^{re.escape(message)}$"):
            load_stieltjes(path)


class TestIntConstants:
    def test_bit_identical_to_libmp(self):
        # gamma by Brent-McMillan and log 2 by atanh(1/3) are libmp's ints, bit for bit
        for wp in range(20, 1201, 7):
            assert constants._euler_int(wp) == euler_fixed(wp), wp
            assert constants._ln2_int(wp) == ln2_fixed(wp), wp


def model_constant(precision):
    """The large-n model's c, read off model_predictor: phi1(2) = -2 * 1 log 1 = 0,
    so the predictor at n = 2 is 2 (c + gamma)."""
    return model_predictor(2, precision) / 2 - euler_gamma(precision)


class TestFundamentalConstants:
    """The constants lambda1_closed_form and model_predictor build for themselves."""

    def test_model_constant_digits(self):
        assert model_constant(50).to_decimal_string(4) == "-1.1303"

    def test_fields_consistent(self):
        with mp.workdps(70):
            assert agrees(lambda1_closed_form(60), 1 + mp.euler / 2 - mp.log(4 * mp.pi) / 2, 55)
        # log(4 pi) - log(2 pi) = log 2 turns lambda(1) = 1 + gamma/2 - log(4 pi)/2
        # and c = (gamma - 1 - log 2pi)/2 into lambda(1) = c + (3 - log 2)/2
        with mp.workdps(70):
            log_two = BigReal(mp.log(2), 60)
        assert agrees_to(lambda1_closed_form(60),
                         model_constant(60) + (BigReal(3, 60) - log_two) / 2, 55)

    def test_c_model_definition(self):
        # c = (gamma - 1 - log 2pi) / 2
        with mp.workdps(70):
            assert agrees(model_constant(60), (mp.euler - 1 - mp.log(2 * mp.pi)) / 2, 55)

    def test_log_helpers(self):
        # gamma, log 2 and log pi as 2^wp-scaled ints, within a few units of mpmath's
        for digits in (10, 60, 150):
            wp = dps_to_prec(digits + 15)
            with mp.workprec(wp + 40):
                exact = [mp.euler, mp.log(2), mp.log(mp.pi)]
                for got, value in zip(_elementary(wp), exact):
                    assert abs(got - value * 2**wp) < 4, digits
