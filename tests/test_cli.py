import contextlib
import io
import json
import re
import shlex
import shutil
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from likeiper import cli, lambda_core
from likeiper.bigreal import BigReal
from likeiper.cli import main
from likeiper.datafiles import default_stieltjes_path, default_zeros_path
from likeiper.goldens import load_golden, recompute_table, tables_dir

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "reference.json"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def data_rows(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            float(fields[0])
        except ValueError:
            continue  # header line
        rows.append(fields)
    return rows


class TestLambda:
    def test_matches_20_digit_targets(self):
        code, out, err = run("lambda", "--n-max", "7", "--digits", "20")
        assert code == 0 and err == ""
        rows = data_rows(out)
        assert [r[0] for r in rows] == [str(n) for n in range(1, 8)]
        targets = load_golden("coeff20")
        for row in rows:
            n = int(row[0])
            target = Decimal(targets.cell(n, "lam").target)
            assert abs(Decimal(row[3]) - target) <= Decimal("0.5e-19")

    def test_digits_100_within_one_unit_of_the_reference(self):
        # lambda_32_100 of the benchmark's reference, computed at 190 digits
        # from mpmath primitives alone and stored to 130 significant digits
        cells = json.loads(REFERENCE.read_text())["ops"]["lambda_32_100"]
        want = {(int(row), column): Fraction(value) for row, column, _, value, *_ in cells}
        code, out, err = run("lambda", "--n-max", "32", "--digits", "100")
        assert code == 0 and err == ""
        rows = data_rows(out)
        assert [int(row[0]) for row in rows] == list(range(1, 33))
        columns = ("trend_over_n", "tiny_over_n", "lambda")
        wrong = [(int(row[0]), column) for row in rows for column, text in zip(columns, row[1:])
                 if abs(Fraction(text) - want[int(row[0]), column]) > Fraction(1, 10**100)]
        assert wrong == []

    def test_digits_at_the_stieltjes_table_boundary(self):
        # n = 32 works guard_digits(32) = 15 digits past --digits, at most 130
        code, out, err = run("lambda", "--n-max", "32", "--digits", "115")
        assert code == 0 and err == ""
        assert len(data_rows(out)) == 32
        code, out, err = run("lambda", "--n-max", "32", "--digits", "116")
        assert code == 2 and out == ""
        assert err == ("likeiper: error: lambda to n = 32 at 116 digits reads gamma_0..gamma_31 "
                       "at 131 digits; the Stieltjes table has gamma_0..gamma_80 at 130\n")

    def test_single_row(self):
        code, out, _ = run("lambda", "--n-max", "1", "--digits", "20")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 1
        assert rows[0][3].startswith("0.02309570896612103381")

    def test_row_9_decomposition(self):
        code, out, _ = run("lambda", "--n-max", "9", "--digits", "20")
        assert code == 0
        row9 = data_rows(out)[8]
        assert row9[1].startswith("0.05114662684")  # trend part, per its 12-digit table
        assert row9[2].startswith("0.1545107")
        assert row9[3].startswith("1.8509160")

    def test_header(self):
        _, out, _ = run("lambda", "--n-max", "2")
        assert out.splitlines()[0] == "n\ttrend_over_n\ttiny_over_n\tlambda"

    def test_csv_format(self):
        code, out, _ = run("lambda", "--n-max", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,trend_over_n,tiny_over_n,lambda"
        assert "\t" not in out

    def test_out_file_matches_stdout(self, tmp_path):
        _, stdout_text, _ = run("lambda", "--n-max", "4")
        target = tmp_path / "lam.tsv"
        code, out, _ = run("lambda", "--n-max", "4", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text

    def test_deterministic(self):
        a = run("lambda", "--n-max", "12", "--digits", "40")
        b = run("lambda", "--n-max", "12", "--digits", "40")
        assert a == b


class TestVerify:
    @pytest.mark.parametrize("table", ["1", "2", "3", "4", "5"])
    def test_numbered_tables_pass(self, table):
        code, out, err = run("verify", "--table", table)
        assert code == 0, err
        assert "# result: pass" in out

    def test_name_accepted(self):
        code, out, _ = run("verify", "--table", "nlogn_sums")
        assert code == 0
        assert out.startswith("# table: nlogn_sums")

    def test_flagged_rows_annotated(self):
        code, out, _ = run("verify", "--table", "3")
        assert code == 0
        flagged = [line for line in out.splitlines() if "FLAGGED" in line]
        assert len(flagged) == 2
        for line in flagged:
            assert "printed=" in line
            assert "corrected=" in line
            assert "correction-reproduced=yes" in line
            assert "printed-refuted=yes" in line

    def test_cell_summary_line(self):
        _, out, _ = run("verify", "--table", "5")
        summary = out.splitlines()[1]
        assert summary == "# cells: 64  unflagged-ok: 50/50  flagged: 14"

    @pytest.mark.parametrize(
        "old, new, marker",
        [
            ("4.158883083359", "4.158883083333", "recomputed="),
            # a wrong correction: the flagged cell is not reproduced
            ("-16.635532333438", "-16.635532333400", "correction-reproduced=no"),
            # a stale flag: the printed value equals its correction
            ("-16.635553233343!", "-16.635532333438!", "printed-refuted=no"),
        ],
        ids=["unflagged-mismatch", "wrong-correction", "stale-flag"],
    )
    def test_corrupted_fixture_fails(self, monkeypatch, tmp_path, old, new, marker):
        data = tmp_path / "data"
        shutil.copytree(tables_dir().parent, data)
        path = data / "tables" / "nlogn_sums.tsv"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        monkeypatch.setenv("LIKEIPER_DATA_DIR", str(data))
        code, out, _ = run("verify", "--table", "5")
        assert code == 1
        assert "# result: FAIL" in out
        assert any(marker in line for line in out.splitlines())

    def test_deterministic(self):
        assert run("verify", "--table", "4") == run("verify", "--table", "4")

    def test_digits_below_the_printed_places_exit_2(self):
        # table 4 prints 12 places, which 11 digits cannot decide
        code, out, err = run("verify", "--table", "4", "--digits", "11")
        assert (code, out) == (2, "")
        assert err == "likeiper: error: 11 digits cannot decide trend_fullhistory's 12 places\n"
        code, out, _ = run("verify", "--table", "4", "--digits", "12")
        assert code == 0
        assert out.splitlines()[-1] == "# result: pass"


def _self_seeded_ratio(scheme, c, n):
    """lambda(n)/lambda(1) of a self-seeded run: n^2 for a2, (c/2 - 1) n (n-1) + n
    for d and 1 + (c - 1)(n - 1) for order 2, with lambda(2) = c lambda(1)."""
    if scheme == "a2":
        return Fraction(n * n)
    if scheme == "d":
        return (c / 2 - 1) * n * (n - 1) + n
    return 1 + (c - 1) * (n - 1)


class TestApprox:
    def test_central_binomial_20_digit_values(self):
        code, out, _ = run(
            "approx", "--scheme", "a2", "--seed", "exact", "--n-max", "7", "--digits", "20"
        )
        assert code == 0
        targets = load_golden("coeff20")
        for row in data_rows(out):
            n = int(row[0])
            if n < 2:
                continue
            target = Decimal(targets.cell(n, "a2").target)
            assert abs(Decimal(row[1]) - target) <= Decimal("2.5e-17")

    def test_full_history_on_lambda_matches_targets(self):
        code, out, _ = run(
            "approx", "--scheme", "d", "--seed", "exact", "--n-max", "7",
            "--digits", "20", "--target", "lambda",
        )
        assert code == 0
        targets = load_golden("coeff20")
        for row in data_rows(out):
            n = int(row[0])
            if n < 2:
                continue
            target = Decimal(targets.cell(n, "a1").target)
            assert abs(Decimal(row[1]) - target) <= Decimal("2.5e-17")

    def test_tiny_normalized_columns(self):
        code, out, _ = run("approx", "--scheme", "d", "--seed", "exact", "--n-max", "15")
        assert code == 0
        rows = {int(r[0]): r for r in data_rows(out)}
        golden = load_golden("tiny_fullhistory")
        for n, row in rows.items():
            pred_target = Decimal(golden.cell(n, "pred").target)
            assert abs(Decimal(row[1]) - pred_target) <= Decimal("1e-12")
        # the much-quoted n = 15 agreement
        assert rows[15][3].startswith("0.000000004648")
        assert rows[15][4].startswith("0.0000000739")

    def test_order_2_ratio_table(self):
        code, out, _ = run("approx", "--scheme", "a1", "--seed", "exact", "--n-max", "11")
        assert code == 0
        rows = {int(r[0]): r for r in data_rows(out)}
        # predicted tiny/n at n=3 is 0.7833...*gamma = 0.4521...
        assert rows[3][1].startswith("0.4521")
        assert 2 in rows and 11 in rows

    def test_self_seeded_triangular(self):
        code, out, _ = run(
            "approx", "--scheme", "d", "--seed", "initial:3", "--n-max", "8", "--digits", "25"
        )
        assert code == 0
        assert out.splitlines()[0] == "n\tpredicted\tratio_to_lambda1"
        for row in data_rows(out):
            n = int(row[0])
            assert Decimal(row[2]) == n * (n + 1) // 2

    def test_self_seeded_squares(self):
        code, out, _ = run("approx", "--scheme", "a2", "--seed", "initial", "--n-max", "6")
        assert code == 0
        for row in data_rows(out):
            n = int(row[0])
            assert Decimal(row[2]) == n * n

    def test_self_seeded_values_beyond_the_digit_tag_exit_2(self):
        # the ratios (c/2 - 1) n (n-1) + n pass 10 integer digits at n = 6,
        # which --digits 10 cannot carry
        code, out, err = run(
            "approx", "--scheme", "d", "--seed", "initial:1e9", "--n-max", "100", "--digits", "10"
        )
        assert code == 2 and out == ""
        assert err == "likeiper: error: cannot print a value with 11 integer digits at tag 10\n"

    @pytest.mark.parametrize("scheme, c, n_max, digits", [("a2", None, 100, 30)] + [
        (scheme, c, 100, 30) for scheme in ("d", "a1", "m:2")
        for c in ("2", "3", "-1.5", "0.1", "7.25", "1e-3")
    ] + [
        # |r| near 10^6, where a ratio rounded to 53 bits first is off in its
        # last places (from n = 1052 on)
        ("d", "0.1", 1100, 10),
    ])
    def test_self_seeded_rows_are_closed_forms(self, scheme, c, n_max, digits):
        # row n is lambda(1) r_n for an exact r_n; each printed cell is rounded once
        seed = "initial" if c is None else f"initial:{c}"
        code, out, _ = run("approx", "--scheme", scheme, "--seed", seed,
                           "--n-max", str(n_max), "--digits", str(digits))
        assert code == 0
        with mpmath.workdps(200):
            man, exp = (1 + mpmath.euler / 2 - mpmath.log(4 * mpmath.pi) / 2).man_exp
        lam1, unit = man * Fraction(2) ** exp, Fraction(1, 10**digits)
        rows = data_rows(out)
        assert [int(row[0]) for row in rows] == list(range(1, n_max + 1))
        for n, predicted, ratio in rows:
            r = _self_seeded_ratio(scheme, c and Fraction(c), int(n))
            assert Fraction(ratio) == round(r / unit) * unit, n
            assert abs(Fraction(predicted) - lam1 * r) <= unit / 2 * Fraction(1001, 1000), n

    # the table is built at --digits + the scheme's guard, and tiny_series works
    # guard_digits(32) = 15 past that: at most 130, the Stieltjes table's digits
    @pytest.mark.parametrize("scheme, digits, guard", [
        ("a2", 100, 22), ("a2", 94, 22), ("d", 104, 12), ("a1", 112, 4)])
    def test_guard_past_the_stieltjes_digits_exit_2(self, scheme, digits, guard):
        code, out, err = run("approx", "--scheme", scheme, "--n-max", "32", "--digits", str(digits))
        assert code == 2 and out == ""
        work = digits + guard
        assert err == (f"likeiper: error: lambda to n = 32 at {work} digits reads gamma_0..gamma_31"
                       f" at {work + 15} digits; the Stieltjes table has gamma_0..gamma_80 at 130\n")

    @pytest.mark.parametrize("scheme, digits", [("a2", 93), ("d", 90), ("d", 103), ("a1", 97),
                                                ("a1", 111)])
    def test_guard_within_the_stieltjes_digits_runs(self, scheme, digits):
        code, out, err = run("approx", "--scheme", scheme, "--n-max", "32", "--digits", str(digits))
        assert code == 0 and err == ""
        assert [int(row[0]) for row in data_rows(out)] == list(range(2, 33))

    def test_order_spec_equivalent_to_named(self):
        named = run("approx", "--scheme", "b", "--seed", "exact", "--n-max", "9")
        spelled = run("approx", "--scheme", "m:3", "--seed", "exact", "--n-max", "9")
        assert named == spelled

    def test_unknown_scheme(self):
        code, _, err = run("approx", "--scheme", "zz", "--seed", "exact")
        assert code == 2
        assert "likeiper: error:" in err

    def test_bad_seed_constant(self):
        for c in ("abc", "1e999999"):
            code, out, err = run("approx", "--scheme", "d", "--seed", f"initial:{c}")
            assert code == 2 and out == ""
            assert err == (
                f"likeiper: error: bad --seed 'initial:{c}'; c must be a finite decimal number\n"
            )
        for c in ("nan", "inf"):
            code, out, err = run("approx", "--scheme", "d", "--seed", f"initial:{c}")
            assert code == 2 and out == ""
            assert f"likeiper: error: bad --seed 'initial:{c}'; c must be finite" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python has no int-string digit limit")
    def test_seed_digits_stop_at_the_int_string_limit(self):
        # c's digits and exponent count against the limit before any power of ten is built
        limit = sys.get_int_max_str_digits()
        code, out, _ = run("approx", "--scheme", "d", "--seed", f"initial:1e-{limit - 1}",
                           "--n-max", "2", "--digits", "30")
        assert code == 0 and out.splitlines()[-1].split("\t")[-1] == "0." + "0" * 30
        for c in (f"1e-{limit}", "1e-999999999"):
            code, out, err = run("approx", "--scheme", "d", "--seed", f"initial:{c}")
            assert code == 2 and out == ""
            assert err == (
                f"likeiper: error: bad --seed 'initial:{c}'; c must be a finite decimal number\n"
            )

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python has no int-string digit limit")
    def test_value_past_int_string_limit_exit_2(self):
        # c itself prints, but the seeded rows grow past c, still within the
        # tag's 2200 integer digits; the library names the value's integer
        # digits and the limit instead of Python's own message
        code, out, err = run("approx", "--scheme", "d", "--seed", "initial:1e2098",
                             "--n-max", "100", "--digits", "2200")
        assert code == 2 and out == ""
        assert err == (
            "likeiper: error: cannot print a value with 2101 integer digits at 2200 places: "
            f"past Python's {sys.get_int_max_str_digits()}-digit int-string limit\n"
        )

    @pytest.mark.parametrize("c, whole", [("1e10", 11), ("-12345678901.5", 11)])
    def test_seed_with_more_integer_digits_than_the_tag_exit_2(self, c, whole):
        # ratio_to_lambda1 prints c at n = 2, which --digits 10 cannot carry
        code, out, err = run("approx", "--scheme", "d", "--seed", f"initial:{c}",
                             "--n-max", "3", "--digits", "10")
        assert code == 2 and out == ""
        assert err == (f"likeiper: error: bad --seed 'initial:{c}'; cannot print a value"
                       f" with {whole} integer digits at tag 10\n")

    @pytest.mark.parametrize(
        "scheme, seed, need",
        [(s, "initial", "lambda(2) = c*lambda(1); use --seed initial:<c>")
         for s in ("d", "a1", "m:2")]
        + [("a2", f"initial:{c}", "lambda(1) alone; use --seed initial") for c in ("2", "0")],
    )
    def test_seed_form_the_scheme_cannot_take_names_the_right_one(self, scheme, seed, need):
        code, out, err = run("approx", "--scheme", scheme, "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"likeiper: error: --seed {seed}: scheme {scheme} needs {need}\n"

    @pytest.mark.parametrize("order", ["1", "0", "-3", "x", "2.5"])
    @pytest.mark.parametrize("seed", ["exact", "initial", "initial:2"])
    def test_bad_order_names_the_option_form(self, order, seed):
        code, out, err = run("approx", "--scheme", f"m:{order}", "--seed", seed)
        assert code == 2 and out == ""
        assert err == (
            f"likeiper: error: bad order in scheme 'm:{order}'; "
            "use m:<k> with integer k >= 2\n"
        )

    def test_order3_cannot_self_seed_from_lambda1_alone(self):
        # no option supplies the values at indices 2..k that order k >= 3 needs
        for scheme, top in (("b", 3), ("m:4", 4)):
            for seed in ("initial", "initial:3"):
                code, out, err = run("approx", "--scheme", scheme, "--seed", seed)
                assert code == 2 and out == ""
                assert err == (
                    f"likeiper: error: --seed initial: scheme {scheme} needs initial values at "
                    f"indices 2..{top}, which no option supplies; only a1, m:2, d and a2 "
                    "self-seed from the command line\n"
                )


class TestOnlyThePartRead:
    """``approx --target tiny|trend`` and ``verify`` tables 1-4 build only the
    lambda part they print; the trend reads no Stieltjes table."""

    @staticmethod
    def refuse(monkeypatch, name):
        # every likeiper module that holds lambda_core's function gets one that raises
        original = getattr(lambda_core, name)

        def unread(*args, **kwargs):
            raise AssertionError(f"{name} built for a command that prints none of it")

        for module in [m for key, m in sys.modules.items() if key.startswith("likeiper")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, unread)

    @pytest.mark.parametrize("argv", [
        *(("approx", "--scheme", s, "--n-max", "32", "--digits", "50")
          for s in ("a1", "b", "d", "m:4")),
        ("approx", "--scheme", "a2", "--target", "tiny", "--n-max", "12", "--digits", "30"),
        *(("verify", "--table", t, "--digits", "30") for t in ("1", "2", "3")),
    ], ids=" ".join)
    def test_tiny_commands_build_no_trend(self, monkeypatch, argv):
        expected = run(*argv)
        self.refuse(monkeypatch, "trend_series")
        assert run(*argv) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("argv", [
        *(("approx", "--scheme", s, "--target", "trend", "--n-max", "32", "--digits", "50")
          for s in ("a1", "d", "a2")),
        ("verify", "--table", "4", "--digits", "30"),
    ], ids=" ".join)
    def test_trend_commands_build_no_tiny(self, monkeypatch, argv):
        expected = run(*argv)
        self.refuse(monkeypatch, "tiny_series")
        assert run(*argv) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("target", [(), ("--target", "lambda"), ("--target", "trend")],
                             ids=lambda t: " ".join(t) or "default")
    def test_index_refused_before_any_part_is_built(self, monkeypatch, target):
        for name in ("tiny_series", "trend_series", "lambda_table"):
            self.refuse(monkeypatch, name)
        code, out, err = run("approx", "--scheme", "m:80", "--n-max", "79", *target)
        assert (code, out) == (2, "")
        assert err == "likeiper: error: --n-max 79 below the scheme's first index 80\n"

    def test_trend_approx_past_the_stieltjes_table(self):
        # tiny_series would work at 120 + 15 digits, past the table's 130
        argv = ("approx", "--scheme", "a1", "--target", "trend", "--n-max", "2")
        code, out, err = run(*argv, "--digits", "116")
        assert code == 0 and err == ""
        _, finer, _ = run(*argv, "--digits", "136")
        unit = Fraction(1, 10**116)
        rows, finer_rows = data_rows(out), data_rows(finer)
        assert [row[0] for row in rows] == [row[0] for row in finer_rows] == ["2"]
        for row, finer_row in zip(rows, finer_rows):
            for text, finer_text in zip(row[1:], finer_row[1:]):
                assert abs(Fraction(text) - Fraction(finer_text)) <= unit, (text, finer_text)

    def test_trend_table_past_the_stieltjes_table(self):
        code, out, err = run("verify", "--table", "4", "--digits", "116")
        assert code == 0 and err == ""
        assert out == run("verify", "--table", "4", "--digits", "136")[1]
        assert out.endswith("# result: pass\n")
        values = recompute_table("trend_fullhistory", 116)
        finer = recompute_table("trend_fullhistory", 136)
        for key, value in values.items():
            assert abs(value.to_fraction() - finer[key].to_fraction()) <= Fraction(1, 10**116), key

    def test_trend_target_refuses_stieltjes(self):
        # even a table that exists: the trend reads none
        code, out, err = run("approx", "--scheme", "a1", "--target", "trend",
                             "--stieltjes", str(default_stieltjes_path()))
        assert (code, out) == (2, "")
        assert err == "likeiper: error: --target trend reads no --stieltjes\n"


class TestScan:
    def test_spot_values_and_verdict(self):
        code, out, _ = run("scan", "--n-max", "10", "--digits", "30")
        assert code == 0
        assert "# violations: 0" in out
        rows = {int(r[0]): r for r in data_rows(out)}
        assert len(rows) == 10
        assert rows[1][1].startswith("1.0000")
        assert rows[5][1].startswith("0.5052")
        assert rows[8][1].startswith("0.3128")
        assert rows[10][1].startswith("0.2293")


class TestZeros:
    def test_partial_sum_table(self):
        code, out, _ = run("zeros", "--n-max", "4")
        assert code == 0
        assert out.splitlines()[0] == "j\tz_partial\tz_tail_bound\tdelta_bound"
        assert len(data_rows(out)) == 4

    def test_inversion_report(self):
        code, out, _ = run("zeros", "--inversion", "--n-max", "7", "--digits", "30")
        assert code == 0
        assert "# result: pass" in out
        rows = data_rows(out)
        assert len(rows) == 7
        assert all(r[-1] == "yes" for r in rows)

    def test_inversion_to_32_at_50_digits_passes(self):
        # the table carries 22 guard digits for the weights C(64, 32 - k)
        code, out, _ = run("zeros", "--inversion", "--n-max", "32", "--digits", "50")
        assert code == 0
        assert out.splitlines()[-1] == "# result: pass"
        assert [row[-1] for row in data_rows(out)] == ["yes"] * 32

    @pytest.mark.parametrize("digits", ["10", "20", "30"])
    def test_inversion_at_low_digits_passes(self, digits):
        # the allowance covers the table's own rounding, B(n), once Z(n)
        # falls below the table's last digit
        code, out, _ = run("zeros", "--inversion", "--n-max", "12", "--digits", digits)
        assert code == 0
        assert out.splitlines()[-1] == "# result: pass"
        assert [row[-1] for row in data_rows(out)] == ["yes"] * 12

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("digits", [10, 20, 30])
    def test_inversion_catches_a_bumped_lambda(self, monkeypatch, digits, n):
        # 10^(3 - digits) added to lambda_n is far above B(n) and the tail bound
        real = cli.lambda_table

        def bumped(n_max, precision, stieltjes):
            table = real(n_max, precision, stieltjes)
            total = list(table.total)
            total[n] = total[n] + BigReal(1, table.precision) / 10 ** (digits - 3)
            return table._replace(total=tuple(total))

        monkeypatch.setattr(cli, "lambda_table", bumped)
        code, out, _ = run("zeros", "--inversion", "--n-max", "12", "--digits", str(digits))
        assert code == 1
        assert out.splitlines()[-1] == "# result: FAIL"
        assert data_rows(out)[n - 1][-1] == "no"
        assert [row[-1] for row in data_rows(out)[:n - 1]] == ["yes"] * (n - 1)

    def test_short_zero_table_warns(self, tmp_path):
        path = tmp_path / "zeros.tsv"
        path.write_text(
            "# digits: 20\n1\t14.134725141734693790\n2\t21.022039638771554993\n"
        )
        code, out, _ = run("zeros", "--n-max", "2", "--digits", "20", "--zeros", str(path))
        assert code == 0
        assert any(line.startswith("# warning:") for line in out.splitlines())

    @pytest.mark.parametrize("mode", [(), ("--inversion",)])
    def test_digits_beyond_zero_table_exit_2(self, tmp_path, mode):
        # zeros.z_partial and z_tail_bound refuse; the CLI only reports
        code, out, err = run("zeros", *mode, "--n-max", "2", "--digits", "51")
        assert code == 2 and out == ""
        assert err == "likeiper: error: 51 digits exceed the 50 digits of the zero table\n"
        path = tmp_path / "zeros.tsv"
        path.write_text("# digits: 20\n1\t14.134725141734693790\n")
        code, _, err = run("zeros", *mode, "--n-max", "2", "--digits", "21", "--zeros", str(path))
        assert code == 2
        assert err == "likeiper: error: 21 digits exceed the 20 digits of the zero table\n"
        # no header: the tag is the significant digits of the shortest ordinate
        shipped = default_zeros_path().read_text().splitlines()
        rows = [line.split("\t") for line in shipped if not line.startswith("#")][:10]
        path.write_text("".join(f"{k}\t{Decimal(t):.10f}\n" for k, t in rows))
        code, out, err = run("zeros", *mode, "--n-max", "2", "--digits", "13", "--zeros", str(path))
        assert code == 2 and out == ""
        assert err == "likeiper: error: 13 digits exceed the 12 digits of the zero table\n"

    @pytest.mark.parametrize("header", ["", "# digits: 8\n"], ids=["no-header", "header"])
    def test_zero_table_below_digit_floor_exit_2(self, tmp_path, header):
        shipped = default_zeros_path().read_text().splitlines()
        rows = [line.split("\t") for line in shipped if not line.startswith("#")][:10]
        path = tmp_path / "zeros.tsv"
        path.write_text(header + "".join(f"{k}\t{Decimal(t):.6f}\n" for k, t in rows))
        code, out, err = run("zeros", "--n-max", "2", "--digits", "10", "--zeros", str(path))
        assert code == 2 and out == ""
        assert f"{path}: table digit count 8 too small" in err

    @pytest.mark.parametrize("mode", [(), ("--inversion",)])
    def test_header_claiming_more_digits_than_the_values_exit_2(self, tmp_path, mode):
        # the shipped file with every ordinate cut to 18 decimals (20 significant
        # digits) under its unchanged "# digits: 50" header
        lines = default_zeros_path().read_text().splitlines()
        assert "# digits: 50" in lines
        path = tmp_path / "zeros.tsv"
        path.write_text("".join(
            (line if line.startswith("#") else line[: line.index(".") + 19]) + "\n"
            for line in lines
        ))
        code, out, err = run("zeros", *mode, "--n-max", "2", "--digits", "40", "--zeros", str(path))
        assert code == 2 and out == ""
        assert err == "likeiper: error: 40 digits exceed the 20 digits of the zero table\n"

    @pytest.mark.parametrize("command, option, shipped", [
        ("zeros", "--zeros", default_zeros_path()),
        ("lambda", "--stieltjes", default_stieltjes_path()),
    ])
    def test_malformed_digits_header_exit_2(self, tmp_path, command, option, shipped):
        path = tmp_path / shipped.name
        path.write_text(re.sub("# digits: [0-9]+", "# digits: abc", shipped.read_text()))
        code, out, err = run(command, "--n-max", "2", option, str(path))
        assert code == 2 and out == ""
        assert err == f"likeiper: error: {path}: '# digits: abc' is not a digit count\n"

    def test_missing_zero_file(self, tmp_path):
        # datafiles.read_table refuses it; the CLI checks no path itself
        path = tmp_path / "nope.tsv"
        code, out, err = run("zeros", "--zeros", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"likeiper: error: cannot read data file {path}: ")
        assert err.count("\n") == 1


class TestProbe:
    def test_injective_segment(self):
        code, out, _ = run(
            "probe", "--line", "im", "--b", "1", "--t0", "0", "--t1", "2", "--samples", "6"
        )
        assert code == 0
        assert "# sampled_injective: yes" in out
        assert "# near_collisions: 0" in out
        assert "# failures: 1" in out
        assert "too close to s = 1" in out

    def test_prints_digits_places(self):
        code, out, _ = run(
            "probe", "--line", "im", "--b", "2", "--t0", "0", "--t1", "1", "--samples", "3",
            "--digits", "10",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == ["0.0", "1.4900462100", "0.0000000000"]
        assert [len(cell.split(".")[1]) for row in rows for cell in row[1:]] == [10] * 6

    def test_huge_tolerance_fails(self):
        code, out, _ = run(
            "probe", "--line", "im", "--b", "1", "--t0", "1", "--t1", "2",
            "--samples", "8", "--tol", "100",
        )
        assert code == 1
        assert "# sampled_injective: no" in out

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, tol):
        code, out, err = run(
            "probe", "--line", "im", "--b", "1", "--t0", "1", "--t1", "2",
            "--samples", "4", "--tol", tol,
        )
        assert code == 2
        assert "tol" in err
        assert "sampled_injective" not in out

    @pytest.mark.parametrize(
        "line, message",
        [
            (("--line", "im", "--b", "inf", "--t0", "0", "--t1", "1"), "finite line"),
            (("--line", "re", "--t", "nan", "--b0", "0.5", "--b1", "1"), "finite line"),
            # both samples lie within 1e-6 of the pole at s = 1
            (("--line", "re", "--t", "0", "--b0", "0.9999999", "--b1", "1.0000001"),
             "0 of 2 samples evaluated"),
            # both samples evaluate, but two samples are always grid neighbours
            (("--line", "im", "--b", "2", "--t0", "1", "--t1", "2"), "all grid neighbours"),
            # heights past the probe's cap on direct terms
            (("--line", "im", "--b", "2", "--t0", "1e29", "--t1", "1e30"),
             "more than 100000 direct terms"),
        ],
    )
    def test_no_verdict_without_evidence(self, line, message):
        code, out, err = run("probe", *line, "--samples", "2")
        assert code == 2
        assert message in err
        assert "sampled_injective" not in out

    def test_huge_height_exits_2(self):
        # t = 5e29 and 1e30 pass the cap on direct terms, t = 0 is the pole;
        # building the sieve for N near 1e30 raised OverflowError
        code, out, err = run("probe", "--line", "im", "--b", "1", "--t0", "0", "--t1", "1e30",
                             "--samples", "3")
        assert code == 2
        assert "only 0 of 3 samples evaluated" in err and "Traceback" not in err
        assert "sampled_injective" not in out

    def test_no_verdict_from_grid_neighbours_only(self):
        # samples 1.0000015 and 1.0000025 evaluate; the two next to the pole fail
        code, out, err = run(
            "probe", "--line", "re", "--t", "0", "--b0", "0.9999995", "--b1", "1.0000025",
            "--samples", "4", "--digits", "15",
        )
        assert code == 2
        assert "the 2 evaluated samples of 4 are all grid neighbours" in err
        assert "sampled_injective" not in out

    @pytest.mark.parametrize("line, unread", [("im", "--t"), ("im", "--b0"), ("im", "--b1"),
                                              ("re", "--b"), ("re", "--t0"), ("re", "--t1")])
    def test_line_refuses_the_other_lines_options(self, line, unread):
        read = {"im": ("--b", "2", "--t0", "1", "--t1", "2"),
                "re": ("--t", "5", "--b0", "2", "--b1", "3")}
        code, out, err = run("probe", "--line", line, *read[line], unread, "7",
                             "--samples", "3", "--digits", "10")
        assert (code, out) == (2, "")
        assert err == f"likeiper: error: --line {line} reads no {unread}\n"

    def test_trivial_zeros_fail_far_left(self):
        # s = -42 and -40 are trivial zeros; the samples between are accurate
        code, out, _ = run(
            "probe", "--line", "re", "--t", "0", "--b0", "-42", "--b1", "-40",
            "--samples", "5", "--digits", "30",
        )
        assert code == 0
        assert "# failed at -42.0:" in out and "# failed at -40.0:" in out
        assert [row[0] for row in data_rows(out)] == ["-41.5", "-41.0", "-40.5"]
        assert data_rows(out)[0][1].startswith("-1077.2554981142721049379986380")

    def test_trivial_zero_failure_quotes_only_the_floor(self):
        # zeta(-42) = 0 exactly: the message gives the floor, not sub-ulp noise
        code, out, _ = run("probe", "--line", "re", "--t", "0", "--b0", "-42", "--b1", "-40")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("# failed")] == [
            "# failed at -42.0: |zeta((-42+0j))| below safe floor 1e-15 (too near a zero)",
            "# failed at -40.0: |zeta((-40+0j))| below safe floor 1e-15 (too near a zero)",
        ]

    def test_im_line_requires_b(self):
        code, _, err = run("probe", "--line", "im", "--t0", "0", "--t1", "1")
        assert code == 2
        assert "likeiper: error:" in err

    def test_re_line_requires_t(self):
        code, _, err = run("probe", "--line", "re", "--b0", "1", "--b1", "2")
        assert code == 2
        assert "likeiper: error:" in err

    def test_default_digits_is_30(self):
        code, out, _ = run(
            "probe", "--line", "im", "--b", "1", "--t0", "1", "--t1", "1.5", "--samples", "3"
        )
        assert code == 0
        row = data_rows(out)[0]
        # 30-digit formatting: 30 places after the decimal point
        assert len(row[1].split(".")[1]) == 30


@pytest.mark.parametrize(
    "argv",
    [
        ("lambda", "--n-max", "4", "--digits", "20"),
        ("approx", "--scheme", "b", "--n-max", "5", "--digits", "20"),
        ("approx", "--scheme", "a2", "--seed", "initial", "--n-max", "4", "--digits", "20"),
        ("scan", "--n-max", "4", "--digits", "20"),
        ("zeros", "--n-max", "4", "--digits", "20"),
        ("zeros", "--inversion", "--n-max", "4", "--digits", "20"),
        ("verify", "--table", "3", "--digits", "20"),
    ],
    ids=["lambda", "approx-exact", "approx-seeded", "scan", "zeros", "zeros-inversion", "verify"],
)
def test_csv_is_tsv_with_commas(argv):
    tsv, csv = run(*argv), run(*argv, "--format", "csv")
    assert "\t" in tsv[1]
    assert csv == (tsv[0], tsv[1].replace("\t", ","), tsv[2])


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
#: (argv, shown lines) of each ``$ likeiper ...`` block in the README
README_EXAMPLES = [
    (shlex.split(command), shown.splitlines())
    for command, shown in re.findall(r"^```\n\$ likeiper ([^\n]*)\n(.*?)^```", README, re.M | re.S)
]


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[a[0] for a, _ in README_EXAMPLES])
def test_readme_example(argv, shown):
    """Every line the README shows appears in the output, in order; ``...`` is a wildcard."""
    lines = iter(run(*argv)[1].splitlines())
    for expected in shown:
        if expected != "...":
            pattern = ".*".join(map(re.escape, expected.split("...")))
            assert any(re.fullmatch(pattern, line) for line in lines), expected


def test_readme_has_six_examples():
    assert len(README_EXAMPLES) == 6


STIELTJES = str(default_stieltjes_path())
ZEROS = str(default_zeros_path())
PROBE = ("probe", "--line", "im", "--b", "1", "--t0", "1", "--t1", "2", "--samples", "4")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--table", "1", "--n-max", "5"),
        ("verify", "--table", "1", "--stieltjes", STIELTJES),
        ("verify", "--table", "1", "--zeros", ZEROS),
        PROBE + ("--n-max", "999"),
        PROBE + ("--stieltjes", STIELTJES),
        PROBE + ("--zeros", ZEROS),
        PROBE + ("--format", "csv"),
        ("lambda", "--n-max", "3", "--zeros", ZEROS),
        ("approx", "--scheme", "d", "--n-max", "3", "--zeros", ZEROS),
        ("scan", "--n-max", "3", "--zeros", ZEROS),
        # options only one mode reads
        ("approx", "--scheme", "a2", "--seed", "initial", "--n-max", "3", "--stieltjes", STIELTJES),
        ("approx", "--scheme", "d", "--seed", "initial:2", "--n-max", "3", "--target", "lambda"),
        ("zeros", "--n-max", "3", "--stieltjes", STIELTJES),
    ],
    ids=[
        "verify-n-max", "verify-stieltjes", "verify-zeros",
        "probe-n-max", "probe-stieltjes", "probe-zeros", "probe-format",
        "lambda-zeros", "approx-zeros", "scan-zeros",
        "approx-initial-stieltjes", "approx-initial-target", "zeros-stieltjes-without-inversion",
    ],
)
def test_unread_option_exits_2(argv):
    # argparse rejects an option the subcommand lacks with SystemExit(2)
    try:
        code, out, err = run(*argv)
    except SystemExit as exc:
        code, out = exc.code, ""
    else:
        assert "likeiper: error:" in err
    assert code == 2
    assert out == ""


class TestCommonValidation:
    def test_digits_floor(self):
        code, _, err = run("lambda", "--digits", "5")
        assert code == 2
        assert "--digits must be >= 10" in err

    @pytest.mark.parametrize("command", ["lambda", "scan"])
    def test_digits_beyond_stieltjes_table_exit_2(self, command):
        # n = 1 works guard_digits(1) = 15 digits past --digits, at most 130
        code, out, err = run(command, "--n-max", "1", "--digits", "116")
        assert code == 2 and out == ""
        assert err == ("likeiper: error: lambda to n = 1 at 116 digits reads gamma_0..gamma_0 "
                       "at 131 digits; the Stieltjes table has gamma_0..gamma_80 at 130\n")
        code, out, _ = run(command, "--n-max", "1", "--digits", "115")
        assert code == 0
        assert len(data_rows(out)) == 1

    def test_n_max_floor(self):
        code, _, err = run("lambda", "--n-max", "0")
        assert code == 2

    def test_missing_stieltjes_path(self, tmp_path):
        code, _, err = run("lambda", "--stieltjes", str(tmp_path / "absent.tsv"))
        assert code == 2
        assert "likeiper: error:" in err
