import shutil
from fractions import Fraction

import pytest

from likeiper.bigreal import BigReal, PrecisionError
from likeiper.datafiles import DataFormatError
from likeiper.goldens import (
    TABLE_IDS,
    TABLE_NAMES,
    GoldenCell,
    _compare_cell,
    load_golden,
    recompute_table,
    tables_dir,
    verify_table,
)

EXPECTED_SHAPES = {
    # name: (first_row, last_row, row_count, columns, cell_count, flagged_count)
    "ratio_order2": (2, 11, 10, ("pred", "exact"), 20, 1),
    "ratio_order3": (2, 11, 10, ("pred", "exact"), 19, 0),
    "tiny_fullhistory": (2, 15, 14, ("pred", "exact"), 28, 2),
    "trend_fullhistory": (1, 15, 15, ("pred", "exact"), 30, 1),
    "nlogn_sums": (1, 32, 32, ("phi1", "phi2"), 64, 14),
    "coeff20": (1, 7, 7, ("lam", "a1", "a2"), 19, 2),
    "scan_ratios": (1, 10, 4, ("ratio",), 4, 0),
}


class TestLoading:
    def test_name_catalog(self):
        assert TABLE_NAMES == tuple(EXPECTED_SHAPES)
        assert TABLE_IDS == {
            "1": "ratio_order2",
            "2": "ratio_order3",
            "3": "tiny_fullhistory",
            "4": "trend_fullhistory",
            "5": "nlogn_sums",
        }

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_shapes(self, name):
        first, last, count, columns, cells, flagged = EXPECTED_SHAPES[name]
        table = load_golden(name)
        assert table.rows[0] == first
        assert table.rows[-1] == last
        assert len(table.rows) == count
        assert table.columns == columns
        assert len(table.cells) == cells
        assert len(table.flagged_cells) == flagged

    def test_unknown_name(self):
        with pytest.raises(DataFormatError, match="unknown golden table"):
            load_golden("imaginary")

    def test_every_flag_carries_a_correction(self):
        for name in TABLE_NAMES:
            for cell in load_golden(name).flagged_cells:
                assert cell.expect is not None
                assert cell.expect != cell.printed
                assert cell.target == cell.expect

    def test_missing_cells_are_absent(self):
        # order-3 predictions start at n = 3; the 20-digit schemes at n = 2
        t2 = load_golden("ratio_order3")
        assert (2, "pred") not in t2.cells
        assert t2.cell(2, "exact") is not None
        c20 = load_golden("coeff20")
        assert (1, "a1") not in c20.cells
        assert (1, "a2") not in c20.cells


class TestCellSemantics:
    def test_places_from_printed(self):
        cell = load_golden("nlogn_sums").cell(3, "phi1")
        assert cell.printed == "4.158883083359"
        assert cell.places == 12
        assert not cell.flagged

    def test_places_override_for_bare_zero(self):
        cell = load_golden("nlogn_sums").cell(1, "phi1")
        assert cell.printed == "0."
        assert cell.places == 12
        assert cell.tolerance == Fraction(1, 10**12)

    def test_places_from_expect_on_flagged_cell(self):
        cell = load_golden("tiny_fullhistory").cell(2, "pred")
        # printed has one digit more than the corrected value
        assert cell.printed == "0.5777215664901"
        assert cell.expect == "0.577215664901"
        assert cell.places == 12

    def test_scan_integer_row(self):
        cell = load_golden("scan_ratios").cell(1, "ratio")
        assert cell.printed == "1"
        assert cell.places == 4

    def test_tolerance_scales_with_places(self):
        c = GoldenCell(row=1, column="x", printed="0.123", places=3)
        assert c.tolerance == Fraction(1, 1000)


class TestExactVerdict:
    # a cell matches iff |recomputed - target| < 10^-places, in exact rationals

    def test_just_below_one_unit_matches(self):
        # 1/5 at tag 13 lies just below 0.2, so less than 0.1 from 0.1
        value = BigReal(Fraction(1, 5), 13)
        assert value.to_fraction() < Fraction(1, 5)
        report = _compare_cell(GoldenCell(row=1, column="x", printed="0.1", places=1), value)
        assert report.matches and report.printed_matches

    def test_deviation_of_exactly_one_unit_does_not_match(self):
        cell = GoldenCell(row=1, column="x", printed="0.9", places=1)
        report = _compare_cell(cell, BigReal(1, 30))
        assert report.deviation == cell.tolerance == Fraction(1, 10)
        assert not report.matches and not report.printed_matches


def copy_fixture_tree(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(tables_dir().parent, data)
    return data


class TestStrictParsing:
    def write_and_load(self, monkeypatch, tmp_path, body):
        data = copy_fixture_tree(tmp_path)
        target = data / "tables" / "scan_ratios.tsv"
        target.write_text(body)
        monkeypatch.setenv("LIKEIPER_DATA_DIR", str(data))
        return load_golden("scan_ratios")

    def test_unknown_annotation(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="unknown cell annotation"):
            self.write_and_load(
                monkeypatch, tmp_path, "# columns: ratio\n1\t1.0!mystery=3\n"
            )

    def test_missing_columns_header(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="columns"):
            self.write_and_load(monkeypatch, tmp_path, "1\t1.0\n")

    def test_field_count_mismatch(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="expected"):
            self.write_and_load(monkeypatch, tmp_path, "# columns: ratio\n1\t1.0\t2.0\n")

    def test_bad_row_index(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="non-integer index"):
            self.write_and_load(monkeypatch, tmp_path, "# columns: ratio\none\t1.0\n")

    def test_non_increasing_rows(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="not strictly increasing"):
            self.write_and_load(monkeypatch, tmp_path, "# columns: ratio\n2\t1.0\n1\t0.5\n")

    @pytest.mark.parametrize("cell, message", [
        ("0.7.83", "printed value '0.7.83' is not a plain decimal"),
        ("", "printed value '' is not a plain decimal"),
        ("1.0!expect=abc", "!expect value 'abc' is not a plain decimal"),
        ("1.0!expect=", "!expect value '' is not a plain decimal"),
        ("1!places=x", "!places value 'x' is not a non-negative integer"),
        ("1!places=-1", "!places value '-1' is not a non-negative integer"),
    ])
    def test_malformed_cell_names_path_and_line(self, monkeypatch, tmp_path, cell, message):
        with pytest.raises(DataFormatError) as info:
            self.write_and_load(monkeypatch, tmp_path, f"# columns: ratio pred\n1\t{cell}\t1.0\n")
        assert str(info.value).endswith(f"scan_ratios.tsv:2: {message}")

    def test_cells_keep_the_stripped_decimal(self, monkeypatch, tmp_path):
        # the text the decimal check accepted, blanks stripped, is the one kept and
        # read exactly, so the places count its decimals only
        table = self.write_and_load(monkeypatch, tmp_path,
                                    "# columns: ratio pred\n1\t1.25 \t -.5!expect=-0.50 \n")
        cell, flagged = table.cell(1, "ratio"), table.cell(1, "pred")
        assert (cell.printed, cell.places) == ("1.25", 2)
        assert (flagged.printed, flagged.expect, flagged.places) == ("-.5", "-0.50", 2)
        report = _compare_cell(flagged, BigReal(Fraction(-1, 2), 20))
        assert report.deviation == 0 and report.matches and report.printed_matches

    def test_no_data_rows(self, monkeypatch, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            self.write_and_load(monkeypatch, tmp_path, "# columns: ratio\n")


CLEAN_TABLES = (
    "ratio_order2",
    "ratio_order3",
    "tiny_fullhistory",
    "trend_fullhistory",
    "nlogn_sums",
    "scan_ratios",
)


class TestVerification:
    @pytest.mark.parametrize("name", CLEAN_TABLES)
    def test_clean_tables_verify(self, name):
        report = verify_table(name, 50)
        assert report.ok, [
            (m.cell.row, m.cell.column, float(m.deviation))
            for m in report.mismatches
        ]
        assert not report.stale_flags

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_flags_are_load_bearing(self, name):
        # a flag is honest only if the recomputation reproduces the
        # correction AND refutes the printed value
        report = verify_table(name, 50)
        for cell in load_golden(name).flagged_cells:
            cr = report.report_for(cell.row, cell.column)
            assert cr.matches, (cell.row, cell.column)
            assert not cr.printed_matches, (cell.row, cell.column)
            assert cr.flag_consistent

    def test_coeff20_default_tolerances(self):
        # at one print-ulp the 20-digit columns carry sub-tolerance noise:
        # three lam cells off by ~3e-20 and nine scheme cells up to 2.5e-17
        report = verify_table("coeff20", 50)
        assert not report.ok
        misses = {(m.cell.row, m.cell.column) for m in report.mismatches}
        assert misses == {
            (4, "lam"), (5, "lam"), (6, "lam"),
            (3, "a1"), (4, "a1"), (5, "a1"), (7, "a1"),
            (3, "a2"), (4, "a2"), (5, "a2"), (6, "a2"), (7, "a2"),
        }
        for m in report.mismatches:
            assert m.deviation < BigReal("2.5e-17", 50)

    def test_coeff20_lam_column_within_consumption_tolerance(self):
        # every lam cell, flagged ones against their correction, lies within
        # half a unit in the 19th place; the other misses are the 9 scheme cells
        table = load_golden("coeff20")
        values = recompute_table("coeff20", 50)
        for row in table.rows:
            cell = table.cell(row, "lam")
            deviation = abs(values[(row, "lam")] - BigReal(cell.target, 50))
            assert deviation < BigReal("0.5e-19", 50), row
        report = verify_table("coeff20", 50)
        remaining = {(m.cell.row, m.cell.column) for m in report.mismatches if m.cell.column != "lam"}
        assert len(remaining) == 9
        assert all(col in ("a1", "a2") for _, col in remaining)

    def test_precision_below_the_printed_places_raises(self):
        # 12 digits would rule on cells printed to 20 places: seven more
        # mismatches than the fixture's own twelve
        with pytest.raises(PrecisionError, match="^19 digits cannot decide coeff20's 20 places$"):
            verify_table("coeff20", 19)
        mismatches = {(m.cell.row, m.cell.column) for m in verify_table("coeff20", 20).mismatches}
        assert len(mismatches) == 12
        assert mismatches == {(m.cell.row, m.cell.column)
                              for m in verify_table("coeff20", 50).mismatches}

    def test_report_for_unknown_cell(self):
        report = verify_table("scan_ratios", 50)
        with pytest.raises(KeyError):
            report.report_for(99, "ratio")

    def test_deviations_recorded(self):
        report = verify_table("ratio_order2", 50)
        for cell in load_golden("ratio_order2").cells.values():
            cr = report.report_for(cell.row, cell.column)
            assert cr.deviation <= cr.cell.tolerance or not cr.matches
            assert cr.recomputed is not None
