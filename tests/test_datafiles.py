from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from likeiper.datafiles import (
    _PLAIN_DECIMAL,
    DataFormatError,
    data_dir,
    default_stieltjes_path,
    default_zeros_path,
    exact_decimal,
    parse_indexed_table,
)


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "data.tsv"
    path.write_text(text)
    return path


class TestParseIndexedTable:
    def test_happy_path(self, tmp_path):
        path = write(
            tmp_path,
            "# source: unit test\n"
            "# digits: 12\n"
            "# a note without a colon-free key is ignored as metadata\n"
            "\n"
            "0\t0.5\n"
            "1\t-1.25\n"
            "5\t+3.\n",
        )
        metadata, rows = parse_indexed_table(path)
        assert metadata["source"] == "unit test"
        assert metadata["digits"] == "12"
        assert rows == [(0, "0.5"), (1, "-1.25"), (5, "+3.")]

    def test_indices_may_skip_but_not_repeat(self, tmp_path):
        path = write(tmp_path, "0\t1.0\n0\t2.0\n")
        with pytest.raises(DataFormatError, match="strictly increasing"):
            parse_indexed_table(path)

    def test_decreasing_index(self, tmp_path):
        path = write(tmp_path, "3\t1.0\n2\t2.0\n")
        with pytest.raises(DataFormatError, match="strictly increasing"):
            parse_indexed_table(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "0\t1.0\textra\n")
        with pytest.raises(DataFormatError, match="index<TAB>value"):
            parse_indexed_table(path)

    def test_one_value_column(self, tmp_path):
        path = write(tmp_path, "# columns: a b\n0\t1.0\t2.0\n")
        with pytest.raises(DataFormatError, match="one value column, not 2"):
            parse_indexed_table(path)

    def test_non_integer_index(self, tmp_path):
        path = write(tmp_path, "zero\t1.0\n")
        with pytest.raises(DataFormatError, match="non-integer index"):
            parse_indexed_table(path)

    @pytest.mark.parametrize("bad", ["1.0e5", "abc", "1.2.3", "-", "", "0x1f", "\u0663"])
    def test_rejects_non_decimal_values(self, tmp_path, bad):
        path = write(tmp_path, f"0\t{bad}\n")
        with pytest.raises(DataFormatError):
            parse_indexed_table(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "# only comments\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_indexed_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            parse_indexed_table(tmp_path / "absent.tsv")

    def test_error_messages_cite_line_numbers(self, tmp_path):
        path = write(tmp_path, "0\t1.0\nbroken line\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            parse_indexed_table(path)


class TestDataDir:
    def test_default_is_package_data(self, monkeypatch):
        monkeypatch.delenv("LIKEIPER_DATA_DIR", raising=False)
        d = data_dir()
        assert d.name == "data"
        assert (d / "stieltjes.tsv").is_file()
        assert (d / "zeros.tsv").is_file()
        assert (d / "tables").is_dir()

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("LIKEIPER_DATA_DIR", str(tmp_path))
        assert data_dir() == tmp_path
        assert default_stieltjes_path() == tmp_path / "stieltjes.tsv"
        assert default_zeros_path() == tmp_path / "zeros.tsv"

    def test_empty_override_falls_back(self, monkeypatch):
        monkeypatch.setenv("LIKEIPER_DATA_DIR", "")
        assert data_dir().name == "data"


_digits = st.text("0123456789", max_size=450)


@settings(max_examples=300, deadline=None)
@given(text=st.builds(lambda sign, whole, point, places: f"{sign}{whole}{point}{places}",
                      st.sampled_from(["", "+", "-"]), _digits, st.sampled_from(["", "."]),
                      _digits).filter(_PLAIN_DECIMAL.fullmatch))
@example(text="-7")
@example(text="+.5")
@example(text="5.")
@example(text="-0.0")
@example(text="-.000")
@example(text="-007.50")
@example(text="0." + "9" * 449 + "7")
@example(text="-3." + "1415926535" * 45)
def test_exact_decimal_is_fractions_reading(text):
    # the one reader of the data files' decimals, against Python's own
    assert exact_decimal(text) == Fraction(text)
