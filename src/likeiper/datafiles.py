"""Location and line format of the bundled data files.

Every data file is TSV, read by ``read_table``: ``#`` lines are comments
(``# key: value`` comments carry metadata), and each row is an integer index
and one tab-separated field per name in the ``# columns:`` header (one field
without it), indices strictly increasing.  Value tables hold one plain
decimal per row, ``_PLAIN_DECIMAL``, and ``exact_decimal`` is the one reader of
its value: exact, so that each kernel rounds it once at its own bits.  The
directory holding the files can be overridden with the ``LIKEIPER_DATA_DIR``
environment variable.  The module imports only the standard library, so it is
the mpmath-free home of ``DEFAULT_DIGITS``, ``MIN_DIGITS`` and ``PrecisionError``.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Tuple, Type

DEFAULT_DIGITS = 50
MIN_DIGITS = 10

#: A plain decimal literal, no exponent: the one number format of the value tables.
_PLAIN_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)")


class PrecisionError(ValueError):
    """Raised for precision tags below the supported minimum, and for a value
    printed with more integer digits than its tag."""


class DataFormatError(ValueError):
    """Raised for malformed data files (bad lines, bad index order, ...)."""


def data_dir() -> Path:
    override = os.environ.get("LIKEIPER_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def default_stieltjes_path() -> Path:
    return data_dir() / "stieltjes.tsv"


def default_zeros_path() -> Path:
    return data_dir() / "zeros.tsv"


def read_table(path: Path, parse_field: Callable[[str], object]) -> Tuple[dict, list]:
    """Read a data file: ``(metadata, rows)``, where ``metadata`` maps
    lower-case keys from ``# key: value`` lines and ``rows`` holds
    ``(index, fields)`` in file order, each field passed through
    ``parse_field``.  Every syntax error, and a ``ValueError`` from
    ``parse_field``, raises ``DataFormatError`` naming ``path:line``.
    """
    metadata: dict = {}
    rows: list = []
    last_index = None
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read data file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip().lower()
                if key and " " not in key:
                    metadata[key] = value.strip()
            continue
        index_text, *fields = stripped.split("\t")
        width = len(metadata.get("columns", "value").split())
        if len(fields) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected 'index{'<TAB>value' * width}', got {stripped!r}"
            )
        try:
            index = int(index_text)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: non-integer index {index_text!r}"
            ) from exc
        try:
            parsed = tuple([parse_field(field) for field in fields])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if last_index is not None and index <= last_index:
            raise DataFormatError(
                f"{path}:{lineno}: index {index} not strictly increasing"
            )
        last_index = index
        rows.append((index, parsed))
    if not rows:
        raise DataFormatError(f"{path}: no data rows found")
    return metadata, rows


def parse_indexed_table(path: Path) -> Tuple[dict, list]:
    """Read a value table: ``(metadata, rows)`` with ``rows`` a list of
    ``(index, text)`` pairs, every text a plain decimal.  Numeric conversion
    is left to the caller, which knows the target precision."""
    metadata, rows = read_table(path, _decimal)
    if len(rows[0][1]) != 1:
        raise DataFormatError(f"{path}: a value table has one value column, not {len(rows[0][1])}")
    return metadata, [(index, value) for index, (value,) in rows]


def table_digits(path: Path, metadata: dict, rows: list, error: Type[ValueError]) -> int:
    """The digits a value table carries: the significant digits of its
    shortest value, or the ``# digits:`` header if that is smaller.  A
    malformed header, or a count below ``MIN_DIGITS``, raises ``error``
    naming the file."""
    digits = min(len(text.lstrip("+-").replace(".", "").lstrip("0")) for _, text in rows)
    if "digits" in metadata:
        header = metadata["digits"]
        if not re.fullmatch("[0-9]+", header):
            raise error(f"{path}: '# digits: {header}' is not a digit count")
        digits = min(digits, int(header))
    if digits < MIN_DIGITS:
        raise error(f"{path}: table digit count {digits} too small (minimum {MIN_DIGITS})")
    return digits


def exact_decimal(text: str) -> Fraction:
    """The exact value of ``text``, a plain decimal without blanks (as
    ``parse_indexed_table`` gives it): its digits over a power of ten."""
    whole, _, places = text.lstrip("+-").partition(".")
    value = Fraction(int(whole + places or "0"), 10 ** len(places))
    return -value if text[0] == "-" else value


def _decimal(text: str, what: str = "value") -> str:
    """``text`` without surrounding blanks if it is a plain decimal literal
    (no exponent), else ``ValueError``: the strings ``exact_decimal`` reads."""
    if not _PLAIN_DECIMAL.fullmatch(text.strip()):
        raise ValueError(f"{what} {text!r} is not a plain decimal")
    return text.strip()
