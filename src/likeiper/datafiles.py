"""Location and line format of the bundled data files.

Data files are TSV: one ``index<TAB>decimal-value`` pair per line, ``#`` lines
are comments (``# key: value`` comments carry metadata), indices strictly
increasing.  The directory holding them can be overridden with the
``LIKEIPER_DATA_DIR`` environment variable.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Tuple


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


def parse_indexed_table(path: Path) -> Tuple[dict, list]:
    """Parse an ``index<TAB>value`` file.

    Returns ``(metadata, rows)`` where ``metadata`` maps lower-case keys from
    ``# key: value`` comment lines and ``rows`` is a list of ``(index, text)``
    pairs in file order.  Validates the strictly-increasing index invariant and
    that every value parses as a decimal literal; actual numeric conversion is
    left to the caller (which knows the target precision).
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
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected 'index<TAB>value', got {stripped!r}"
            )
        index_text, value_text = parts
        try:
            index = int(index_text)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: non-integer index {index_text!r}"
            ) from exc
        if not _is_decimal_literal(value_text):
            raise DataFormatError(
                f"{path}:{lineno}: value {value_text!r} is not a plain decimal"
            )
        if last_index is not None and index <= last_index:
            raise DataFormatError(
                f"{path}:{lineno}: index {index} not strictly increasing"
            )
        last_index = index
        rows.append((index, value_text))
    if not rows:
        raise DataFormatError(f"{path}: no data rows found")
    return metadata, rows


def table_digits(metadata: dict, rows: list) -> int:
    """The ``# digits:`` header, else the significant digits of the shortest value."""
    return int(metadata.get("digits", 0)) or min(
        len(text.lstrip("+-").replace(".", "").lstrip("0")) for _, text in rows
    )


def _is_decimal_literal(text: str) -> bool:
    body = text.strip()
    if body.startswith(("+", "-")):
        body = body[1:]
    if not body:
        return False
    integer, _, fraction = body.partition(".")
    if not (integer or fraction):
        return False
    return (integer == "" or integer.isdigit()) and (
        fraction == "" or fraction.isdigit()
    )

