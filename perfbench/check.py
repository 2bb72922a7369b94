"""Compare op outputs with the committed reference, cell by cell.

An output is parsed into cells keyed ``(row, column)``:

* a TSV table: the row key is the first field, the column is the header
  name (the header is the first data line, or a ``# columns:`` comment);
* ``verify`` lines ``row R<TAB>col<TAB>status<TAB>k=v...``: the cells
  ``(row R, col:status)`` and ``(row R, col:k)``;
* ``# key: value`` comments: the cell ``("#", key)``.

A reference cell is ``[row, column, "text", value]`` or
``[row, column, "num", value, places]``.  A ``text`` cell must match
exactly.  A ``num`` cell is wrong unless it is printed in fixed-point form
with exactly ``places`` decimal places (the precision the op asked for) and
is off from the reference by at most one unit in that last place.  A data
row the reference does not have counts as one more wrong cell.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from typing import Dict, Iterable, List, Tuple

Cell = Tuple[str, str]

FIXED_POINT = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def parse_output(text: str) -> Dict[Cell, str]:
    cells: Dict[Cell, str] = {}
    columns = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(": ")
            if sep:
                cells[("#", key)] = value.strip()
                if key == "columns" and columns is None:
                    columns = value.strip().split("\t")
            continue
        fields = line.split("\t")
        if fields[0].startswith("row ") and len(fields) >= 3:
            row, column = fields[0], fields[1]
            cells[(row, f"{column}:status")] = fields[2]
            for field in fields[3:]:
                key, _, value = field.partition("=")
                cells[(row, f"{column}:{key}")] = value
            continue
        if columns is None:
            columns = fields
            continue
        for column, value in zip(columns[1:], fields[1:]):
            cells[(fields[0], column)] = value
    return cells


def places_of(text: str) -> int:
    return len(text.split(".", 1)[1]) if "." in text else 0


def number_wrong(printed: str, reference: str, places: int) -> bool:
    """True unless ``printed`` is a fixed-point number with exactly
    ``places`` decimal places within one unit in that place of
    ``reference``."""
    if not FIXED_POINT.fullmatch(printed) or places_of(printed) != places:
        return True
    with localcontext() as ctx:
        ctx.prec = 500
        return abs(Decimal(printed) - Decimal(reference)) > Decimal(1).scaleb(-places)


def compare(reference: Iterable[List[str]], text: str) -> Tuple[int, List[Cell]]:
    """(cells checked, wrong cells) for one op's output."""
    got = parse_output(text)
    checked, wrong, rows = 0, [], set()
    for row, column, kind, expected, *places in reference:
        rows.add(row)
        checked += 1
        value = got.get((row, column))
        if value is None or (value != expected if kind == "text"
                             else number_wrong(value, expected, *places)):
            wrong.append((row, column))
    for row in sorted({row for row, _ in got if row != "#"} - rows):
        checked += 1
        wrong.append((row, "<extra row>"))
    return checked, wrong
