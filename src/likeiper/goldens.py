"""Golden reference tables and the machinery to recompute and compare them.

Each golden table is a TSV fixture under ``data/tables/`` in the ``datafiles``
format, recording values exactly as printed in the reference tabulations: one
row per index, one cell per ``# columns:`` name.  Cell syntax, checked at load::

    printed[!expect=corrected][!places=N]

* ``printed`` is the value exactly as printed at the source.
* ``!expect=corrected`` marks a cell whose printed value carries a documented
  defect (a typo or a last-digit roundoff slip); the corrected value is what a
  clean recomputation reproduces.  The flag is load-bearing in both directions:
  recomputation must match the correction *and* must disagree with the printed
  text at print resolution, otherwise the flag itself is stale.
* ``!places=N`` overrides the comparison resolution (decimal places) when the
  printed text does not carry enough decimals to imply one (e.g. ``1``).
* ``-`` marks a cell that the source never printed.

Comparison resolution defaults to one unit in the last printed decimal place:
printed values are truncations, so a recomputed value agrees with a printed
one iff their difference, in exact rationals, is below ``10**-places``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .bigreal import DEFAULT_DIGITS, BigReal, PrecisionError
from .constants import euler_gamma
from .datafiles import DataFormatError, _decimal, data_dir, read_table
from .lambda_core import conjecture_scan, history, lambda_table, tiny_series, trend_series
from .recurrences import FULL_HISTORY, ORDER_M, VOROS, RecurrenceScheme, phi_nlogn, predict


def tables_dir() -> Path:
    return data_dir() / "tables"


class GoldenCell(NamedTuple):
    """One printed cell of a golden table."""

    row: int
    column: str
    printed: str
    expect: Optional[str] = None
    places: int = 0

    @property
    def flagged(self) -> bool:
        return self.expect is not None

    @property
    def target(self) -> str:
        """The value a clean recomputation should reproduce."""
        return self.expect if self.expect is not None else self.printed

    @property
    def tolerance(self) -> Fraction:
        """One unit in the last printed decimal place."""
        return Fraction(1, 10**self.places)


class GoldenTable(NamedTuple):
    name: str
    columns: Tuple[str, ...]
    cells: Dict[Tuple[int, str], GoldenCell]

    @property
    def rows(self) -> List[int]:
        return sorted({row for row, _ in self.cells})

    def cell(self, row: int, column: str) -> GoldenCell:
        return self.cells[(row, column)]

    @property
    def flagged_cells(self) -> List[GoldenCell]:
        return [c for c in self.cells.values() if c.flagged]


def _parse_cell(text: str) -> Optional[Tuple[str, Optional[str], int]]:
    """``printed[!expect=corrected][!places=N]`` as (printed, expect, places);
    ``-`` (not printed) gives None."""
    if text == "-":
        return None
    printed, *annotations = text.split("!")
    expect: Optional[str] = None
    places: Optional[int] = None
    for annotation in annotations:
        key, _, value = annotation.partition("=")
        if key == "expect":
            expect = _decimal(value, "!expect value")
        elif key == "places":
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"!places value {value!r} is not a non-negative integer")
            places = int(value)
        else:
            raise ValueError(f"unknown cell annotation {annotation!r}")
    _decimal(printed, "printed value")
    if places is None:  # the decimals of the value a recomputation should reproduce
        places = len((expect or printed).partition(".")[2])
    return printed, expect, places


def load_golden(name: str) -> GoldenTable:
    """Load a golden fixture by name or numeric id ("1".."5")."""
    name = _table_name(name)
    path = tables_dir() / f"{name}.tsv"
    metadata, rows = read_table(path, _parse_cell)
    columns = tuple(metadata.get("columns", "").split())
    if not columns:
        raise DataFormatError(f"{path}: missing '# columns:' header")
    cells = {
        (row, column): GoldenCell(row, column, *cell)
        for row, fields in rows
        for column, cell in zip(columns, fields)
        if cell is not None
    }
    if not cells:
        raise DataFormatError(f"{path}: no printed cells")
    return GoldenTable(name=name, columns=columns, cells=cells)


# ---------------------------------------------------------------------------
# Recomputation
# ---------------------------------------------------------------------------

Builder = Callable[[int], Dict[Tuple[int, str], BigReal]]
_FULL, _VOROS = RecurrenceScheme(FULL_HISTORY), RecurrenceScheme(VOROS)


def _build_ratio_order_m(m: int, precision: int) -> Dict[Tuple[int, str], BigReal]:
    tiny = history(tiny_series(11, precision))
    gamma, scheme = euler_gamma(precision), RecurrenceScheme(ORDER_M, m)
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(2, 12):
        if n >= m:
            out[(n, "pred")] = predict(scheme, tiny, n) / (gamma * n)
        out[(n, "exact")] = tiny[n] / (gamma * n)
    return out


def _build_tiny_fullhistory(precision: int) -> Dict[Tuple[int, str], BigReal]:
    tiny = history(tiny_series(15, precision))
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(2, 16):
        out[(n, "pred")] = predict(_FULL, tiny, n) / n
        out[(n, "exact")] = tiny[n] / n
    return out


def _build_trend_fullhistory(precision: int) -> Dict[Tuple[int, str], BigReal]:
    trend = history(trend_series(15, precision))  # reads no Stieltjes table
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(1, 16):
        exact = trend[n] / n
        # at n = 1 no lower indices exist; the tabulation repeats the exact value
        out[(n, "pred")] = predict(_FULL, trend, n) / n if n > 1 else exact
        out[(n, "exact")] = exact
    return out


def _build_nlogn_sums(precision: int) -> Dict[Tuple[int, str], BigReal]:
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(1, 33):
        phi1, phi2 = phi_nlogn(n, precision)
        out[(n, "phi1")] = phi1
        out[(n, "phi2")] = phi2
    return out


def _build_coeff20(precision: int) -> Dict[Tuple[int, str], BigReal]:
    table = lambda_table(7, precision)
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(1, 8):
        out[(n, "lam")] = table.total[n]
        if n >= 2:
            out[(n, "a1")] = predict(_FULL, table.total, n)
            out[(n, "a2")] = predict(_VOROS, table.total, n)
    return out


def _build_scan_ratios(precision: int) -> Dict[Tuple[int, str], BigReal]:
    rows = conjecture_scan(10, precision)
    return {(row.n, "ratio"): row.ratio for row in rows}


_BUILDERS: Dict[str, Builder] = {
    "ratio_order2": partial(_build_ratio_order_m, 2),
    "ratio_order3": partial(_build_ratio_order_m, 3),
    "tiny_fullhistory": _build_tiny_fullhistory,
    "trend_fullhistory": _build_trend_fullhistory,
    "nlogn_sums": _build_nlogn_sums,
    "coeff20": _build_coeff20,
    "scan_ratios": _build_scan_ratios,
}

#: Golden table names in source order; numeric ids 1..5 address the first five.
TABLE_NAMES: Tuple[str, ...] = tuple(_BUILDERS)

TABLE_IDS: Dict[str, str] = {str(i + 1): name for i, name in enumerate(TABLE_NAMES[:5])}


def _table_name(name: str) -> str:
    """A golden table's name, given its name or numeric id."""
    name = TABLE_IDS.get(name, name)
    if name not in _BUILDERS:
        raise DataFormatError(f"unknown golden table {name!r}; known: {', '.join(TABLE_NAMES)}")
    return name


def recompute_table(name: str, precision: int = DEFAULT_DIGITS) -> Dict[Tuple[int, str], BigReal]:
    """Recompute every cell of a golden table from scratch."""
    return _BUILDERS[_table_name(name)](precision)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


class CellReport(NamedTuple):
    """Outcome of comparing one recomputed value with its golden cell."""

    cell: GoldenCell
    recomputed: BigReal
    matches: bool
    deviation: Fraction
    printed_matches: bool

    @property
    def flag_consistent(self) -> bool:
        """For flagged cells: correction reproduced and printed text refuted."""
        if not self.cell.flagged:
            return True
        return self.matches and not self.printed_matches


class TableReport(NamedTuple):
    table: GoldenTable
    precision: int
    reports: Tuple[CellReport, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.matches for r in self.reports)

    @property
    def mismatches(self) -> List[CellReport]:
        return [r for r in self.reports if not r.matches]

    @property
    def stale_flags(self) -> List[CellReport]:
        return [r for r in self.reports if not r.flag_consistent]

    @property
    def passed(self) -> bool:
        """The verdict: every unflagged cell matches and no flag is stale."""
        return self.ok and not self.stale_flags

    def report_for(self, row: int, column: str) -> CellReport:
        for r in self.reports:
            if r.cell.row == row and r.cell.column == column:
                return r
        raise KeyError(f"no report for row {row} column {column}")


def _compare_cell(cell: GoldenCell, recomputed: BigReal) -> CellReport:
    value = recomputed.to_fraction()
    deviation = abs(value - Fraction(cell.target))
    return CellReport(
        cell=cell,
        recomputed=recomputed,
        matches=deviation < cell.tolerance,
        deviation=deviation,
        printed_matches=abs(value - Fraction(cell.printed)) < cell.tolerance,
    )


def verify_table(name: str, precision: int = DEFAULT_DIGITS) -> TableReport:
    """Recompute a golden table and compare each printed cell at one unit
    in its last printed decimal place; a ``precision`` below the most places
    a cell prints cannot decide that cell, and raises ``PrecisionError``."""
    table = load_golden(name)
    places = max(cell.places for cell in table.cells.values())
    if precision < places:
        raise PrecisionError(f"{precision} digits cannot decide {table.name}'s {places} places")
    values = recompute_table(table.name, precision)
    reports: List[CellReport] = []
    for (row, column), cell in table.cells.items():  # file order: by row, then column
        if (row, column) not in values:
            raise DataFormatError(
                f"{table.name}: no recomputed value for row {row} column {column}"
            )
        reports.append(_compare_cell(cell, values[(row, column)]))
    return TableReport(table=table, precision=precision, reports=tuple(reports))
