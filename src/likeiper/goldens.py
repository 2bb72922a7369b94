"""Golden reference tables and the machinery to recompute and compare them.

Each golden table is a TSV fixture under ``data/tables/``.  A fixture records
values exactly as printed in the reference tabulations, one row per index and
one tab-separated cell per column.  Cell syntax::

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
one iff their difference is below ``10**-places``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .bigreal import DEFAULT_DIGITS, BigReal, big
from .constants import euler_gamma
from .datafiles import DataFormatError, data_dir
from .lambda_core import conjecture_scan, lambda_table
from .recurrences import (
    phi_nlogn,
    predict_full_history,
    predict_order_m,
    predict_voros,
)

#: Golden table names in source order; numeric ids 1..5 address the first five.
TABLE_NAMES: Tuple[str, ...] = (
    "ratio_order2",
    "ratio_order3",
    "tiny_fullhistory",
    "trend_fullhistory",
    "nlogn_sums",
    "coeff20",
    "scan_ratios",
)

TABLE_IDS: Dict[str, str] = {str(i + 1): name for i, name in enumerate(TABLE_NAMES[:5])}


def tables_dir() -> Path:
    return data_dir() / "tables"


def _places_of(text: str) -> int:
    return len(text.split(".", 1)[1]) if "." in text else 0


@dataclass(frozen=True)
class GoldenCell:
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

    def tolerance(self, precision: int = DEFAULT_DIGITS) -> BigReal:
        """One unit in the last printed decimal place."""
        return big(1, precision) / big(10, precision) ** self.places


@dataclass(frozen=True)
class GoldenTable:
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


def _parse_cell(row: int, column: str, text: str) -> Optional[GoldenCell]:
    if text == "-":
        return None
    parts = text.split("!")
    printed = parts[0]
    expect: Optional[str] = None
    places: Optional[int] = None
    for part in parts[1:]:
        if part.startswith("expect="):
            expect = part[len("expect="):]
        elif part.startswith("places="):
            places = int(part[len("places="):])
        else:
            raise DataFormatError(f"unknown cell annotation {part!r} in row {row}")
    if not printed:
        raise DataFormatError(f"empty cell value in row {row} column {column}")
    if places is None:
        places = _places_of(expect if expect is not None else printed)
    return GoldenCell(row=row, column=column, printed=printed, expect=expect, places=places)


def load_golden(name: str) -> GoldenTable:
    """Load a golden fixture by name or numeric id ("1".."5")."""
    name = TABLE_IDS.get(name, name)
    if name not in TABLE_NAMES:
        raise DataFormatError(
            f"unknown golden table {name!r}; known: {', '.join(TABLE_NAMES)}"
        )
    path = tables_dir() / f"{name}.tsv"
    if not path.is_file():
        raise DataFormatError(f"golden table file missing: {path}")
    metadata: Dict[str, str] = {}
    cells: Dict[Tuple[int, str], GoldenCell] = {}
    columns: Tuple[str, ...] = ()
    last_row = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                metadata[key.strip()] = value.strip()
            continue
        fields = line.split("\t")
        if not columns:
            columns = tuple(metadata.get("columns", "").split())
            if not columns:
                raise DataFormatError(f"{path}: missing '# columns:' header")
        if len(fields) != len(columns) + 1:
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(columns) + 1} fields, got {len(fields)}"
            )
        try:
            row = int(fields[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad row index {fields[0]!r}") from exc
        if last_row is not None and row <= last_row:
            raise DataFormatError(f"{path}:{lineno}: row indices must increase")
        last_row = row
        for column, text in zip(columns, fields[1:]):
            cell = _parse_cell(row, column, text)
            if cell is not None:
                cells[(row, column)] = cell
    if not cells:
        raise DataFormatError(f"{path}: no data rows")
    return GoldenTable(name=name, columns=columns, cells=cells)


# ---------------------------------------------------------------------------
# Recomputation
# ---------------------------------------------------------------------------

Builder = Callable[[int], Dict[Tuple[int, str], BigReal]]


def _build_ratio_order_m(m: int, precision: int) -> Dict[Tuple[int, str], BigReal]:
    table = lambda_table(11, precision)
    gamma = euler_gamma(precision)
    history = table.tiny_history()
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(2, 12):
        if n >= m:
            out[(n, "pred")] = predict_order_m(history, n, m) / (gamma * n)
        out[(n, "exact")] = table.tiny_part(n) / (gamma * n)
    return out


def _build_tiny_fullhistory(precision: int) -> Dict[Tuple[int, str], BigReal]:
    table = lambda_table(15, precision)
    history = table.tiny_history()
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(2, 16):
        out[(n, "pred")] = predict_full_history(history, n) / n
        out[(n, "exact")] = table.tiny_over_n(n)
    return out


def _build_trend_fullhistory(precision: int) -> Dict[Tuple[int, str], BigReal]:
    table = lambda_table(15, precision)
    history = table.trend_history()
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(1, 16):
        if n == 1:
            # no lower indices exist; the tabulation repeats the exact value
            out[(n, "pred")] = table.trend_over_n(1)
        else:
            out[(n, "pred")] = predict_full_history(history, n) / n
        out[(n, "exact")] = table.trend_over_n(n)
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
    history = table.lambda_history()
    out: Dict[Tuple[int, str], BigReal] = {}
    for n in range(1, 8):
        out[(n, "lam")] = table.lam(n)
        if n >= 2:
            out[(n, "a1")] = predict_full_history(history, n)
            out[(n, "a2")] = predict_voros(history, n)
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


def recompute_table(name: str, precision: int = DEFAULT_DIGITS) -> Dict[Tuple[int, str], BigReal]:
    """Recompute every cell of a golden table from scratch."""
    name = TABLE_IDS.get(name, name)
    if name not in _BUILDERS:
        raise DataFormatError(f"no builder for golden table {name!r}")
    return _BUILDERS[name](precision)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellReport:
    """Outcome of comparing one recomputed value with its golden cell."""

    cell: GoldenCell
    recomputed: BigReal
    matches: bool
    deviation: BigReal
    printed_matches: bool
    printed_deviation: BigReal
    tolerance: BigReal

    @property
    def flag_consistent(self) -> bool:
        """For flagged cells: correction reproduced and printed text refuted."""
        if not self.cell.flagged:
            return True
        return self.matches and not self.printed_matches


@dataclass(frozen=True)
class TableReport:
    table: GoldenTable
    precision: int
    reports: Tuple[CellReport, ...] = field(default_factory=tuple)

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


def _compare_cell(cell: GoldenCell, recomputed: BigReal, tolerance: BigReal) -> CellReport:
    precision = recomputed.precision
    target = big(cell.target, precision)
    printed = big(cell.printed, precision)
    deviation = abs(recomputed - target)
    printed_deviation = abs(recomputed - printed)
    return CellReport(
        cell=cell,
        recomputed=recomputed,
        matches=deviation < tolerance,
        deviation=deviation,
        printed_matches=printed_deviation < tolerance,
        printed_deviation=printed_deviation,
        tolerance=tolerance,
    )


def verify_table(
    name: str,
    precision: int = DEFAULT_DIGITS,
    tolerance_overrides: Optional[Dict[str, BigReal]] = None,
) -> TableReport:
    """Recompute a golden table and compare each printed cell.

    ``tolerance_overrides`` maps column names to fixed tolerances, replacing
    the default one-print-unit resolution for those columns.
    """
    table = load_golden(name)
    values = recompute_table(table.name, precision)
    overrides = tolerance_overrides or {}
    reports: List[CellReport] = []
    for row in table.rows:
        for column in table.columns:
            cell = table.cells.get((row, column))
            if cell is None:
                continue
            if (row, column) not in values:
                raise DataFormatError(
                    f"{table.name}: no recomputed value for row {row} column {column}"
                )
            tolerance = overrides.get(column, cell.tolerance(precision))
            reports.append(_compare_cell(cell, values[(row, column)], tolerance))
    return TableReport(table=table, precision=precision, reports=tuple(reports))
