"""The command-line contract over generated argv for all six subcommands.

``cli.main`` ends with exit 0, 1 or 2 and raises nothing else (argparse's own
refusals end in ``SystemExit(2)``).  Exit 2 prints nothing on stdout and ends
stderr with its one ``error:`` line.  At exit 0 or 1 every table cell with a
decimal point prints exactly ``--digits`` places.

The argv mix edge values (0, -1, the zero table's 50/51 digits, the Stieltjes
table's 81/82 indices and 115/116 digits, nan, inf, 1e400, malformed text)
with options a mode does not read and data paths that do not exist.
``--n-max`` and ``--samples`` stay small, so that each call is short.

Over ``--digits`` the data tables support, every cell of ``lambda``, ``scan``,
``approx`` at its default target and the ``lhs``/``z_partial`` columns of
``zeros --inversion`` is within one unit in its last place of the benchmark's
reference values (``perfbench/reference/reference.json``, computed from mpmath
primitives alone at 190 digits and stored to 130 significant digits).  Every
``approx`` target at n <= 20, which the reference does not cover, is within one
unit of the same command at 40 more digits.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from likeiper.bigreal import MIN_DIGITS
from likeiper.cli import _parse_scheme, main
from likeiper.constants import load_stieltjes
from likeiper.lambda_core import guard_digits
from likeiper.recurrences import VOROS, RecurrenceScheme
from likeiper.zeros import load_zeros

EDGES = ("0", "-1", "2", "10", "50", "51", "81", "82", "115", "116", "nan", "inf", "1e400", "abc")
COUNTS = ("0", "-1", "2", "10", "81", "82", "nan", "abc")
SAMPLES = ("0", "-1", "2", "10", "nan", "abc")
MISSING = "/nonexistent-likeiper-data/table.tsv"

#: each subcommand's options and the values drawn for them; None marks a flag
_COMMON = {"--digits": EDGES, "--format": ("tsv", "csv", "xml")}
_LAMBDAS = {"--n-max": COUNTS, "--stieltjes": (MISSING,)}
GRAMMAR = {
    "lambda": {**_COMMON, **_LAMBDAS},
    "verify": {**_COMMON, "--table": ("1", "2", "3", "4", "5", "coeff20", "6")},
    "approx": {**_COMMON, **_LAMBDAS,
               "--scheme": ("a1", "b", "d", "a2", "m:4", "m:1", "m:abc", "zz"),
               "--target": ("tiny", "trend", "lambda"),
               "--seed": ("exact", "initial", "initial:2", "initial:nan", "initial:1e400",
                          "initial:abc")},
    "scan": {**_COMMON, **_LAMBDAS},
    "zeros": {**_COMMON, **_LAMBDAS, "--zeros": (MISSING,), "--inversion": None},
    "probe": {"--digits": EDGES, "--line": ("re", "im", "xx"), "--samples": SAMPLES,
              "--tol": EDGES,
              **{f"--{name}": EDGES for name in ("b", "t", "t0", "t1", "b0", "b1")}},
}
_EVERY_OPTION = {name: values for options in GRAMMAR.values() for name, values in options.items()}
_PATHS = {"--stieltjes", "--zeros"}

#: the values each option accepts somewhere, drawn as often as all its values
#: together, so that a fair share of calls runs to a table
_ACCEPTED = {"--digits": ("10", "50", "81", "115"), "--n-max": ("2", "10", "81"),
             "--format": ("tsv", "csv"), "--samples": ("2", "10"),
             "--seed": ("exact", "initial", "initial:2"),
             "--scheme": ("a1", "b", "d", "a2", "m:4"), "--line": ("re", "im"),
             **{f"--{name}": ("-1", "0", "2", "10", "50")
                for name in ("b", "t", "t0", "t1", "b0", "b1", "tol")}}

#: options each subcommand always gets: the required ones, and for a probe
#: the fixed part and range of its line
_ALWAYS = {"verify": ("--table",), "approx": ("--scheme",), "probe": ("--line",)}
_PROBE_LINE = {"re": ("--t", "--b0", "--b1"), "im": ("--b", "--t0", "--t1"), "xx": ()}


def _value(name):
    values = _EVERY_OPTION[name]
    return st.sampled_from(values) | st.sampled_from(_ACCEPTED.get(name, values))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    own = GRAMMAR[command]
    names = list(_ALWAYS.get(command, ()))
    names += draw(st.lists(st.sampled_from(sorted(set(own) - set(names) - _PATHS)), unique=True))
    if draw(st.integers(0, 3)) == 0:  # a missing data file, or an option not taken here
        names.append(draw(st.sampled_from(sorted(_PATHS | set(_EVERY_OPTION) - set(own)))))
    argv = [command]
    for name in names:
        values = _EVERY_OPTION[name]
        argv += [name] if values is None else [name, draw(_value(name))]
        if command == "probe" and name == "--line":
            for needed in _PROBE_LINE[argv[-1]]:
                if needed not in names:
                    argv += [needed, draw(_value(needed))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _last(argv, option, default):
    """The value argparse keeps for ``option``: its last occurrence."""
    values = [argv[i + 1] for i, word in enumerate(argv[:-1]) if word == option]
    return values[-1] if values else default


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_exit_code_message_and_places(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert err.endswith("\n") and "error: " in lines[-1], (argv, err)
        assert sum("error:" in line for line in lines) == 1, (argv, err)
        return
    digits = int(_last(argv, "--digits", "30" if argv[0] == "probe" else "50"))
    delimiter = "," if _last(argv, "--format", "tsv") == "csv" else "\t"
    for line in out.splitlines():
        if line.startswith(("#", "row ")):  # comments, and verify's per-cell lines
            continue
        first, *cells = line.split(delimiter)
        if not _is_number(first):  # a header
            continue
        for cell in cells:
            if "." in cell:
                assert len(cell.split(".")[1]) == digits, (argv, line)


REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                        / "reference.json").read_text())["ops"]

#: per command: the reference op whose cells it is checked against, the
#: largest n that op covers, and the columns checked
_REFERENCED = {
    "lambda": ("lambda_80_50", 80, ("trend_over_n", "tiny_over_n", "lambda")),
    "scan": ("scan_32_80", 32, ("ratio",)),
    **{f"approx {scheme}": (f"approx_{scheme.replace(':', '')}", 32,
                            ("predicted", "exact", "abs_error", "rel_error"))
       for scheme in ("a1", "b", "d", "a2", "m:4")},
    "zeros --inversion": ("inversion_32_50", 32, ("lhs", "z_partial")),
}


def _reference(op_id):
    """The op's number cells as exact rationals, by (n, column)."""
    return {(int(row), column): Fraction(value)
            for row, column, kind, value, *_ in REFERENCE[op_id] if kind == "num"}


@st.composite
def supported_runs(draw):
    """An argv, the reference op and columns it is checked against, and its
    --digits, drawn at most the digits the Stieltjes and zero tables serve."""
    name = draw(st.sampled_from(sorted(_REFERENCED)))
    op_id, n_top, columns = _REFERENCED[name]
    command, *rest = name.split()
    guard, n_low = 0, 1
    if command == "approx":
        scheme, _ = _parse_scheme(rest[0])
        rest, n_low = ["--scheme", rest[0]], max(2, scheme.m or 2)
    n_max = draw(st.integers(n_low, n_top))
    if command == "approx":
        guard = scheme.guard_digits(n_max)
    elif command == "zeros":
        guard = RecurrenceScheme(kind=VOROS).guard_digits(n_max)
    top = load_stieltjes().digits - guard_digits(n_max) - guard
    if command == "zeros":
        top = min(top, load_zeros().digits)
    digits = draw(st.integers(MIN_DIGITS, top))
    return [command, *rest, "--n-max", str(n_max), "--digits", str(digits)], op_id, columns, digits


@settings(max_examples=100, deadline=None)
@given(supported_runs())
def test_cells_within_one_unit_of_the_reference(run):
    argv, op_id, columns, digits = run
    code, out, err = _run(argv)
    assert code == 0 and err == "", (argv, err)
    want, unit = _reference(op_id), Fraction(1, 10**digits)
    lines = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert rows, argv
    checked = [header.index(column) for column in columns]
    wrong = [(row[0], header[i]) for row in rows for i in checked
             if abs(Fraction(row[i]) - want[int(row[0]), header[i]]) > unit]
    assert wrong == [], argv


def test_a2_tiny_target_within_one_unit_of_80_digits():
    argv = ["approx", "--scheme", "a2", "--target", "tiny", "--n-max", "20"]
    code, out, _ = _run(argv + ["--digits", "40"])
    finer_code, finer, _ = _run(argv + ["--digits", "80"])
    assert code == finer_code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    finer_rows = [line.split("\t") for line in finer.splitlines()[1:]]
    assert [row[0] for row in rows] == [row[0] for row in finer_rows]
    wrong = [(row[0], i) for row, finer_row in zip(rows, finer_rows) for i in range(1, 5)
             if abs(Fraction(row[i]) - Fraction(finer_row[i])) > Fraction(1, 10**40)]
    assert wrong == []


@pytest.mark.parametrize("target", ["tiny", "trend", "lambda"])
@pytest.mark.parametrize("scheme", ["a1", "b", "d", "a2", "m:4"])
def test_approx_cells_within_one_unit_of_40_more_digits(scheme, target):
    # every target at small n, which the reference does not cover: a2's tiny and trend
    # predictions reach 10 integer digits, past a 5-digit pad over --digits significant
    wrong = []
    for n_max, digits in (20, 40), (11, 30), (20, 12):
        argv = ["approx", "--scheme", scheme, "--target", target, "--n-max", str(n_max)]
        runs = [_run(argv + ["--digits", str(d)]) for d in (digits, digits + 40)]
        assert [code for code, _, _ in runs] == [0, 0], argv
        rows, finer = ([line.split("\t") for line in out.splitlines()[1:]] for _, out, _ in runs)
        assert [row[0] for row in rows] == [row[0] for row in finer] != []
        wrong += [(n_max, digits, row[0], i)
                  for row, finer_row in zip(rows, finer) for i in range(1, 5)
                  if abs(Fraction(row[i]) - Fraction(finer_row[i])) > Fraction(1, 10**digits)]
    assert wrong == []
