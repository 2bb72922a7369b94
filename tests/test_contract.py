"""The command-line contract over generated argv for all six subcommands.

``cli.main`` ends with exit 0, 1 or 2 and raises nothing else (argparse's own
refusals end in ``SystemExit(2)``).  Exit 2 prints nothing on stdout and ends
stderr with its one ``error:`` line.  At exit 0 or 1 every table cell with a
decimal point prints exactly ``--digits`` places.

The argv mix edge values (0, -1, the zero table's 50/51 digits, the Stieltjes
table's 81/82 indices and 115/116 digits, nan, inf, 1e400, malformed text)
with options a mode does not read and data paths that do not exist.
``--n-max`` and ``--samples`` stay small, so that each call is short.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from likeiper.cli import main

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
