"""The package's contract: the README's Library example, each module's public
names, and what importing loads."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import ModuleType

import pytest

import likeiper
from likeiper.constants import StieltjesTable
from likeiper.goldens import CellReport, GoldenCell, GoldenTable, TableReport
from likeiper.lambda_core import LambdaTable, ScanRow
from likeiper.probe import ComplexSample, LineProbeReport, NearCollision, SampleFailure
from likeiper.recurrences import VOROS, PredictionResult, RecurrenceScheme
from likeiper.zeros import InversionCheck, ZeroList

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def traced_targets():
    """The (module, attribute) pairs that perfbench/tracing.py patches by name."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for module, attribute, *_ in tracing.TARGETS]


def traced_modules():
    """The modules whose functions perfbench/tracing.py patches by name."""
    return sorted({module for module, _ in traced_targets()})


LIBRARY_NAMES = {"lambda_table", "inversion_check", "load_zeros", "conjecture_scan"}


def test_root_exports_only_the_library_example_names():
    # the four resolve on first use, so resolve them before reading the namespace
    for name in LIBRARY_NAMES:
        getattr(likeiper, name)
    public = {name for name in vars(likeiper) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(likeiper, name), ModuleType)}
    assert public - modules == LIBRARY_NAMES
    assert likeiper.__version__
    with pytest.raises(AttributeError, match="has no attribute 'BigReal'"):
        likeiper.BigReal


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


#: The public names each module defines itself (imports into it not counted).
#: A name joins or leaves the package's surface only by an edit here.
PUBLIC_SURFACE = {
    "__init__": set(),
    "__main__": set(),
    "bigreal": {"BigReal"},
    "cli": {"cmd_approx", "cmd_lambda", "cmd_probe", "cmd_scan", "cmd_verify", "cmd_zeros",
            "main"},
    "constants": {"ConstantsError", "StieltjesTable", "bernoulli_weight", "euler_gamma",
                  "load_stieltjes", "polygamma_half", "zeta_int", "zeta_ints"},
    "datafiles": {"DEFAULT_DIGITS", "DataFormatError", "MIN_DIGITS", "PrecisionError", "data_dir",
                  "default_stieltjes_path", "default_zeros_path", "exact_decimal",
                  "parse_indexed_table", "read_table", "table_digits"},
    "goldens": {"Builder", "CellReport", "GoldenCell", "GoldenTable", "TABLE_IDS", "TABLE_NAMES",
                "TableReport", "load_golden", "recompute_table", "tables_dir", "verify_table"},
    "lambda_core": {"LambdaTable", "ScanRow", "conjecture_scan", "guard_digits", "history",
                    "lambda1_closed_form", "lambda_table", "tiny_series", "trend_series"},
    "probe": {"ComplexLike", "ComplexSample", "DEFAULT_PROBE_DIGITS", "LineProbeReport",
              "NearCollision", "ProbeEvaluationError", "SampleFailure", "VARY_IM", "VARY_RE",
              "f_eval", "line_probe", "zeta_complex", "zeta_deriv"},
    "recurrences": {"FULL_HISTORY", "HistoryError", "ORDER_M", "PredictionResult",
                    "RecurrenceScheme", "VOROS", "Value", "binomial_guard_digits",
                    "discrete_derivative", "model_predictor", "phi_nlogn", "predict",
                    "prediction_run", "self_seeded_run"},
    "series": {"Coefficient", "SeriesDomainError", "SeriesOrderError", "parity_sign",
               "series_compose_zmap", "series_log", "series_mul"},
    "zeros": {"InversionCheck", "ZeroDataError", "ZeroList", "delta_bound", "inversion_check",
              "load_zeros", "z_partial", "z_tail_bound"},
}


def defined_names(path: Path) -> set:
    """Public names bound at a module's top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_public_surface():
    package = Path(likeiper.__file__).parent
    surface = {path.stem: defined_names(path) for path in package.glob("*.py")}
    assert surface == PUBLIC_SURFACE


def imported_names(tree: ast.AST) -> dict:
    """Each name an import binds in a module, with the import's line;
    ``from __future__`` imports bind nothing a module reads."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return names


def test_no_unused_imports():
    # no linter runs on src/, and deleting code can leave its imports behind;
    # __init__ imports only to re-export
    package = Path(likeiper.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree).items() if name not in read]
    assert not unused


def test_import_loads_neither_cli_goldens_nor_probe():
    run_fresh(
        "import sys, likeiper; "
        "loaded = {'likeiper.cli', 'likeiper.goldens', 'likeiper.probe'} & set(sys.modules); "
        "assert not loaded, loaded"
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    run_fresh(
        "import sys, likeiper.cli; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )


def test_loading_the_tables_does_not_load_the_predictors():
    run_fresh(
        "import sys, likeiper, likeiper.constants, likeiper.zeros; "
        "assert 'likeiper.recurrences' not in sys.modules"
    )


def test_loading_the_tables_loads_neither_mpmath_nor_bigreal():
    # the benchmark's set-up path: the tables are checked in exact rationals
    run_fresh(
        "import sys, likeiper, likeiper.constants, likeiper.zeros; "
        "likeiper.constants.load_stieltjes(), likeiper.zeros.load_zeros(); "
        "loaded = {'mpmath', 'likeiper.bigreal'} & set(sys.modules); "
        "assert not loaded, loaded"
    )


RECORDS = [StieltjesTable, GoldenCell, GoldenTable, CellReport, TableReport,
           LambdaTable, ScanRow, ComplexSample, SampleFailure, NearCollision, LineProbeReport,
           RecurrenceScheme, PredictionResult, ZeroList, InversionCheck]


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_records_are_immutable(record_type):
    fields = list(inspect.signature(record_type).parameters)
    assert fields
    if record_type is RecurrenceScheme:
        record = RecurrenceScheme(kind=VOROS)
    else:
        record = record_type(*[0] * len(fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cli_import_loads_every_traced_module():
    modules = traced_modules()
    assert len(modules) == 10
    run_fresh(
        "import sys, likeiper.cli; "
        f"missing = set({modules!r}) - set(sys.modules); "
        "assert not missing, missing"
    )


def test_every_traced_name_resolves():
    # a rename of a function the tracer patches by name fails here, in tier-1,
    # and not only in the traced benchmark run
    missing = []
    for module, attribute in traced_targets():
        try:
            attrgetter(attribute)(importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attribute}")
    assert not missing
