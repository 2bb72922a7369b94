"""The package root's contract: the README's Library example and what importing loads."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import likeiper

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def traced_modules():
    """The modules whose functions perfbench/tracing.py patches by name."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({module for module, *_ in tracing.TARGETS})


def test_root_exports_only_the_library_example_names():
    public = {name for name in vars(likeiper) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(likeiper, name), ModuleType)}
    assert public - modules == {"lambda_table", "inversion_check", "load_zeros", "conjecture_scan"}
    assert likeiper.__version__


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_import_loads_neither_cli_goldens_nor_probe():
    run_fresh(
        "import sys, likeiper; "
        "loaded = {'likeiper.cli', 'likeiper.goldens', 'likeiper.probe'} & set(sys.modules); "
        "assert not loaded, loaded"
    )


def test_cli_import_loads_every_traced_module():
    modules = traced_modules()
    assert len(modules) == 10
    run_fresh(
        "import sys, likeiper.cli; "
        f"missing = set({modules!r}) - set(sys.modules); "
        "assert not missing, missing"
    )
