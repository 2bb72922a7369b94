"""The committed mutation runner, scripts/mutants.py: its verdicts on
mutants whose outcome is known, and that every entry still applies."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

QUICK = ("tests/test_series.py::TestParitySign",)


def test_no_op_mutant_survives():
    noop = mutants.Mutant("no-op", "likeiper/series.py", "def parity_sign", "def parity_sign", QUICK)
    status, detail = mutants.run_mutant(noop)
    assert status == "survived", detail
    assert "passed" in detail


def test_breaking_mutant_is_killed():
    flipped = mutants.Mutant("flip", "likeiper/series.py", "return -1 if exponent % 2 else 1",
                             "return 1 if exponent % 2 else -1", QUICK)
    status, detail = mutants.run_mutant(flipped)
    assert status == "killed", detail


def test_missing_old_text_is_stale():
    gone = mutants.Mutant("gone", "likeiper/series.py", "no such text", "", QUICK)
    assert mutants.run_mutant(gone) == ("stale", "old text occurs 0 times in src/likeiper/series.py")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_committed_mutant_applies_once(mutant):
    # the runner refuses a stale entry; this finds it without running tests
    text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file()
