"""Tests of the benchmark itself: its checker, its failure count and its
tracer.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from check import compare  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


def lambda_cell(n: int) -> list:
    return next(c for c in REFERENCE["ops"]["lambda_80_50"] if c[:2] == [str(n), "lambda"])


def rounded(value: str, places: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 300
        return Decimal(value).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)


def output(n: int, value) -> str:
    return f"n\tlambda\n{n}\t{value}\n"


def test_checker_accepts_the_rounded_reference():
    cell = lambda_cell(7)
    assert compare([cell], output(7, rounded(cell[3], 50))) == (1, [])


def test_checker_rejects_one_unit_in_the_last_place():
    cell = lambda_cell(7)
    near = rounded(cell[3], 50)
    unit = Decimal(1).scaleb(-50)
    with localcontext() as ctx:
        ctx.prec = 300
        # one unit further from the reference than the correctly rounded value
        away = near + unit if near >= Decimal(cell[3]) else near - unit
    assert compare([cell], output(7, away)) == (1, [("7", "lambda")])


def test_checker_rejects_fewer_places_or_scientific_notation():
    cell = lambda_cell(7)
    assert cell[4] == 50
    assert compare([cell], output(7, rounded(cell[3], 20)))[1] == [("7", "lambda")]
    assert compare([cell], output(7, rounded(cell[3], 60)))[1] == [("7", "lambda")]
    scientific = f"{Decimal(cell[3]):.60e}"
    assert compare([cell], output(7, scientific))[1] == [("7", "lambda")]


def test_checker_rejects_a_flipped_verdict_and_a_missing_or_extra_row():
    ref = [["1", "consistent", "text", "yes"]]
    assert compare(ref, "n\tconsistent\n1\tno\n")[1] == [("1", "consistent")]
    assert compare(ref, "n\tconsistent\n")[1] == [("1", "consistent")]
    assert compare(ref, "n\tconsistent\n1\tyes\n2\tyes\n") == (2, [("2", "<extra row>")])


def test_fail_frac_counts_an_exit_2_op():
    ok_op = ("lambda_small", "cli", ["lambda", "--n-max", "2", "--digits", "20"])
    bad_op = ("lambda_bad", "cli", ["lambda", "--n-max", "2", "--digits", "1"])
    assert run.run_op(ok_op)[0] is True
    assert run.run_op(bad_op)[0] is False
    passes = [{"lambda_small": run.run_op(ok_op), "lambda_bad": run.run_op(bad_op)}]
    reference = {"ops": {"lambda_small": [], "lambda_bad": []}}
    checked = run.check_passes(passes, reference, {"wrong_cells": {}})
    assert (checked["attempted"], checked["failed"]) == (2, 1)


def test_an_unknown_subcommand_is_a_failed_op_not_a_crash_of_the_bench():
    assert run.run_op(("nope", "cli", ["no-such-command"]))[0] is False


def _snapshot() -> dict:
    import likeiper.bigreal

    state = {}
    for name, module in list(sys.modules.items()):
        if name == "likeiper" or name.startswith("likeiper."):
            state.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    state.update({("BigReal", k): v for k, v in vars(likeiper.bigreal.BigReal).items()})
    return state


def test_wrappers_record_spans_and_restore_the_originals():
    import likeiper.cli  # noqa: F401  (loads every module the targets name)

    before = _snapshot()
    with Tracer() as tracer:
        assert _snapshot() != before
        ok, text = run.run_op(("small", "cli", ["lambda", "--n-max", "3", "--digits", "20"]))
    assert ok and text.startswith("n\t")
    assert _snapshot() == before
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("series.compose_zmap") == 2
    assert tracer.calls("bigreal.objects") > 0
    assert tracer.total_time("cli.main") >= tracer.total_time("lambda_core.lambda_table") > 0
    assert {name for _, _, name, _ in TARGETS} >= {"series.mul", "probe.zeta_deriv"}


def test_traced_output_is_identical_to_untraced():
    op = ("small", "cli", ["scan", "--n-max", "4", "--digits", "20"])
    plain = run.run_op(op)
    with Tracer():
        traced = run.run_op(op)
    assert plain == traced
