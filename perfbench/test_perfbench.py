"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import catalog  # noqa: E402
import check  # noqa: E402
import gauge  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from nradiv import (  # noqa: E402
    IntFormula,
    brute_force_int_sat,
    cli,
    constant_interpretation,
    eval_term,
    parse_script,
)


def texts(workload: str, seed: int) -> list[str]:
    real, ints = run.workload_cases(workload, seed)
    return [c.text for c in real + ints]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_generators_are_deterministic_and_seeded(workload):
    assert texts(workload, 3) == texts(workload, 3)
    assert texts(workload, 3) != texts(workload, 4)


def cli_result(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def wide_case(tmp_path):
    case = gen.wide_cases(7, [3000])[0]
    path = tmp_path / "w.smt2"
    path.write_text(case.text)
    return case, str(path)


def test_checker_accepts_a_correct_transform(wide_case):
    case, path = wide_case
    assert check.check_transform(case, "totalize", cli_result(["transform", "totalize", path])) > 0


def test_checker_flags_a_corrupted_output(wide_case):
    case, path = wide_case
    rc, out, err = cli_result(["transform", "totalize", path])
    lines = out.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("(assert "))
    lines[first] = "(assert (not " + lines[first][len("(assert ") :].rstrip()[:-1] + "))\n"
    with pytest.raises(check.CheckFailed) as info:
        check.check_transform(case, "totalize", (rc, "".join(lines), err))
    assert info.value.kind == check.MISMATCH


def test_checker_flags_a_wrong_exit_code(wide_case):
    case, path = wide_case
    rc, out, err = cli_result(["classify", "--json", path])
    with pytest.raises(check.CheckFailed) as info:
        check.check_classify(case, (rc + 1, out, err))
    assert info.value.kind == check.EXIT_CODE


def test_checker_flags_output_that_does_not_parse_back(tmp_path):
    path = tmp_path / "bound-udiv.smt2"
    path.write_text(
        "(set-logic NRA)\n(declare-fun x () Real)\n"
        "(assert (forall ((udiv Real)) (= (/ udiv x) 1)))\n"
    )
    case = gen.RealCase("bound-udiv", path.read_text(), gen.NONCONSTDIV, {gen.NONZERO: 0, gen.ZERO: 0, gen.NONCONST: 1}, False, {"x": 1}, (None,))
    with pytest.raises(check.CheckFailed) as info:
        check.check_transform(case, "uf-lift", cli_result(["transform", "uf-lift", str(path)]))
    assert info.value.kind == check.NO_ROUND_TRIP


@pytest.mark.parametrize("template", sorted(gen.TEMPLATES))
@pytest.mark.parametrize("at", [0.3, None])
def test_int_reference_agrees_with_brute_force(template, at):
    case = gen.int_case(gen.rng_for("test", 5), "tiny", template, 2, at)
    formula = IntFormula.from_script(parse_script(case.text))
    want = None if case.witness is None else dict(zip(case.variables, case.witness))
    assert brute_force_int_sat(formula, case.bound) == want
    assert (case.witness is None) == (at is None)


def test_let_reference_is_the_closed_form():
    for case in gen.let_cases(2, [1, 2, 3, 4, 5, 6]):
        script = parse_script(case.text)
        assert eval_term(script.assertions[0], case.assignment, constant_interpretation(0)) == case.truths[0]


def test_one_traced_pass_reports_every_metric(tmp_path):
    real = gen.wide_cases(1, [800]) + gen.let_cases(1, [2])
    ints = gen.int_cases(1, [("cubic", 1, 0.5)])
    ops = run.build_ops(tmp_path, real, ints, 1)
    walls, tracer = run.timed_run(ops, 0, trace=True, speed=gauge.Gauge())
    attempted, failed, kinds, printed, messages = run.verify_ops(ops)
    assert failed == 0, messages
    assert attempted == 2 * len(ops)
    spec = catalog.benchmark()
    layer = run.per_layer(tracer, walls, ops, kinds)
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    self_total = sum(v for k, v in layer.items() if k.endswith("self_s") or k == "trace.bookkeeping_s")
    assert self_total == pytest.approx(layer["trace.wall_s"])  # self times cover the traced pass
    e2e = run.end_to_end(ops, printed, 0.1, 20.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    for name in catalog.END_TO_END:
        assert e2e[name] > 0, name
    for m in spec["per_layer"]:
        catalog.moves(m["name"])  # every per-layer metric says what it should move


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
