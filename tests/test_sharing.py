"""Shared subterms: the parser expands `let` into one object with many
parents, and every walker must treat such a DAG exactly as the tree it
stands for.  Printed output, counts, values and error messages are those
of the unshared script that the printed text parses back to."""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nradiv import (
    DivisorKind,
    FunDecl,
    Script,
    Sort,
    Term,
    TotalizeConfig,
    TotalizeStyle,
    collect_divisions,
    count_nodes,
    emit_nonzero_vcs,
    eval_term,
    fold_script,
    format_term,
    lift_to_uf,
    parse_script,
    print_script,
    substitute,
    totalize,
)
from nradiv.analyzer import count_divisions
from nradiv.cli import main
from nradiv.terms import add, const, dag_fold, div, eq, lt, var

from strategies import scripts, shared_scripts

TRANSFORMS = {
    "totalize": ["totalize"],
    "totalize-fold": ["totalize", "--fold"],
    "totalize-fresh": ["totalize", "--style", "fresh"],
    "uf-lift": ["uf-lift"],
}


def doubling_lets(k: int, divisor: str = "y") -> str:
    """`(/ x divisor)` doubled k times through nested lets: 2^k occurrences."""

    text = f"(let ((a0 (/ x {divisor}))) "
    for i in range(1, k + 1):
        prev = f"a{i - 1}"
        step = f"(+ {prev} {prev})" if i % 2 else f"(- (* 3 {prev}) {prev})"
        text += f"(let ((a{i} {step})) "
    return text + f"(= a{k} 1)" + ")" * (k + 1)


HEADER = "(set-logic QF_NRA)\n(declare-fun x () Real)\n(declare-fun y () Real)\n"


def shared_text(k: int) -> str:
    """Doubling lets, plus a shared guard, a shared constant division under
    an ite, and shared divisions under a quantifier."""

    return HEADER + "".join(
        f"(assert {a})\n"
        for a in (
            doubling_lets(k),
            doubling_lets(k, "(- 5 3)"),
            "(let ((g (ite (= y 0) 0 (/ x y)))) (let ((h (+ g g)))"
            " (< h (ite (> x 0) h (/ h (- 5 3))))))",
            "(forall ((z Real)) (let ((q (/ z y))) (>= (* q q) (- q (/ 6 (- 5 3))))))",
        )
    ) + "(check-sat)\n"


def unshared(script: Script) -> Script:
    """The same script as a tree: printed text has no `let`."""

    return parse_script(print_script(script))


def division_classes(script: Script) -> Counter:
    return Counter(o.divisor_class for o in collect_divisions(script))


def outcome(fn, *args):
    """A result, or the type and message of the error raised instead."""

    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return (type(exc).__name__, str(exc))


def library_results(script: Script) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = TotalizeConfig(style=TotalizeStyle.FRESH_SYMBOL)
        passes = {
            "totalize": outcome(lambda: print_script(totalize(script))),
            "totalize-fold": outcome(lambda: print_script(totalize(script, fold=True))),
            "totalize-fresh": outcome(lambda: print_script(totalize(script, fresh))),
            "uf-lift": outcome(lambda: print_script(lift_to_uf(script).script)),
            "fold": outcome(lambda: print_script(fold_script(script))),
        }
    envs = [
        {"x": Fraction(3, 2), "y": Fraction(-2), "z": Fraction(1)},
        {"x": Fraction(5), "y": Fraction(0), "z": Fraction(0)},
    ]
    return {
        **passes,
        "nodes": [count_nodes(a) for a in script.assertions],
        "divisions": division_classes(script),
        "values": [outcome(eval_term, a, env) for a in script.assertions for env in envs],
        "vcs": [format_term(vc) for vc in emit_nonzero_vcs(script)],
    }


@pytest.mark.parametrize("k", range(1, 7))
def test_library_walkers_see_the_tree(k):
    script = parse_script(shared_text(k))
    assert library_results(script) == library_results(unshared(script))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("variant", sorted(TRANSFORMS))
def test_transform_prints_the_tree(k, variant, tmp_path, capsys):
    shared = tmp_path / "shared.smt2"
    shared.write_text(shared_text(k))
    flat = tmp_path / "flat.smt2"
    flat.write_text(print_script(parse_script(shared.read_text())))
    results = []
    for path in (shared, flat):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["transform", *TRANSFORMS[variant], str(path)])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0


@settings(max_examples=60, deadline=None)
@given(shared_scripts())
def test_shared_scripts_walk_as_trees(script):
    assert library_results(script) == library_results(unshared(script))


SUMMARY = re.compile(r"\] nodes (\d+) -> (\d+); divisions (\d+) -> (\d+)")


@settings(max_examples=60, deadline=None)
@given(st.one_of(scripts, shared_scripts()))
def test_transform_summary_counts_what_the_library_counts(script):
    """The summary line's tree nodes and division occurrences, for the
    input and the output, are those `count_nodes` and `count_divisions`
    give on the library's own result."""

    fresh = TotalizeConfig(style=TotalizeStyle.FRESH_SYMBOL)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outputs = {
            "totalize": totalize(script),
            "totalize-fold": totalize(script, fold=True),
            "totalize-fresh": totalize(script, fresh),
            "uf-lift": lift_to_uf(script).script,
        }
        path = Path(tmp) / "script.smt2"
        path.write_text(print_script(script))
        for variant, argv in TRANSFORMS.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(["transform", *argv, str(path)]) == 0
            printed = tuple(map(int, SUMMARY.search(err.getvalue()).groups()))
            pair = (script, outputs[variant])
            assert printed == (
                *(sum(count_nodes(a) for a in s.assertions) for s in pair),
                *(sum(count_divisions(s).values()) for s in pair),
            )


# ---------------------------------------------------------------------------
# K = 3, pinned: one division node, reached by 2^3 paths.

K3 = HEADER + f"(assert {doubling_lets(3)})\n(check-sat)\n"


@pytest.fixture
def k3_path(tmp_path):
    path = tmp_path / "k3.smt2"
    path.write_text(K3)
    return path


def test_k3_classify_json_lists_every_occurrence(k3_path, capsys):
    assert main(["classify", "--json", str(k3_path)]) == 2
    occurrence = {
        "class": "non-constant",
        "col": 20,
        "line": 4,
        "under_quantifier": False,
        "value": None,
    }
    expected = {
        "occurrences": [occurrence] * 8,
        "path": str(k3_path),
        "verdict": "non-constant-division",
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "variant, summary",
    [
        ("totalize", "[totalize] nodes 37 -> 77; divisions 8 -> 8"),
        ("totalize-fold", "[totalize] nodes 37 -> 77; divisions 8 -> 8"),
        ("totalize-fresh", "[totalize] nodes 37 -> 101; divisions 8 -> 8"),
        (
            "uf-lift",
            "[uf-lift] nodes 37 -> 50; divisions 8 -> 0; division symbol udiv; "
            "logic QF_NRA -> QF_UFNRA",
        ),
    ],
)
def test_k3_transform_summary(k3_path, capsys, variant, summary):
    assert main(["transform", *TRANSFORMS[variant], str(k3_path)]) == 0
    assert capsys.readouterr().err == summary + "\n"


def test_k3_scan_record(k3_path, capsys):
    assert main(["scan", str(k3_path.parent)]) == 0
    report = json.loads(capsys.readouterr().out)
    classes = {"constant-nonzero": 0, "constant-zero": 0, "non-constant": 8}
    assert report["files"] == [
        {
            "classes": classes,
            "occurrences": 8,
            "path": "k3.smt2",
            "status": "ok",
            "verdict": "non-constant-division",
        }
    ]
    assert report["totals"]["occurrences"] == 8
    assert report["totals"]["classes"] == classes


# ---------------------------------------------------------------------------
# Each walker costs the DAG, not the tree: 2^60 occurrences of one division.

X, Y = var("x"), var("y")
DECLS = (FunDecl("x", (), Sort.REAL), FunDecl("y", (), Sort.REAL))


def doubled(k: int) -> Term:
    t = div(X, Y)
    for _ in range(k):
        t = add(t, t)
    return t


def test_walkers_finish_on_2_to_60_occurrences():
    k = 60
    tree = 2 ** (k + 2) - 1  # tree nodes of `doubled(k)`
    a = eq(doubled(k), const(2 ** (k - 1)))
    script = Script(logic="QF_NRA", decls=DECLS, assertions=(a,))
    assert count_nodes(a) == tree + 2
    assert count_divisions(script) == {
        DivisorKind.CONSTANT_NONZERO: 0,
        DivisorKind.CONSTANT_ZERO: 0,
        DivisorKind.NON_CONSTANT: 2**k,
    }
    # (/ x y) becomes (ite (= y 0) 0 (/ x y)): 5 more nodes per occurrence.
    (guarded,) = totalize(script).assertions
    assert count_nodes(guarded) == tree + 2 + 5 * 2**k
    (folded,) = fold_script(script).assertions
    assert count_nodes(folded) == tree + 2
    lifted = lift_to_uf(script).script
    assert count_nodes(lifted.assertions[0]) == tree + 2
    assert sum(count_divisions(lifted).values()) == 0
    assert eval_term(a, {"x": Fraction(1), "y": Fraction(2)}) is True
    assert eval_term(a, {"x": Fraction(1), "y": Fraction(0)}) is False  # floor(1) * 2^60


# ---------------------------------------------------------------------------
# No walker recurses: a term 10,000 deep, built with the constructors.


def deep_term(depth: int) -> tuple[Term, str]:
    t, text = X, "x"
    for i in range(depth):
        if i % 2:
            t, text = div(t, Y), f"(/ {text} y)"
        else:
            t, text = add(t, const(1)), f"(+ {text} 1)"
    return t, text


def test_walkers_need_no_recursion_at_depth_10000():
    depth = 10_000
    t, text = deep_term(depth)
    a = lt(t, const(0))
    script = Script(logic="QF_NRA", decls=DECLS, assertions=(a,))
    assert count_nodes(a) == 2 * depth + 3
    assert print_script(script) == f"(set-logic QF_NRA)\n{HEADER[19:]}(assert (< {text} 0))\n"
    assert count_nodes(totalize(script).assertions[0]) == 2 * depth + 3 + 5 * depth // 2
    assert fold_script(script).assertions == script.assertions
    assert print_script(lift_to_uf(script).script).count("(udiv ") == depth // 2 + 1
    vcs = emit_nonzero_vcs(script)
    assert len(vcs) == depth // 2 and format_term(vcs[0]) == "(not (= y 0))"
    one = {"x": Fraction(1), "y": Fraction(1)}
    assert eval_term(t, one) == 1 + depth // 2
    assert eval_term(substitute(t, {"x": const(2)}), one) == 2 + depth // 2


def test_dag_fold_calls_fn_once_per_distinct_node():
    calls = []
    t = doubled(60)
    assert dag_fold(t, lambda node, below: calls.append(node) or 1 + sum(below)) == 2**62 - 1
    assert len(calls) == 63 and len({id(node) for node in calls}) == 63
    # A shared memo carries finished nodes from one call to the next.
    memo: dict = {}
    dag_fold(t.args[0], lambda node, below: 0, memo=memo)
    calls.clear()
    dag_fold(t, lambda node, below: calls.append(node) or 0, memo=memo)
    assert calls == [t]
