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
import time
import tracemalloc
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
    TotalizeStyle,
    classify_script,
    collect_divisions,
    count_nodes,
    emit_nonzero_vcs,
    eval_term,
    fold_script,
    format_term,
    lift_to_uf,
    parse_script,
    print_script,
    totalize,
)
from nradiv.analyzer import division_sites
from nradiv.cli import main
from nradiv.terms import add, const, dag_fold, distinct_subterms, div, eq, lt, numeral_sort, var

from conftest import MALFORMED, REPO
from strategies import scripts, shared_scripts
from support import (
    doubling_let_script,
    ite_chain_script,
    per_path_counts,
    per_path_occurrences,
    per_path_vc_texts,
)

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
    """Division occurrences per divisor class, each counted on its paths."""

    out: Counter = Counter()
    for o in collect_divisions(script):
        out[o.divisor_class] += o.paths
    return out


def outcome(fn, *args):
    """A result, or the type and message of the error raised instead."""

    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return (type(exc).__name__, str(exc))


def library_results(script: Script) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        passes = {
            "totalize": outcome(lambda: print_script(totalize(script))),
            "totalize-fold": outcome(lambda: print_script(totalize(script, fold=True))),
            "totalize-fresh": outcome(lambda: print_script(totalize(script, style=TotalizeStyle.FRESH_SYMBOL))),
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
        # A tree lists a VC per path; the DAG one per distinct path condition.
        "vcs": list(dict.fromkeys(format_term(vc) for vc in emit_nonzero_vcs(script))),
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
    input and the output, are those `count_nodes` and the division census
    of `classify_script` give on the library's own result."""

    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outputs = {
            "totalize": totalize(script),
            "totalize-fold": totalize(script, fold=True),
            "totalize-fresh": totalize(script, style=TotalizeStyle.FRESH_SYMBOL),
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
                *(sum(classify_script(s).counts.values()) for s in pair),
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
        "paths": 8,
        "under_quantifier": False,
        "value": None,
    }
    expected = {
        "occurrences": [occurrence],
        "path": str(k3_path),
        "schema_version": 2,
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
    assert classify_script(script).counts == {
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
    assert sum(classify_script(lifted).counts.values()) == 0
    assert eval_term(a, {"x": Fraction(1), "y": Fraction(2)}) is True
    assert eval_term(a, {"x": Fraction(1), "y": Fraction(0)}) is False  # floor(1) * 2^60


def test_per_occurrence_walks_skip_shared_terms_without_division():
    k = 60
    t = X
    for _ in range(k):
        t = add(t, t)  # 2^60 paths, no division
    a = lt(add(div(X, Y), t), const(0))
    script = Script(logic="QF_NRA", decls=DECLS, assertions=(a,))
    assert len(collect_divisions(script)) == 1
    ((site, _, _),) = division_sites(script)
    assert site is a.args[0].args[0]
    out = totalize(script, style=TotalizeStyle.FRESH_SYMBOL)
    assert [d.name for d in out.decls] == ["x", "y", "div0.0"]
    assert len(out.assertions) == 2


def test_equal_vcs_of_a_shared_guarded_division_are_one_term():
    script = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)(declare-fun c () Bool)"
        "(assert " + doubling_lets(12).replace("(/ x y)", "(ite c (/ x y) 0)") + ")"
    )
    (vc,) = emit_nonzero_vcs(script)  # one division under one branch, on 2^12 paths
    assert format_term(vc) == "(=> c (not (= y 0)))"


def test_fresh_totalize_rewrites_a_quantifier_once():
    k = 40  # 2^40 paths below the quantifier
    text = doubling_lets(k).replace("(/ x y)", "(/ x z)")
    script = parse_script(HEADER + f"(assert (forall ((z Real)) {text}))")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = totalize(script, style=TotalizeStyle.FRESH_SYMBOL)
    assert len(caught) == 1 and "under a quantifier" in str(caught[0].message)
    assert out.assertions == totalize(script).assertions
    assert out.decls == script.decls


def test_fresh_totalize_enters_a_shared_quantifier_once():
    k = 40  # 2^40 paths to the quantifier
    guard = "(ite (forall ((z Real)) (> (/ z y) 0)) x y)"
    script = parse_script(HEADER + f"(assert {doubling_lets(k).replace('(/ x y)', guard)})")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = totalize(script, style=TotalizeStyle.FRESH_SYMBOL)
    assert len(caught) == 1 and "under a quantifier" in str(caught[0].message)
    assert out.assertions == totalize(script).assertions
    assert out.decls == script.decls


# ---------------------------------------------------------------------------
# The division walk enters each distinct node and context once: it lists
# what a walk per tree path lists, collapsed, with the number of paths.

SHIPPED = [
    parse_script(p.read_text())
    for p in [*sorted((REPO / "corpus").glob("*.smt2")), *sorted((REPO / "golden").glob("*.smt2"))]
    if p.name != MALFORMED
]


def assert_division_walk_is_per_path_walk_collapsed(script: Script) -> None:
    occurrences = collect_divisions(script)
    assert occurrences == per_path_occurrences(script)
    assert classify_script(script).counts == per_path_counts(script)
    assert [format_term(vc) for vc in emit_nonzero_vcs(script)] == per_path_vc_texts(script)


# Guards outside binders, and a division shared between scopes: the VCs
# nest each run of guards at its own binder level.
GUARDS_OUTSIDE_BINDERS = parse_script(
    "(declare-fun x () Real)(declare-fun c () Bool)"
    "(assert (let ((d (/ 1 x))) (ite (> x 0) (forall ((x Real)) (ite c (> d x)"
    " (forall ((y Real)) (ite (> y 0) (> (/ y x) d) true)))) (> d 0))))"
)


def test_division_walk_of_each_shipped_script_is_the_per_path_walk_collapsed():
    for script in [*SHIPPED, GUARDS_OUTSIDE_BINDERS]:
        assert_division_walk_is_per_path_walk_collapsed(script)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scripts, shared_scripts(), st.sampled_from(SHIPPED)))
def test_division_walk_is_the_per_path_walk_collapsed(script):
    assert_division_walk_is_per_path_walk_collapsed(script)


def classify_in_process(path: Path, *flags: str) -> tuple[int, str, float]:
    """Exit code, stdout and wall seconds of `nradiv classify`, in-process."""

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["classify", *flags, str(path)])
    return code, out.getvalue(), time.perf_counter() - start


def test_40_doubling_lets_list_one_occurrence_on_2_to_39_paths(tmp_path):
    # At 12 lets first, so that a walk per path fails here, not hangs below.
    small = parse_script(doubling_let_script(12))
    assert [o.paths for o in collect_divisions(small)] == [2**11]
    assert len(emit_nonzero_vcs(small)) == 1
    script = parse_script(doubling_let_script(40))
    (occurrence,) = collect_divisions(script)
    assert occurrence.paths == 2**39
    assert len(emit_nonzero_vcs(script)) == 1
    path = tmp_path / "doubling.smt2"
    path.write_text(doubling_let_script(40))
    code, out, seconds = classify_in_process(path, "--json")
    assert code == 2 and seconds < 1
    assert len(out.encode()) < 10_000
    (listed,) = json.loads(out)["occurrences"]
    assert listed["paths"] == 2**39


def test_a_30_level_shared_ite_chain_classifies_as_one_occurrence(tmp_path):
    assert [o.paths for o in collect_divisions(parse_script(ite_chain_script(12)))] == [2**11]
    path = tmp_path / "ite.smt2"
    path.write_text(ite_chain_script(30))
    code, out, seconds = classify_in_process(path)
    assert code == 2 and seconds < 1
    assert out.splitlines()[1:] == [f"  line 4 col 20: non-constant, on {2**29} paths"]


def test_each_path_condition_of_a_shared_ite_chain_keeps_its_vc():
    """12 levels put the division under 11 shared `ite`s: 2^11 distinct
    path conditions, so 2^11 VCs, one per condition."""

    vcs = [format_term(vc) for vc in emit_nonzero_vcs(parse_script(ite_chain_script(12)))]
    assert len(vcs) == len(set(vcs)) == 2**11
    assert vcs[0] == "(=> (and" + " c" * 11 + ") (not (= y 0)))"
    assert vcs[-1] == "(=> (and" + " (not c)" * 11 + ") (not (= y 0)))"


# ---------------------------------------------------------------------------
# A `define-fun` call is expanded where it is used, once per tuple of
# argument objects: chains of definitions cost their size, not the tree.


def define_fun_chain(n: int, twice: bool) -> str:
    """`f0` divides its parameter by `y`; each `f{i}` calls `f{i-1}` on
    its own parameter once, plus one, or twice, doubling the divisions."""

    step = "(+ (f{0} p) (f{0} p))" if twice else "(+ (f{0} p) 1)"
    return (
        HEADER
        + "(define-fun f0 ((p Real)) Real (/ p y))\n"
        + "".join(f"(define-fun f{i} ((p Real)) Real {step.format(i - 1)})\n" for i in range(1, n))
        + f"(assert (> (f{n - 1} x) 0))\n"
    )


def assertion_lines_alone(script: Script) -> list[str]:
    """Each assertion as `format_term` prints it alone, with its own memo."""

    return [f"(assert {format_term(a, numeral_sort(script.logic))})" for a in script.assertions]


def test_assertions_that_share_a_node_print_as_each_would_alone():
    constant = parse_script(
        "(set-logic QF_NIA)(declare-fun y () Real)(define-fun c () Real (+ y 1.0))"
        "(assert (> c 0.0))(assert (< (* c c) 5.0))"
    )
    first, second = constant.assertions
    assert first.args[0] is second.args[0].args[0]  # one node under both
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = totalize(parse_script(HEADER + f"(assert {doubling_lets(6)})"),
                         style=TotalizeStyle.FRESH_SYMBOL)
    guards = Counter(id(n) for a in fresh.assertions for n in distinct_subterms(a))
    assert max(guards.values()) > 1  # a node under several defining assertions
    for script in (constant, fresh):
        lines = print_script(script).splitlines()
        assert [line for line in lines if line.startswith("(assert ")] == assertion_lines_alone(script)


def test_a_doubling_define_fun_chain_is_built_once_per_link():
    (a,) = parse_script(define_fun_chain(16, twice=True)).assertions
    assert sum(1 for _ in distinct_subterms(a)) <= 40
    assert count_nodes(a) == 2**17 + 1
    script = parse_script(define_fun_chain(40, twice=True))
    assert classify_script(script).counts[DivisorKind.NON_CONSTANT] == 2**39


def test_a_500_link_define_fun_chain_parses_in_little_memory():
    text = define_fun_chain(500, twice=False)
    tracemalloc.start()
    try:
        (a,) = parse_script(text).assertions
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, f"parse_script peaked at {peak / 1e6:.1f} MB"
    assert count_nodes(a) == 2 * 500 + 3


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


REPEATED_CALL = "(declare-fun x () Real)\n(define-fun f ((a Real)) Real (/ 1 a))\n(assert (> (f x) (f x)))\n"


def test_two_calls_on_one_declared_constant_share_one_expansion(tmp_path, capsys):
    """`x` is one object, so `(f x)` is expanded once and its division
    is one node on two paths, as for a `let`-bound argument."""

    lhs, rhs = parse_script(REPEATED_CALL).assertions[0].args
    assert lhs is rhs
    path = tmp_path / "repeat.smt2"
    path.write_text(REPEATED_CALL)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == ["  line 2 col 32: non-constant, on 2 paths"]
    assert main(["classify", "--json", str(path)]) == 2
    (listed,) = json.loads(capsys.readouterr().out)["occurrences"]
    assert (listed["line"], listed["col"], listed["paths"]) == (2, 32, 2)
    assert [format_term(vc) for vc in emit_nonzero_vcs(parse_script(REPEATED_CALL))] == ["(not (= x 0))"]
    assert main(["transform", "totalize", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "(assert (> (ite (= x 0) 0 (/ 1 x)) (ite (= x 0) 0 (/ 1 x))))"
    assert err == "[totalize] nodes 7 -> 17; divisions 2 -> 2\n"
    assert main(["scan", str(tmp_path)]) == 0
    (record,) = json.loads(capsys.readouterr().out)["files"]
    assert record["occurrences"] == record["classes"]["non-constant"] == 2
    let_bound = REPEATED_CALL.replace("(> (f x) (f x))", "(let ((z x)) (> (f z) (f z)))")
    assert collect_divisions(parse_script(let_bound)) == collect_divisions(parse_script(REPEATED_CALL))
