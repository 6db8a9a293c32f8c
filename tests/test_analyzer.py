import contextlib
import io
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies
from conftest import CORPUS_EXPECTED
from nradiv import (
    Const,
    Div,
    DivisorClass,
    DivisorKind,
    DivOccurrence,
    FragmentLabel,
    Sort,
    classify_divisor,
    classify_script,
    collect_divisions,
    emit_nonzero_vcs,
    encode_via_div0,
    fold_literal,
    fold_term,
    format_rational,
    format_term,
    parse_script,
)
from nradiv.analyzer import division_sites
from nradiv.cli import main
from support import chain_scope, classify_json_oracle, doubling_let_script, subterms

CN = DivisorKind.CONSTANT_NONZERO
CZ = DivisorKind.CONSTANT_ZERO
NC = DivisorKind.NON_CONSTANT


def divisor_of(text: str):
    """Parse `(assert (= (/ x DIVISOR) 1))` and return the divisor term."""

    script = parse_script(f"(declare-fun x () Real)(assert (= (/ x {text}) 1))")
    return script.assertions[0].args[0].den


@pytest.mark.parametrize(
    "text,kind,value",
    [
        ("2", CN, Fraction(2)),
        ("0.5", CN, Fraction(1, 2)),
        ("(- 4)", CN, Fraction(-4)),
        ("(- 0 2)", CN, Fraction(-2)),
        ("(* 2 3)", CN, Fraction(6)),
        ("(/ 1 2)", CN, Fraction(1, 2)),
        ("(/ 1 3)", CN, Fraction(1, 3)),  # exact, where `fold_term` keeps the division
        ("(+ (/ 1 3) (/ 1 3))", CN, Fraction(2, 3)),
        ("0", CZ, None),
        ("(- 3 3)", CZ, None),
        ("(* 2 0)", CZ, None),
        ("x", NC, None),
        ("(+ x 1)", NC, None),
        ("(* x 0)", NC, None),  # folding never looks at variables
        ("(/ 1 (- 2 2))", NC, None),  # refused fold: division by zero inside
    ],
)
def test_classify_divisor(text, kind, value):
    got = classify_divisor(divisor_of(text))
    assert got.kind is kind
    assert got.value == value


def test_fold_literal():
    assert fold_literal(divisor_of("(+ 1 (* 2 3))")) == Fraction(7)
    assert fold_literal(divisor_of("(- 5)")) == Fraction(-5)
    assert fold_literal(divisor_of("(/ (/ 8 2) 2)")) == Fraction(2)
    assert fold_literal(divisor_of("(/ 1 0)")) is None
    assert fold_literal(divisor_of("x")) is None


@given(st.one_of(strategies.literal_terms, strategies.int_literal_terms))
def test_fold_literal_is_what_fold_term_folds_to(term):
    """Folding keeps the value, and leaves only literals that print as
    one literal of their sort: an integer for Int, a decimal for Real."""

    folded = fold_term(term)
    assert fold_literal(folded) == fold_literal(term)
    for t in subterms(folded):
        if type(t) is Const:
            text = format_rational(abs(t.value))
            assert "(" not in text and (t.sort is Sort.REAL or "." not in text)


def test_nested_divisions_in_source_order():
    script = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (= (/ (/ x 2) y) 0))"
    )
    occ = collect_divisions(script)
    assert [o.divisor_class.kind for o in occ] == [NC, CN]
    outer = script.assertions[0].args[0]
    (first, _, _), (second, _, _) = division_sites(script)
    assert first is outer and second is outer.num
    # pre-order equals source order: outer '(' comes first
    assert occ[0].loc.col < occ[1].loc.col


def test_under_quantifier_flag(parsed_corpus):
    occ = collect_divisions(parsed_corpus["nonconst_zero.smt2"])
    assert [o.under_quantifier for o in occ] == [True, True, False]
    assert all(o.divisor_class.kind is CZ for o in occ)


def test_occurrences_span_assertions():
    script = parse_script(
        "(declare-fun x () Real)(assert (< (/ x 2) 1))(assert (< (/ x 3) 1))"
    )
    occ = collect_divisions(script)
    assert [o.divisor_class.value for o in occ] == [2, 3]


@pytest.mark.parametrize("name,expected", sorted(CORPUS_EXPECTED.items()))
def test_corpus_labels(parsed_corpus, name, expected):
    assert classify_script(parsed_corpus[name]).label.value == expected


def test_guarded_division_still_non_constant(parsed_corpus):
    verdict = classify_script(parsed_corpus["nonconst_guarded_ite.smt2"])
    assert verdict.label is FragmentLabel.NON_CONSTANT_DIVISION
    assert [o.divisor_class.kind for o in verdict.occurrences] == [NC]


def test_encoded_cubic_has_exactly_six_zero_divisions(cubic_sum_formula):
    script = encode_via_div0(cubic_sum_formula).script
    occ = collect_divisions(script)
    assert len(occ) == 6  # 2 in the shift axiom, 1 in the base axiom, 3 fixpoints
    assert all(o.divisor_class.kind is CZ for o in occ)
    assert sum(o.under_quantifier for o in occ) == 3


@given(strategies.scripts)
def test_collect_finds_every_division_node(script):
    expected = sum(
        1 for a in script.assertions for t in subterms(a) if isinstance(t, Div)
    )
    assert len(collect_divisions(script)) == expected


_SEVERITY = {
    FragmentLabel.POLYNOMIAL_ONLY: 0,
    FragmentLabel.CONSTANT_DIVISION_ONLY: 1,
    FragmentLabel.NON_CONSTANT_DIVISION: 2,
}


@given(strategies.scripts, strategies.bool_terms)
def test_adding_an_assertion_is_monotone(script, extra):
    import dataclasses

    bigger = dataclasses.replace(script, assertions=script.assertions + (extra,))
    before = classify_script(script)
    after = classify_script(bigger)
    assert after.occurrences[: len(before.occurrences)] == before.occurrences
    assert _SEVERITY[after.label] >= _SEVERITY[before.label]


@given(strategies.numeric_terms)
def test_constant_verdicts_match_evaluation(term):
    from nradiv import FLOOR, IDENTITY, eval_term

    got = classify_divisor(term)
    if got.kind is CN:
        assert eval_term(term, {}, FLOOR) == got.value
        assert eval_term(term, {}, IDENTITY) == got.value
    elif got.kind is CZ:
        assert eval_term(term, {}, FLOOR) == 0
        assert eval_term(term, {}, IDENTITY) == 0


def test_division_20000_deep_keeps_its_path_class_and_location():
    depth = 20_000
    text = "(declare-fun x () Real)\n(assert (= x " + "(+ 1 " * depth + "(/ x 2)" + ")" * depth + "))"
    script = parse_script(text)
    (occurrence,) = collect_divisions(script)
    node = script.assertions[0].args[1]
    for _ in range(depth):
        node = node.args[1]
    ((site, _, paths),) = division_sites(script)
    assert site is node and paths == 1
    assert occurrence.divisor_class == DivisorClass(CN, Fraction(2))
    assert tuple(occurrence.loc) == (2, len("(assert (= x ") + len("(+ 1 ") * depth + 2)  # at its /
    assert not occurrence.under_quantifier


def traced_peak(call) -> tuple[object, int]:
    """`call()` and the peak of traced memory while it ran, in bytes."""

    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def both_walks_within(script, limit: int) -> list:
    """`collect_divisions` and `emit_nonzero_vcs` of the script, each
    required to peak under `limit` bytes of traced memory."""

    results = []
    for walk in (collect_divisions, emit_nonzero_vcs):
        result, peak = traced_peak(lambda: walk(script))
        assert peak < limit, f"{walk.__name__} peaked at {peak / 1e6:.1f} MB"
        results.append(result)
    return results


@pytest.mark.parametrize("quantified", [False, True], ids=["ite-else-chain", "forall-nest"])
def test_5000_nested_scopes_cost_no_copy_per_level(quantified):
    """One division under 5,000 `ite` else branches or 5,000 `forall`s: the
    division walk adds one scope cell per level and copies no guard or
    binder list, so both of its users stay small."""

    depth = 5_000
    head = "(declare-fun x () Real)\n(declare-fun y () Real)\n(declare-fun c () Bool)\n"
    if quantified:
        body = "".join(f"(forall ((q{i} Real)) " for i in range(depth)) + "(= (/ x y) 1)" + ")" * depth
    else:
        body = "(= x " + "(ite c x " * depth + "(/ x y)" + ")" * depth + ")"
    script = parse_script(f"{head}(assert {body})")
    (occurrence,), (vc,) = both_walks_within(script, 20_000_000)
    assert occurrence.under_quantifier is quantified
    ((site, _, paths),) = division_sites(script, chain_scope())
    assert paths == 1
    if quantified:
        node = script.assertions[0]
        for i in range(depth):
            assert vc.bound == ((f"q{i}", Sort.REAL),)
            vc, node = vc.body, node.body
        assert site is node.args[0]
    else:
        node = script.assertions[0].args[1]
        for _ in range(depth):
            node = node.orelse
        assert site is node
        guards, vc = vc.args
        assert [format_term(g) for g in guards.args] == ["(not c)"] * depth
    assert format_term(vc) == "(not (= y 0))"


def test_8000_chained_divisions_keep_nothing_per_level():
    """`(+ (/ x 2) (+ (/ x 3) ... x))`: n divisions, each one level below
    the one before.  Both users of the division walk list them in order
    and keep nothing per occurrence that grows with its depth."""

    n = 8_000
    chain = "".join(f"(+ (/ x {i}) " for i in range(2, n + 2)) + "x" + ")" * n
    script = parse_script(f"(declare-fun x () Real)\n(assert (> {chain} 0))")
    occurrences, vcs = both_walks_within(script, 20_000_000)
    assert [o.divisor_class.value for o in occurrences] == list(range(2, n + 2))
    assert len(vcs) == n


def test_a_division_on_32768_paths_is_one_occurrence_object():
    """16 doubling lets: the one division is listed once, with the number of
    paths that reach it, so the list costs nothing per path."""

    script = parse_script(doubling_let_script(16))
    occurrences, peak = traced_peak(lambda: collect_divisions(script))
    assert occurrences == [DivOccurrence(DivisorClass(NC), occurrences[0].loc, False, 32_768)]
    assert peak < 1_000_000, f"collect_divisions peaked at {peak / 1e6:.2f} MB"


def test_a_shared_division_in_and_under_a_quantifier_is_two_objects():
    script = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (let ((d (/ x y))) (and (> d 0) (forall ((q Real)) (> d q)))))"
    )
    free, bound = collect_divisions(script)
    assert free is not bound and free.loc == bound.loc
    assert (free.under_quantifier, bound.under_quantifier) == (False, True)


def test_classify_json_of_32768_paths_formats_one_occurrence(tmp_path):
    path = tmp_path / "doubling.smt2"
    path.write_text(doubling_let_script(16))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, peak = traced_peak(lambda: main(["classify", "--json", str(path)]))
    assert code == 2
    assert peak < 15_000_000, f"classify --json peaked at {peak / 1e6:.1f} MB"
    assert out.getvalue() == classify_json_oracle(str(path))
