import sys
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
import support
from nradiv import (
    FLOOR,
    Apply,
    Const,
    Div,
    FragmentLabel,
    NradivError,
    Script,
    Sort,
    SortError,
    TotalizeStyle,
    classify_script,
    collect_divisions,
    constant_interpretation,
    division_axiom,
    emit_nonzero_vcs,
    eval_term,
    fold_script,
    fold_term,
    format_term,
    lift_to_uf,
    parse_script,
    print_script,
    totalize,
)
from nradiv.analyzer import division_sites
from nradiv.terms import FunDecl, Quantifier, eq, var
from support import subterms

FRESH = TotalizeStyle.FRESH_SYMBOL


def assertions_of(text: str) -> Script:
    return parse_script(text)


# ---------------------------------------------------------------------------
# totalize


def test_totalize_branch_shape():
    s = parse_script("(declare-fun a () Real)(assert (= (/ a 0) a))")
    out = totalize(s)
    assert format_term(out.assertions[0]) == "(= (ite (= 0 0) 0 (/ a 0)) a)"


def test_totalize_then_fold():
    s = parse_script("(declare-fun a () Real)(assert (= (/ a 0) a))")
    out = totalize(s, fold=True)
    assert format_term(out.assertions[0]) == "(= 0 a)"


def test_totalize_custom_value():
    s = parse_script("(declare-fun a () Real)(assert (= (/ a 0) a))")
    out = totalize(s, Fraction(1, 2))
    t = out.assertions[0].args[0]
    assert eval_term(t, {"a": Fraction(9)}, FLOOR) == Fraction(1, 2)


def test_totalize_matches_constant_interpretation():
    """Totalizing with value c = reading every zero division as c."""

    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (< (/ x y) (+ (/ 1 0) y)))"
    )
    out = totalize(s, Fraction(17))
    for xv in (Fraction(0), Fraction(3), Fraction(-5, 2)):
        for yv in (Fraction(0), Fraction(2)):
            a = {"x": xv, "y": yv}
            want = eval_term(s.assertions[0], a, constant_interpretation(17))
            got = eval_term(out.assertions[0], a, FLOOR)
            assert got == want


def test_totalize_guards_every_division():
    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (= (/ x y) (/ y x)))"
    )
    out = totalize(s)
    # each VC becomes (=> (not (= u 0)) (not (= u 0))), a tautology
    vcs = emit_nonzero_vcs(out)
    assert len(vcs) == 2
    for vc in vcs:
        hyp, concl = vc.args
        assert hyp == concl


def test_totalize_idempotent_branch(parsed_corpus):
    for script in parsed_corpus.values():
        once = totalize(script)
        assert totalize(once) == once


def test_totalize_idempotent_fresh(parsed_corpus):
    import warnings

    for script in parsed_corpus.values():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once = totalize(script, style=FRESH)
            assert totalize(once, style=FRESH) == once


def test_totalize_leaves_existing_guards_alone():
    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (= x (ite (= y 0) 0 (/ x y))))"
    )
    out = totalize(s)
    assert out.assertions == s.assertions


def test_totalize_fresh_names_and_definitions():
    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (= (/ x y) (/ y x)))"
    )
    out = totalize(s, style=FRESH)
    names = [d.name for d in out.decls]
    assert names[-2:] == ["div0.0", "div0.1"]
    assert format_term(out.assertions[0]) == "(= div0.0 div0.1)"
    assert (
        format_term(out.assertions[1])
        == "(= div0.0 (ite (= y 0) 0 (/ x y)))"
    )
    assert (
        format_term(out.assertions[2])
        == "(= div0.1 (ite (= x 0) 0 (/ y x)))"
    )


def test_totalize_fresh_skips_taken_names():
    s = parse_script(
        "(declare-fun div0.0 () Real)(declare-fun x () Real)"
        "(assert (= (/ x x) div0.0))"
    )
    out = totalize(s, style=FRESH)
    assert [d.name for d in out.decls][-1] == "div0.1"


def test_totalize_fresh_skips_names_a_verbatim_command_defines():
    # Only symbols are taken: not a keyword, nor the text of a string.
    s = parse_script(
        "(declare-fun x () Real)(define-fun-rec div0.0 ((n Real)) Real n)"
        '(set-option :div0.1 true)(echo "div0.2")(assert (> (/ x 2) 0))'
    )
    out = totalize(s, style=FRESH)
    assert [d.name for d in out.decls] == ["x", "div0.1"]
    assert "(declare-fun div0.0 " not in print_script(out)


def test_totalize_fresh_warns_under_quantifier():
    s = parse_script("(assert (forall ((q Real)) (= (/ q q) 1)))")
    with pytest.warns(UserWarning, match="under a quantifier"):
        out = totalize(s, style=FRESH)
    assert "(ite (= q 0) 0 (/ q q))" in print_script(out)
    assert len(out.decls) == 0


def test_totalize_fresh_warns_once_at_the_caller():
    s = parse_script("(assert (forall ((q Real)) (= (/ q q) (/ 1 q))))")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        totalize(s, style=FRESH)
    assert len(caught) == 1
    assert caught[0].filename == __file__


def _fresh_outcome(run) -> tuple:
    """What a fresh-symbol totalization gives: the printed script, its
    declarations and its warnings, or the `SortError` it raises."""

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run()
        except SortError as exc:
            return ("SortError", str(exc), exc.arg)
    return print_script(out), out.decls, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(strategies.fresh_scripts(), st.sampled_from((Fraction(0), Fraction(1, 2))))
def test_fresh_totalize_matches_the_reference(script, value):
    got = _fresh_outcome(lambda: totalize(script, value, style=FRESH))
    assert got == _fresh_outcome(lambda: support.reference_fresh_totalize(script, value))


def test_totalize_int_value_check():
    body = eq(Div(var("i", Sort.INT), var("j", Sort.INT), Sort.INT), var("i", Sort.INT))
    s = Script(
        logic="QF_NIA",
        metadata=(),
        decls=(FunDecl("i", (), Sort.INT), FunDecl("j", (), Sort.INT)),
        assertions=(body,),
        unsupported=(),
        check_sat=True,
        exit_cmd=False,
    )
    out = totalize(s, Fraction(3))
    guard = out.assertions[0].args[0]
    assert guard.then.value == Fraction(3) and guard.then.sort is Sort.INT
    with pytest.raises(SortError):
        totalize(s, Fraction(1, 2))


def test_totalized_still_nonconstant_label_but_tautological_vcs():
    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)(assert (= (/ x y) 1))"
    )
    out = totalize(s)
    verdict = classify_script(out)
    assert verdict.label is FragmentLabel.NON_CONSTANT_DIVISION
    (vc,) = emit_nonzero_vcs(out)
    assert format_term(vc) == "(=> (not (= y 0)) (not (= y 0)))"


# ---------------------------------------------------------------------------
# folding


def test_fold_term_arith_and_bool():
    s = parse_script("(assert (= (+ 1 2) (* 2 1.5)))")
    assert format_term(fold_term(s.assertions[0])) == "true"
    s2 = parse_script("(assert (=> (< 1 2) (<= 3 3) false))")
    assert fold_term(s2.assertions[0]).value is False


def test_fold_keeps_zero_division():
    s = parse_script("(declare-fun x () Real)(assert (= (/ 1 0) x))")
    assert format_term(fold_term(s.assertions[0])) == "(= (/ 1 0) x)"
    s2 = parse_script("(declare-fun x () Real)(assert (= (/ 1 4) x))")
    assert format_term(fold_term(s2.assertions[0])) == "(= 0.25 x)"


def test_fold_stops_at_the_digits_python_prints():
    """A folded value of `sys.get_int_max_str_digits()` digits folds; one
    of more raises at once, also where a later step would cancel it back
    to a small value; a limit of 0 is no limit."""

    limit = sys.get_int_max_str_digits()
    big = Const(Fraction(10 ** (limit - 1)), Sort.REAL)  # `limit` digits
    nine, ten, one = (Const(Fraction(n), Sort.REAL) for n in (9, 10, 1))
    widest = Apply("*", (big, nine), Sort.REAL)
    too_wide = Apply("*", (big, ten), Sort.REAL)
    assert fold_term(widest) == Const(Fraction(9 * 10 ** (limit - 1)), Sort.REAL)
    assert fold_term(Div(one, big, Sort.REAL)) == Const(Fraction(1, 10 ** (limit - 1)), Sort.REAL)
    message = rf"^value too long to print: more than {limit} digits$"
    for term in (
        too_wide,
        Apply("-", (Const(Fraction(0), Sort.REAL), too_wide), Sort.REAL),
        Div(one, too_wide, Sort.REAL),
        Div(too_wide, too_wide, Sort.REAL),
    ):
        with pytest.raises(NradivError, match=message):
            fold_term(term)
    sys.set_int_max_str_digits(0)
    try:
        assert fold_term(too_wide) == Const(Fraction(10**limit), Sort.REAL)
    finally:
        sys.set_int_max_str_digits(limit)


def test_fold_script_only_touches_assertions(parsed_corpus):
    for script in parsed_corpus.values():
        out = fold_script(script)
        assert out.decls == script.decls
        assert out.logic == script.logic


@given(strategies.numeric_terms, st.randoms(use_true_random=False))
def test_fold_preserves_value(term, rng):
    assignment = {name: support.random_rational(rng) for name in strategies.VAR_POOL}
    assert eval_term(fold_term(term), assignment, FLOOR) == eval_term(
        term, assignment, FLOOR
    )


# ---------------------------------------------------------------------------
# lift_to_uf


def test_division_axiom_text():
    assert (
        format_term(division_axiom())
        == "(forall ((x Real) (y Real)) (=> (not (= y 0)) (= x (* (/ x y) y))))"
    )
    assert (
        format_term(division_axiom("udiv"))
        == "(forall ((x Real) (y Real)) (=> (not (= y 0)) (= x (* (udiv x y) y))))"
    )


def test_lift_structure():
    s = parse_script(
        "(set-logic QF_NRA)(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (= (/ x y) 1))(check-sat)"
    )
    result = lift_to_uf(s)
    assert result.div_symbol == "udiv"
    assert result.script.logic == "QF_UFNRA"
    assert result.script.assertions[-1] == division_axiom(result.div_symbol)
    assert format_term(result.script.assertions[0]) == "(= (udiv x y) 1)"
    (decl,) = [d for d in result.script.decls if d.name == "udiv"]
    assert decl.params == (Sort.REAL, Sort.REAL) and decl.result is Sort.REAL


def test_lift_logic_with_quantifiers():
    s = parse_script("(set-logic NRA)(assert (forall ((q Real)) (= (/ q q) 1)))")
    assert lift_to_uf(s).script.logic == "UFNRA"


def test_lift_no_divisions_is_identity():
    s = parse_script("(set-logic QF_NRA)(declare-fun x () Real)(assert (= x 1))")
    result = lift_to_uf(s)
    assert result.script == s
    assert result.div_symbol is None


def test_lift_avoids_name_collision():
    s = parse_script(
        "(declare-fun udiv () Real)(assert (= (/ udiv udiv) 1))"
    )
    result = lift_to_uf(s)
    assert result.div_symbol == "udiv0"


def test_lift_avoids_names_a_verbatim_command_defines():
    s = parse_script(
        "(declare-fun x () Real)(define-fun-rec udiv ((a Real) (b Real)) Real a)"
        "(assert (> (/ x 2) 0))"
    )
    result = lift_to_uf(s)
    assert result.div_symbol == "udiv0"
    assert "(declare-fun udiv " not in print_script(result.script)


def test_lift_avoids_bound_names():
    s = parse_script(
        "(declare-fun x () Real)(assert (forall ((udiv Real)) (= (/ udiv x) 1)))"
    )
    result = lift_to_uf(s)
    assert result.div_symbol == "udiv0"
    assert parse_script(print_script(result.script)) == result.script


def test_lift_rejects_int_division():
    body = eq(Div(var("i", Sort.INT), var("j", Sort.INT), Sort.INT), var("i", Sort.INT))
    s = Script(
        logic="QF_NIA",
        metadata=(),
        decls=(FunDecl("i", (), Sort.INT), FunDecl("j", (), Sort.INT)),
        assertions=(body,),
        unsupported=(),
        check_sat=True,
        exit_cmd=False,
    )
    with pytest.raises(SortError):
        lift_to_uf(s)


def test_lift_removes_division_entirely(parsed_corpus):
    for script in parsed_corpus.values():
        lifted = lift_to_uf(script).script
        assert classify_script(lifted).label is FragmentLabel.POLYNOMIAL_ONLY
        assert not any(
            isinstance(t, Div) for a in lifted.assertions for t in subterms(a)
        )


@given(strategies.bool_terms, st.randoms(use_true_random=False))
def test_lift_preserves_meaning_on_nonzero_divisors(term, rng):
    from hypothesis import assume

    from nradiv import EvalError

    assignment = {name: support.random_rational(rng) for name in strategies.VAR_POOL}
    for t in subterms(term):
        if isinstance(t, Div):
            assume(eval_term(t.den, assignment, FLOOR) != 0)
    decls = tuple(FunDecl(n, (), Sort.REAL) for n in strategies.VAR_POOL)
    s = Script(
        logic="QF_NRA",
        metadata=(),
        decls=decls,
        assertions=(term,),
        unsupported=(),
        check_sat=True,
        exit_cmd=False,
    )
    result = lift_to_uf(s)
    if result.div_symbol is None:
        return
    lifted_term = result.script.assertions[0]
    try:
        want = eval_term(term, assignment, FLOOR)
    except EvalError:
        assume(False)
    got = eval_term(
        lifted_term,
        assignment,
        FLOOR,
        funcs={result.div_symbol: support.exact_division},
    )
    assert got == want


# ---------------------------------------------------------------------------
# emit_nonzero_vcs


def test_vc_simple():
    s = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)(assert (= (/ x y) 1))"
    )
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == "(not (= y 0))"


def test_vc_constant_zero_divisor_is_false():
    s = parse_script("(declare-fun a () Real)(assert (= (/ a 0) a))")
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == "(not (= 0 0))"
    assert eval_term(vc, {"a": Fraction(0)}, FLOOR) is False


def test_vc_nested_ite_guards():
    s = parse_script(
        "(declare-fun c1 () Bool)(declare-fun c2 () Bool)(declare-fun x () Real)"
        "(assert (= 1 (ite c1 (ite c2 (/ 1 x) 0) 0)))"
    )
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == "(=> (and c1 c2) (not (= x 0)))"


def test_vc_else_branch_negates_condition():
    s = parse_script(
        "(declare-fun c () Bool)(declare-fun x () Real)"
        "(assert (= 1 (ite c 0 (/ 1 x))))"
    )
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == "(=> (not c) (not (= x 0)))"


def test_vc_quantified_is_closed():
    s = parse_script("(assert (forall ((q Real)) (= (/ q q) 1)))")
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == "(forall ((q Real)) (not (= q 0)))"
    s2 = parse_script("(assert (exists ((q Real)) (= (/ q q) 1)))")
    (vc2,) = emit_nonzero_vcs(s2)
    assert format_term(vc2) == "(forall ((q Real)) (not (= q 0)))"


@pytest.mark.parametrize(
    "assertion, want",
    [
        # A guard outside a binder stays outside it: the bound `x` is not
        # the `x` that the guard tests.
        (
            "(ite (> x 0) (forall ((x Real)) (> (/ 1 x) 0)) true)",
            "(=> (> x 0) (forall ((x Real)) (not (= x 0))))",
        ),
        (
            "(forall ((x Real)) (ite (> x 0) (> (/ 1 x) 0) true))",
            "(forall ((x Real)) (=> (> x 0) (not (= x 0))))",
        ),
        # Each run of guards is one implication at its own level.
        (
            "(forall ((x Real)) (ite (> x 0) (ite (> x 1)"
            " (forall ((y Real)) (ite (> y 0) (> (/ y x) 0) true)) true) true))",
            "(forall ((x Real)) (=> (and (> x 0) (> x 1))"
            " (forall ((y Real)) (=> (> y 0) (not (= x 0))))))",
        ),
    ],
    ids=["guard-outside-binder", "guard-inside-binder", "binder-under-outer-guards"],
)
def test_vc_guards_stay_at_their_binder_level(assertion, want):
    s = parse_script(f"(declare-fun x () Real)(assert {assertion})")
    (vc,) = emit_nonzero_vcs(s)
    assert format_term(vc) == want


GUARDED_AND_QUANTIFIED = (
    "(declare-fun x () Real)(declare-fun y () Real)(declare-fun c () Bool)"
    "(assert (let ((d (/ x y))) (and (= d (ite c (/ 1 d) d))"
    " (forall ((q Real)) (> (ite (> q 0) (/ q x) (/ x (- 1 1))) d)))))"
)


def test_vc_count_and_order_follow_collection(parsed_corpus):
    scripts = [*parsed_corpus.values(), parse_script(GUARDED_AND_QUANTIFIED)]
    for script in scripts:
        vcs = emit_nonzero_vcs(script)
        sites = division_sites(script, support.chain_scope())
        assert len(vcs) == len(sites)
        firsts: dict[tuple[int, bool], Div] = {}  # (id(division), quantified) -> division
        for vc, (d, scope, _) in zip(vcs, sites):
            quantified = scope is not None and scope[3]
            firsts.setdefault((id(d), quantified), d)
            assert (type(vc) is Quantifier) == quantified
            while type(vc) is Quantifier:
                vc = vc.body
            if vc.op == "=>":
                vc = vc.args[1]
            assert vc.op == "not" and vc.args[0].op == "="
            assert vc.args[0].args[0] is d.den
        # The occurrences are the VCs' divisions, one per quantifier context.
        occs = collect_divisions(script)
        assert [(o.loc, o.under_quantifier) for o in occs] == [
            (d.loc, quantified) for (_, quantified), d in firsts.items()
        ]


def test_vcs_of_one_divisor_sort_share_one_zero():
    s = parse_script("(declare-fun x () Real)(declare-fun y () Real)(assert (> (/ x y) (/ y x) (/ 1 x)))")
    vcs = emit_nonzero_vcs(s)
    assert [format_term(vc) for vc in vcs] == ["(not (= y 0))", "(not (= x 0))", "(not (= x 0))"]
    zeros = [vc.args[0].args[1] for vc in vcs]
    assert all(z is zeros[0] for z in zeros)


def test_vcs_of_a_chain_of_guarded_divisions_share_their_guards():
    # (ite c (/ x 2) (ite c (/ x 3) ... x)): VC i has i + 1 hypotheses, so
    # the VCs are quadratic as text, but the `(not c)` of each `ite` is one
    # term, shared by the VCs of every division below it.
    n = 1000
    s = parse_script(
        "(declare-fun x () Real)(declare-fun c () Bool)(assert (= x "
        + "".join(f"(ite c (/ x {i}) " for i in range(2, n + 2))
        + "x"
        + ")" * n
        + "))"
    )
    tracemalloc.start()
    try:
        vcs = emit_nonzero_vcs(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, f"emit_nonzero_vcs peaked at {peak / 1e6:.1f} MB"
    assert len(vcs) == n
    assert format_term(vcs[0]) == "(=> c (not (= 2 0)))"
    for i in range(1, n):
        hypotheses = "(not c) " * i + "c"
        assert format_term(vcs[i]) == f"(=> (and {hypotheses}) (not (= {i + 2} 0)))"
    inner, outer = vcs[-1].args[0].args, vcs[-2].args[0].args
    assert all(a is b for a, b in zip(inner, outer[:-1]))
