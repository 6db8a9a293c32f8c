from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

import strategies

from nradiv import (
    DecodeError,
    EncodeError,
    EncodedProblem,
    EvalError,
    IntFormula,
    Sort,
    brute_force_int_sat,
    decode_witness,
    encode_integer_formula,
    encode_via_div0,
    eval_term,
    floor_axioms,
    format_term,
    parse_script,
    print_script,
    replace_uf_with_div0,
)
from nradiv.terms import Apply, Const, Div, Ite, add, const, eq, free_vars, var


def ivar(name: str):
    return var(name, Sort.INT)


def iconst(n: int):
    return const(n, Sort.INT)


def rationals(point: dict) -> dict:
    return {name: Fraction(v) for name, v in point.items()}


UF_SHIFT = "(forall ((x Real)) (= (+ (f x) 1) (f (+ x 1))))"
UF_BASE = "(forall ((x Real)) (=> (and (<= 0 x) (< x 1)) (= (f x) 0)))"
DIV0_SHIFT = "(forall ((x Real)) (= (+ (/ x 0) 1) (/ (+ x 1) 0)))"
DIV0_BASE = "(forall ((x Real)) (=> (and (<= 0 x) (< x 1)) (= (/ x 0) 0)))"


def test_floor_axioms_uf_text():
    ax = floor_axioms()
    assert format_term(ax.shift_axiom) == UF_SHIFT
    assert format_term(ax.base_axiom) == UF_BASE


def test_floor_axioms_div0_text():
    ax = floor_axioms()
    assert format_term(replace_uf_with_div0(ax.shift_axiom, "f")) == DIV0_SHIFT
    assert format_term(replace_uf_with_div0(ax.base_axiom, "f")) == DIV0_BASE


def test_div0_axioms_are_uf_axioms_with_division_spelling(cubic_sum_formula):
    ax = floor_axioms()
    d0 = encode_via_div0(cubic_sum_formula).script
    assert d0.assertions[:2] == (
        replace_uf_with_div0(ax.shift_axiom, "f"),
        replace_uf_with_div0(ax.base_axiom, "f"),
    )


def test_encode_uf_structure(cubic_sum_formula):
    problem = encode_integer_formula(cubic_sum_formula)
    s = problem.script
    assert s.logic == "UFNRA"
    assert [d.name for d in s.decls] == ["f", "a", "b", "c"]
    assert s.decls[0].params == (Sort.REAL,)
    assert all(d.result is Sort.REAL for d in s.decls)
    texts = [format_term(a) for a in s.assertions]
    assert texts[0] == UF_SHIFT
    assert texts[1] == UF_BASE
    assert texts[2:5] == ["(= (f a) a)", "(= (f b) b)", "(= (f c) c)"]
    assert texts[5] == "(= (+ (* a a a) (* b b b)) (* c c c))"
    assert s.check_sat


def test_encode_div0_structure(cubic_sum_formula):
    problem = encode_via_div0(cubic_sum_formula)
    s = problem.script
    assert s.logic == "NRA"
    assert [d.name for d in s.decls] == ["a", "b", "c"]
    texts = [format_term(a) for a in s.assertions]
    assert texts[2] == "(= (/ a 0) a)"


def test_modes_differ_only_in_floor_spelling(cubic_sum_formula):
    uf = encode_integer_formula(cubic_sum_formula).script
    d0 = encode_via_div0(cubic_sum_formula).script
    mapped = tuple(replace_uf_with_div0(a, "f") for a in uf.assertions)
    assert mapped == d0.assertions


def test_golden_output(cubic_sum_formula, golden_div0_path):
    text = print_script(encode_via_div0(cubic_sum_formula).script)
    assert text == golden_div0_path.read_text()


def test_encoded_scripts_round_trip(cubic_sum_formula):
    for problem in (
        encode_integer_formula(cubic_sum_formula),
        encode_via_div0(cubic_sum_formula),
    ):
        text = print_script(problem.script)
        again = parse_script(text)
        assert again == problem.script
        assert print_script(again) == text


def test_uf_name_avoids_variables():
    formula = IntFormula(("f",), eq(ivar("f"), iconst(0)))
    problem = encode_integer_formula(formula)
    assert [d.name for d in problem.script.decls] == ["f0", "f"]
    assert format_term(problem.script.assertions[2]) == "(= (f0 f) f)"


# ---------------------------------------------------------------------------
# IntFormula validation


def test_int_formula_rejects_duplicates():
    with pytest.raises(EncodeError, match="duplicate"):
        IntFormula(("x", "x"), eq(ivar("x"), iconst(0)))


def test_int_formula_rejects_non_bool_body():
    with pytest.raises(EncodeError, match="Bool"):
        IntFormula(("x",), ivar("x"))


def test_int_formula_rejects_loose_variables():
    with pytest.raises(EncodeError, match=r"^free variables not listed: \['y'\]$"):
        IntFormula(("x",), eq(ivar("x"), ivar("y")))


def test_int_formula_rejects_real_pieces():
    body = Apply("=", (ivar("x"), const(1)), Sort.BOOL)
    with pytest.raises(EncodeError, match="non-Int literal"):
        IntFormula(("x",), body)
    with pytest.raises(EncodeError, match="non-Int literal"):
        IntFormula(("x",), eq(ivar("x"), const(Fraction(1, 2), Sort.INT)))
    with pytest.raises(EncodeError, match="must be Int"):
        IntFormula(("x",), eq(var("x", Sort.REAL), var("x", Sort.REAL)))


def test_int_formula_rejects_division_ite_quantifiers():
    x = ivar("x")
    with pytest.raises(EncodeError, match="not allowed"):
        IntFormula(("x",), eq(Div(x, x, Sort.INT), x))
    with pytest.raises(EncodeError, match="not allowed"):
        IntFormula(("x",), eq(Ite(eq(x, x), x, x, Sort.INT), x))
    quantified = parse_script("(assert (forall ((q Real)) (= q q)))").assertions[0]
    with pytest.raises(EncodeError, match="not allowed"):
        IntFormula((), quantified)


@pytest.mark.parametrize(
    "body, message",
    [
        (Apply("=", (ivar("a"),), Sort.BOOL), "'=' needs at least 2 arguments"),
        (
            eq(Apply("+", (const(True, Sort.BOOL), ivar("a")), Sort.INT), ivar("a")),
            "'+' expects numeric arguments, got Bool",
        ),
    ],
)
def test_int_formula_applies_the_sort_rule(body, message):
    with pytest.raises(EncodeError) as excinfo:
        IntFormula(("a",), body)
    assert str(excinfo.value) == message
    with pytest.raises(EvalError):  # the interpreter rejects it too
        eval_term(body, {"a": Fraction(1)})


def test_int_formula_rejects_an_application_that_misstates_its_sort():
    a, b = ivar("a"), ivar("b")
    body = eq(Apply("+", (a, b), Sort.BOOL), const(True))  # `+` over Ints claims Bool
    with pytest.raises(EncodeError) as excinfo:
        IntFormula(("a", "b"), body)
    assert str(excinfo.value) == "'+' application has sort Bool, not Int"
    later = Apply("and", (Apply("+", (a, b), Sort.BOOL), eq(Div(a, b, Sort.INT), a)), Sort.BOOL)
    with pytest.raises(EncodeError) as excinfo:  # a piece not allowed wins, wherever it is
        IntFormula(("a", "b"), later)
    assert str(excinfo.value) == "construct not allowed in an integer body: (/ a b)"


def test_int_formula_accepts_deep_bodies():
    t = ivar("x")
    for _ in range(5000):
        t = add(t, iconst(1))
    formula = IntFormula(("x",), eq(t, iconst(5000)))
    assert free_vars(formula.body) == frozenset({"x"})
    with pytest.raises(EncodeError, match="free variables not listed: \\['x'\\]"):
        IntFormula((), formula.body)


def test_int_formula_checks_a_shared_body_once_per_node():
    t = ivar("a")
    for _ in range(60):  # a tree of 2^60 nodes, a DAG of 61
        t = add(t, t)
    formula = IntFormula(("a",), eq(t, iconst(0)))
    assert encode_via_div0(formula).source is formula


def test_int_formula_reports_the_first_bad_node_in_pre_order():
    x = ivar("x")
    shared = Ite(eq(x, x), x, Div(x, x, Sort.INT), Sort.INT)
    body = eq(add(shared, Div(shared, x, Sort.INT)), shared)
    with pytest.raises(EncodeError) as excinfo:
        IntFormula(("x",), body)
    assert str(excinfo.value) == (
        "construct not allowed in an integer body: (ite (= x x) x (/ x x))"
    )
    quantified = parse_script(
        "(set-logic LIA)(assert (forall ((q Int)) (= (ite true q q) 1)))"
    ).assertions[0]
    with pytest.raises(EncodeError, match=r"^construct not allowed in an integer body: \(forall"):
        IntFormula((), quantified)
    t = x
    for _ in range(3000):  # the message prints a deep node whole
        t = add(t, iconst(1))
    with pytest.raises(EncodeError) as excinfo:
        IntFormula(("x",), eq(Div(t, x, Sort.INT), x))
    assert str(excinfo.value) == (
        "construct not allowed in an integer body: (/ " + "(+ " * 3000 + "x" + " 1)" * 3000 + " x)"
    )


def test_free_vars_subtracts_bound_names_only_below_their_binder():
    script = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (and (forall ((x Real)) (= x y)) (exists ((y Real)) (= x y)) (= x x)))"
    )
    forall, exists, _ = script.assertions[0].args
    assert free_vars(forall) == frozenset({"y"})
    assert free_vars(exists) == frozenset({"x"})
    assert free_vars(script.assertions[0]) == frozenset({"x", "y"})


def test_int_formula_rejects_function_calls():
    call = Apply("g", (ivar("x"),), Sort.INT)
    with pytest.raises(EncodeError, match="operator 'g'"):
        IntFormula(("x",), eq(call, ivar("x")))


def test_from_script(cubic_sum_script, cubic_sum_formula):
    assert IntFormula.from_script(cubic_sum_script) == cubic_sum_formula


def test_from_script_conjoins_assertions():
    s = parse_script(
        "(set-logic QF_NIA)(declare-fun x () Int)"
        "(assert (<= 0 x))(assert (< x 3))"
    )
    formula = IntFormula.from_script(s)
    assert format_term(formula.body) == "(and (<= 0 x) (< x 3))"


def test_from_script_empty_body_is_true():
    s = parse_script("(set-logic QF_NIA)(declare-fun x () Int)(check-sat)")
    assert IntFormula.from_script(s).body == Const(True, Sort.BOOL)


def test_from_script_rejects_non_int_and_non_constant():
    with pytest.raises(EncodeError, match="must be Int"):
        IntFormula.from_script(parse_script("(declare-fun x () Real)(assert (= x x))"))
    with pytest.raises(EncodeError, match="not a constant"):
        IntFormula.from_script(
            parse_script(
                "(set-logic QF_NIA)(declare-fun g (Int) Int)(assert (= (g 1) 1))"
            )
        )


# ---------------------------------------------------------------------------
# decode_witness


@pytest.fixture(params=[encode_integer_formula, encode_via_div0], ids=["uf", "div0"])
def cubic_problem(request, cubic_sum_formula):
    return request.param(cubic_sum_formula)


def test_decode_accepts_integer_solution(cubic_problem):
    witness = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    assert decode_witness(cubic_problem, witness) == {"a": 0, "b": 1, "c": 1}


def test_decode_rejects_non_integer(cubic_problem):
    bad = {"a": Fraction(1, 2), "b": Fraction(1), "c": Fraction(1)}
    with pytest.raises(DecodeError) as info:
        decode_witness(cubic_problem, bad)
    assert info.value.term == cubic_problem.script.assertions[2]


def test_decode_rejects_body_violation(cubic_problem):
    bad = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
    with pytest.raises(DecodeError) as info:
        decode_witness(cubic_problem, bad)
    assert info.value.term == cubic_problem.script.assertions[-1]


def test_decode_rejects_missing_or_non_rational(cubic_problem):
    with pytest.raises(DecodeError, match="missing"):
        decode_witness(cubic_problem, {"a": Fraction(0), "b": Fraction(1)})
    with pytest.raises(DecodeError, match="rational"):
        decode_witness(
            cubic_problem, {"a": True, "b": Fraction(1), "c": Fraction(1)}
        )


def test_decode_negative_witness(cubic_problem):
    witness = {"a": Fraction(-2), "b": Fraction(0), "c": Fraction(-2)}
    assert decode_witness(cubic_problem, witness) == {"a": -2, "b": 0, "c": -2}


def test_encoded_division_census(cubic_sum_formula):
    """The division-by-zero spelling uses one division per floor application.

    Shift axiom: two.  Base axiom: one.  One fixpoint per variable: three.
    The body has none.  Six total, all with a constant zero divisor.
    """

    from nradiv import DivisorKind, classify_script

    problem = encode_via_div0(cubic_sum_formula)
    verdict = classify_script(problem.script)
    assert len(verdict.occurrences) == 6
    assert all(
        o.divisor_class.kind is DivisorKind.CONSTANT_ZERO for o in verdict.occurrences
    )
    assert sum(1 for o in verdict.occurrences if o.under_quantifier) == 3


@settings(max_examples=50, deadline=None)
@given(strategies.int_bodies)
def test_encodings_hold_exactly_at_the_integer_solutions(body):
    """The paper's reduction, on the printed and re-parsed script of each
    encoding.  With `x/0` read as floor, `decode_witness` returns an
    integer point of the box exactly when the body holds there, and
    rejects the point moved by 1/2 in any coordinate, since the
    fixpoints `(= (/ v 0) v)` admit only integers.  The first point in
    lexicographic order where the body holds is what
    `brute_force_int_sat` finds, and that witness decodes."""

    names = strategies.INT_POOL
    formula = IntFormula(names, body)
    box = [dict(zip(names, point)) for point in product((-1, 0, 1), repeat=len(names))]
    witness = next((p for p in box if eval_term(body, rationals(p))), None)
    assert brute_force_int_sat(formula, 1) == witness
    for encode in (encode_integer_formula, encode_via_div0):
        problem = EncodedProblem(parse_script(print_script(encode(formula).script)), formula)
        for point in box:
            values = rationals(point)
            if eval_term(body, values):
                assert decode_witness(problem, values) == point, (encode.__name__, point)
            else:
                with pytest.raises(DecodeError):
                    decode_witness(problem, values)
            for n in names:
                with pytest.raises(DecodeError):
                    decode_witness(problem, {**values, n: values[n] + Fraction(1, 2)})
        if witness is not None:
            assert decode_witness(problem, rationals(witness)) == witness
