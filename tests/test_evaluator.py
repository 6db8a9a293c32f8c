import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
import support
from nradiv import (
    FLOOR,
    IDENTITY,
    BudgetExceededError,
    DivInterpretation,
    EncodeError,
    EvalError,
    IntFormula,
    brute_force_int_sat,
    check_axiom_samples,
    constant_interpretation,
    default_sample_grid,
    eval_term,
    floor_oracle,
    parse_script,
)
from nradiv.evaluator import compile_int_body
from nradiv.passes import fold_term
from nradiv.terms import OPS, Apply, Sort, add, arity_error, const, eq, lt, mul, sub, var


def term_of(text: str, decls: str = "(declare-fun a () Real)(declare-fun b () Real)"):
    return parse_script(f"{decls}(assert (= a {text}))").assertions[0].args[1]


def test_exact_division():
    assert eval_term(term_of("(/ 3 2)"), {"a": Fraction(0)}) == Fraction(3, 2)
    assert eval_term(term_of("(/ 1 3)"), {"a": Fraction(0)}) == Fraction(1, 3)


def test_division_by_zero_consults_interpretation():
    t = term_of("(/ b 0)")
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(2)}, FLOOR) == 2
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(-1, 2)}, FLOOR) == -1
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(-1, 2)}, IDENTITY) == Fraction(-1, 2)
    five = constant_interpretation(5)
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(9, 7)}, five) == 5


def _raising(_x: Fraction) -> Fraction:
    raise AssertionError("division by zero was consulted")


BOOM = DivInterpretation("boom", _raising)


def test_untaken_ite_branch_is_not_evaluated():
    t = term_of("(ite (= b b) 1 (/ 1 0))")
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(3)}, BOOM) == 1


def test_nonzero_divisions_ignore_interpretation():
    t = term_of("(/ b 4)")
    assert eval_term(t, {"a": Fraction(0), "b": Fraction(2)}, BOOM) == Fraction(1, 2)


def test_implication_is_right_associative():
    decls = "(declare-fun p () Bool)"
    t = parse_script(f"{decls}(assert (=> p false true))").assertions[0]
    assert eval_term(t, {"p": True}) is True
    t2 = parse_script(f"{decls}(assert (=> p false))").assertions[0]
    assert eval_term(t2, {"p": True}) is False


def test_chained_comparisons_and_distinct():
    assert eval_term(term_of("(ite (< 1 2 3) 1 0)"), {"a": Fraction(0)}) == 1
    assert eval_term(term_of("(ite (< 1 3 2) 1 0)"), {"a": Fraction(0)}) == 0
    assert eval_term(term_of("(ite (distinct 1 2 3) 1 0)"), {"a": Fraction(0)}) == 1
    assert eval_term(term_of("(ite (distinct 1 2 1) 1 0)"), {"a": Fraction(0)}) == 0


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_term(term_of("(+ b 1)"), {"a": Fraction(0)})  # b unbound
    q = parse_script("(assert (forall ((x Real)) (= x x)))").assertions[0]
    with pytest.raises(EvalError):
        eval_term(q, {})
    f_call = parse_script(
        "(declare-fun f (Real) Real)(assert (= (f 1) 1))"
    ).assertions[0]
    with pytest.raises(EvalError):
        eval_term(f_call, {})


def test_declared_functions_need_a_table():
    f_call = parse_script(
        "(declare-fun f (Real) Real)(assert (= (f 2.5) 2))"
    ).assertions[0]
    assert eval_term(f_call, {}, funcs={"f": floor_oracle}) is True


@pytest.mark.parametrize(
    "x,expected",
    [
        (Fraction(5, 2), 2),
        (Fraction(1, 3), 0),
        (Fraction(-7, 3), -3),
        (Fraction(4), 4),
        (Fraction(-4), -4),
        (Fraction(0), 0),
        (Fraction(-1, 1000), -1),
    ],
)
def test_floor_oracle_and_forced_value(x, expected):
    assert floor_oracle(x) == expected
    assert support.forced_value(x) == expected


@given(st.fractions(min_value=-500, max_value=500, max_denominator=64))
def test_forced_value_matches_floor_everywhere(x):
    assert support.forced_value(x) == floor_oracle(x) == math.floor(x)


def test_default_sample_grid_is_deduped_and_sorted():
    grid = default_sample_grid()
    assert grid == sorted(set(grid))
    assert len(grid) == 425
    assert grid[0] == -70 and grid[-1] == 70
    assert Fraction(1, 7) in grid and Fraction(1, 6) not in grid


def test_floor_satisfies_axioms_on_grid():
    report = check_axiom_samples(FLOOR)
    assert report.ok and report.samples == 425


def test_constant_interpretation_violates_shift():
    report = check_axiom_samples(constant_interpretation(0))
    assert not report.ok
    shift = [v for v in report.violations if v.axiom == "shift"]
    assert any(v.sample == 1 for v in shift)
    # base holds for the constant 0, so every violation is a shift violation
    assert len(shift) == len(report.violations)


def test_identity_interpretation_violates_base():
    report = check_axiom_samples(IDENTITY)
    base = [v for v in report.violations if v.axiom == "base"]
    assert any(v.sample == Fraction(1, 2) for v in base)
    assert len(base) == len(report.violations)  # shift holds for x + 1


def int_formula(text: str) -> IntFormula:
    return IntFormula.from_script(parse_script(text))


TWO_X_IS_ONE = "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* 2 x) 1))"


def test_brute_force_unsat_in_box():
    assert brute_force_int_sat(int_formula(TWO_X_IS_ONE), 5) is None


def test_brute_force_finds_first_lexicographic_witness():
    square = int_formula(
        "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 4))"
    )
    assert brute_force_int_sat(square, 10) == {"x": -2}


def test_brute_force_cubic_sum_bound_two(cubic_sum_formula):
    assert brute_force_int_sat(cubic_sum_formula, 2) == {"a": -2, "b": 0, "c": -2}


def test_brute_force_no_variables():
    taut = IntFormula((), eq(const(1, Sort.INT), const(1, Sort.INT)))
    contradiction = IntFormula((), eq(const(0, Sort.INT), const(1, Sort.INT)))
    assert brute_force_int_sat(taut, 3) == {}
    assert brute_force_int_sat(contradiction, 3) is None


def test_brute_force_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_int_sat(int_formula(TWO_X_IS_ONE), 5, budget=4)


def test_brute_force_respects_bound():
    seven = int_formula(
        "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))"
    )
    assert brute_force_int_sat(seven, 6) is None
    assert brute_force_int_sat(seven, 7) == {"x": -7}


@given(strategies.bool_terms, st.randoms(use_true_random=False))
def test_interpretation_independent_when_divisors_are_nonzero(term, rng):
    from hypothesis import assume

    from nradiv import Div

    assignment = {name: support.random_rational(rng) for name in strategies.VAR_POOL}
    for t in support.subterms(term):
        if isinstance(t, Div):
            try:
                dv = eval_term(t.den, assignment, FLOOR)
            except EvalError:
                assume(False)
            assume(dv != 0)
    readings = {
        eval_term(term, assignment, d)
        for d in (FLOOR, IDENTITY, constant_interpretation(99))
    }
    assert len(readings) == 1


@given(strategies.numeric_terms, strategies.numeric_terms, st.randoms(use_true_random=False))
def test_arithmetic_homomorphism(a, b, rng):
    assignment = {name: support.random_rational(rng) for name in strategies.VAR_POOL}
    va = eval_term(a, assignment, FLOOR)
    vb = eval_term(b, assignment, FLOOR)
    from nradiv.terms import add, sub

    assert eval_term(add(a, b), assignment, FLOOR) == va + vb
    assert eval_term(sub(a, b), assignment, FLOOR) == va - vb
    assert eval_term(mul(a, b), assignment, FLOOR) == va * vb


# ---------------------------------------------------------------------------
# The compiled integer body against the interpreter.


@pytest.mark.parametrize("n_args", range(4))
@pytest.mark.parametrize("op", sorted(OPS))
def test_every_builtin_takes_what_arity_error_allows(op, n_args):
    """Built by hand, past the parser's and the constructors' checks."""

    m = OPS[op]
    arg = const(True) if m.args == "bool" else const(2, Sort.INT)
    node = Apply(op, (arg,) * n_args, Sort.INT if m.result == "num" else Sort.BOOL)
    why = arity_error(op, n_args)
    if why is None:
        value = eval_term(node, {})
        assert compile_int_body(IntFormula((), eq(node, const(value, Sort.INT))), 0)() == ()
        assert fold_term(node) == const(value, Sort.INT)
    else:
        with pytest.raises(EvalError, match="cannot take"):
            eval_term(node, {})
        with pytest.raises(EncodeError) as excinfo:
            IntFormula((), eq(node, node))
        assert str(excinfo.value) == why
        assert fold_term(node) is node


SMALL_BOX = range(-2, 3)


def assert_compiles_to_interpreter(formula):
    names = formula.variables
    search = compile_int_body(formula, 0)
    for point in product(SMALL_BOX, repeat=len(names)):
        want = eval_term(formula.body, {n: Fraction(v) for n, v in zip(names, point)})
        assert search(*point) == (() if want is True else None)


@given(strategies.int_bodies)
def test_compiled_body_agrees_with_interpreter(body):
    assert_compiles_to_interpreter(IntFormula(strategies.INT_POOL, body))


@settings(max_examples=200, deadline=None)
@given(strategies.rough_int_bodies())
def test_int_formula_guards_the_compiler(body):
    """`compile_int_body` checks nothing, so whatever `IntFormula` accepts
    must compile to what the interpreter computes."""

    try:
        formula = IntFormula(strategies.INT_POOL, body)
    except EncodeError:
        return
    assert_compiles_to_interpreter(formula)
    assert brute_force_int_sat(formula, 1) == reference_brute_force(formula, 1)


def reference_brute_force(formula, bound, budget=10_000_000):
    """The enumeration loop written over the interpreter."""

    names = formula.variables
    box = product(range(-bound, bound + 1), repeat=len(names))
    for steps, combo in enumerate(box, start=1):
        if budget is not None and steps > budget:
            raise BudgetExceededError(
                f"gave up after {budget} assignments (bound {bound}, {len(names)} variables)"
            )
        if eval_term(formula.body, {n: Fraction(v) for n, v in zip(names, combo)}) is True:
            return dict(zip(names, combo))
    return None


def outcome(search, *args):
    try:
        return "found", search(*args)
    except BudgetExceededError as exc:
        return "budget", str(exc)


@given(
    strategies.int_bodies,
    st.integers(0, 2),
    st.one_of(
        st.none(),
        st.integers(0, 130),
        st.sampled_from(("0", "box - 1", "box", "box + 1")),
    ),
)
def test_brute_force_matches_reference_loop(body, bound, budget):
    formula = IntFormula(strategies.INT_POOL, body)
    if isinstance(budget, str):
        box = (2 * bound + 1) ** len(strategies.INT_POOL)
        budget = {"0": 0, "box - 1": box - 1, "box": box, "box + 1": box + 1}[budget]
    assert outcome(brute_force_int_sat, formula, bound, budget) == outcome(
        reference_brute_force, formula, bound, budget
    )


@pytest.mark.parametrize("bound", [0, 1])
@pytest.mark.parametrize("n", [25, 100])
def test_brute_force_searches_any_number_of_variables(n, bound):
    """More variables than Python can nest loops for."""

    names = tuple(f"x{i}" for i in range(n))
    total = add(*[var(name, Sort.INT) for name in names])
    first_point = IntFormula(names, eq(total, const(-bound * n, Sort.INT)))
    assert brute_force_int_sat(first_point, bound) == dict.fromkeys(names, -bound)
    odd = IntFormula(names, eq(mul(const(2, Sort.INT), total), const(1, Sort.INT)))
    for budget in (0, 5 * bound):  # each less than the box
        got = outcome(brute_force_int_sat, odd, bound, budget)
        assert got[0] == "budget" and got == outcome(reference_brute_force, odd, bound, budget)


def test_brute_force_copies_no_range_of_a_wide_box():
    """A bound past `sys.maxsize` overflows nothing, and a budget cut
    copies no whole range: of 12 variables, `itertools.product` drives two."""

    names = tuple(f"x{i}" for i in range(12))
    total = add(*[var(name, Sort.INT) for name in names])
    odd = IntFormula(names, eq(mul(const(2, Sort.INT), total), const(1, Sort.INT)))
    for bound in (10**6, 10**30):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as excinfo:
                brute_force_int_sat(odd, bound, budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == f"gave up after 1000 assignments (bound {bound}, 12 variables)"
        assert peak < 2**22
    first_point = IntFormula(names, eq(total, const(-12 * 10**30, Sort.INT)))
    assert brute_force_int_sat(first_point, 10**30, budget=1) == dict.fromkeys(names, -(10**30))


def test_brute_force_over_variables_the_body_never_mentions():
    a, b = var("a", Sort.INT), var("b", Sort.INT)
    true = eq(const(1, Sort.INT), const(1, Sort.INT))
    false = eq(const(0, Sort.INT), const(1, Sort.INT))
    cases = [
        (("a",), true),
        (("a",), false),
        (("a", "b"), eq(mul(a, a), const(4, Sort.INT))),
        (("a", "b"), eq(mul(b, b), const(4, Sort.INT))),
        (("a", "b"), lt(b, const(-5, Sort.INT))),
    ]
    for names, body in cases:
        formula = IntFormula(names, body)
        for budget in (None, 0, 3, 40):
            assert outcome(brute_force_int_sat, formula, 3, budget) == outcome(
                reference_brute_force, formula, 3, budget
            )
    assert brute_force_int_sat(IntFormula(("a", "b"), cases[2][1]), 3) == {"a": -2, "b": -3}


def test_compiled_body_has_no_depth_limit():
    a = var("a", Sort.INT)
    t = a
    for _ in range(5000):
        t = add(t, const(1, Sort.INT))
    formula = IntFormula(("a",), eq(t, const(5003, Sort.INT)))
    search = compile_int_body(formula, 0)
    assert search(3) == () and search(2) is None
    assert brute_force_int_sat(formula, 3) == {"a": 3}
    assert brute_force_int_sat(formula, 2) is None


def test_compiled_body_handles_wide_applications():
    a = var("a", Sort.INT)
    wide = eq(sub(*[a] * 5000), mul(a, const(-4998, Sort.INT)))
    formula = IntFormula(("a",), wide)
    search = compile_int_body(formula, 0)
    for x in (-2, 0, 3):
        assert eval_term(wide, {"a": Fraction(x)}) is True and search(x) == ()
    assert brute_force_int_sat(formula, 2) == {"a": -2}


def test_compiled_body_shares_repeated_subterms():
    a = var("a", Sort.INT)
    t = a
    for _ in range(60):  # a tree of 2^60 nodes, a DAG of 61
        t = add(t, t)
    search = compile_int_body(IntFormula(("a",), eq(t, const(0, Sort.INT))), 0)
    assert search(0) == ()


def test_brute_force_symbol_names_never_reach_the_source():
    formula = int_formula(
        "(set-logic QF_NIA)(declare-fun |def| () Int)(declare-fun |a b| () Int)"
        "(declare-fun |__import__| () Int)(declare-fun v0 () Int)"
        "(assert (and (= (+ |def| |a b|) 3) (< |__import__| v0) (= (* v0 |def|) 2)))"
    )
    want = {"def": 1, "a b": 2, "__import__": -3, "v0": 2}
    assert reference_brute_force(formula, 3) == want
    assert brute_force_int_sat(formula, 3) == want


def test_a_divisor_is_checked_before_its_numerator_also_when_shared():
    from nradiv import Div

    true = const(True)
    bad = Div(var("missing"), true, Sort.REAL)
    with pytest.raises(EvalError, match="^divisor: expected a rational, got True$"):
        eval_term(bad, {})
    seen_first = Apply("=", (true, true), Sort.BOOL)
    both = Apply("and", (seen_first, Apply("=", (bad, const(0)), Sort.BOOL)), Sort.BOOL)
    with pytest.raises(EvalError, match="^divisor: expected a rational, got True$"):
        eval_term(both, {})


def test_shared_nodes_are_evaluated_once_and_ite_takes_one_branch():
    from nradiv.terms import ite, lt

    calls = []

    def f(v):
        calls.append(v)
        return v + 1

    x = var("x")
    fx = Apply("f", (x,), Sort.REAL)
    t = add(fx, fx)
    for _ in range(40):
        t = add(t, t)
    choice = ite(lt(x, const(0)), var("missing"), t)
    assert eval_term(add(choice, choice), {"x": Fraction(1)}, funcs={"f": f}) == 2**43
    assert calls == [Fraction(1)]
    with pytest.raises(EvalError, match="no value for 'missing'"):
        eval_term(choice, {"x": Fraction(-1)}, funcs={"f": f})
