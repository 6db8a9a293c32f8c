from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import REPO
from nradiv import (
    Apply,
    Const,
    Div,
    FunDecl,
    ParseError,
    Script,
    ScriptError,
    Sort,
    SortError,
    UndeclaredSymbolError,
    Var,
    emit_nonzero_vcs,
    format_term,
    free_vars,
    parse_script,
    print_script,
)
from nradiv.terms import Loc
from support import subterms


def first_assertion(text: str):
    return parse_script(text).assertions[0]


def test_fixpoint_script_structure():
    script = parse_script(
        "(set-logic NRA)\n(declare-fun a () Real)\n(assert (= (/ a 0) a))\n(check-sat)\n"
    )
    a = Var("a", Sort.REAL)
    zero = Const(Fraction(0), Sort.REAL)
    assert script.logic == "NRA"
    assert script.decls == (FunDecl("a", (), Sort.REAL),)
    assert script.assertions == (Apply("=", (Div(a, zero, Sort.REAL), a), Sort.BOOL),)
    assert script.check_sat and not script.exit_cmd


def test_declare_const_is_nullary_fun():
    script = parse_script("(declare-const v Real)(assert (= v 0))")
    assert script.decls == (FunDecl("v", (), Sort.REAL),)


def test_numerals_follow_logic():
    real = first_assertion("(set-logic QF_NRA)(declare-fun x () Real)(assert (= x 3))")
    assert real.args[1] == Const(Fraction(3), Sort.REAL)
    integer = first_assertion("(set-logic QF_NIA)(declare-fun n () Int)(assert (= n 3))")
    assert integer.args[1] == Const(Fraction(3), Sort.INT)
    # mixed-theory names pick Real when both letters appear
    mixed = first_assertion("(set-logic QF_UFNRA)(declare-fun x () Real)(assert (= x 1))")
    assert mixed.args[1].sort is Sort.REAL


def test_decimal_is_exact():
    t = first_assertion("(declare-fun x () Real)(assert (= x 2.5))")
    assert t.args[1] == Const(Fraction(5, 2), Sort.REAL)


def test_unary_minus_literal_folds():
    t = first_assertion("(declare-fun x () Real)(assert (= x (- 4)))")
    assert t.args[1] == Const(Fraction(-4), Sort.REAL)


def test_unary_minus_variable_stays_application():
    t = first_assertion("(declare-fun x () Real)(assert (= x (- x)))")
    assert t.args[1] == Apply("-", (Var("x", Sort.REAL),), Sort.REAL)


def test_nary_division_associates_left():
    t = first_assertion("(declare-fun a () Real)(assert (= (/ a 2 3) a))")
    lhs = t.args[0]
    assert isinstance(lhs, Div) and isinstance(lhs.num, Div)
    assert lhs.den == Const(Fraction(3), Sort.REAL)
    assert lhs.num.den == Const(Fraction(2), Sort.REAL)


def test_implication_is_one_nary_node():
    t = first_assertion(
        "(declare-fun p () Bool)(declare-fun q () Bool)(declare-fun r () Bool)"
        "(assert (=> p q r))"
    )
    assert isinstance(t, Apply) and t.op == "=>" and len(t.args) == 3


def test_let_bindings_are_parallel():
    t = first_assertion(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (let ((a x) (x y)) (= a x)))"
    )
    assert t == Apply("=", (Var("x", Sort.REAL), Var("y", Sort.REAL)), Sort.BOOL)


def test_define_fun_inlines_at_each_call():
    script = parse_script(
        "(declare-fun x () Real)"
        "(define-fun sq ((v Real)) Real (* v v))"
        "(assert (= (sq x) (sq 2)))"
    )
    x = Var("x", Sort.REAL)
    two = Const(Fraction(2), Sort.REAL)
    expected = Apply(
        "=",
        (Apply("*", (x, x), Sort.REAL), Apply("*", (two, two), Sort.REAL)),
        Sort.BOOL,
    )
    assert script.assertions[0] == expected
    # macros leave no declaration behind
    assert [d.name for d in script.decls] == ["x"]


def test_define_fun_shadowed_by_binder():
    script = parse_script(
        "(define-fun c () Real 1)"
        "(assert (forall ((c Real)) (= c c)))"
    )
    body = script.assertions[0].body
    assert body.args[0] == Var("c", Sort.REAL)


def test_binders_named_true_or_false_shadow_the_literals():
    lets = "(assert (let ((true false)) true))"
    assert first_assertion(lets) == Const(False, Sort.BOOL)
    quantified = "(assert (forall ((false Bool)) (not false)))"
    t = first_assertion(quantified)
    assert t.body.args[0] == Var("false", Sort.BOOL)
    for text in (lets, quantified):
        printed = print_script(parse_script(text))
        assert print_script(parse_script(printed)) == printed
    assert print_script(parse_script(quantified)) == quantified + "\n"
    with pytest.raises(ParseError, match="cannot redefine builtin symbol 'true'"):
        parse_script("(declare-fun true () Bool)")


def test_quantifier_binder_shadows_declaration():
    script = parse_script(
        "(declare-fun x () Real)(assert (forall ((x Real)) (>= (* x x) 0)))"
    )
    assert free_vars(script.assertions[0]) == frozenset()


def test_a_binding_ends_with_its_body():
    x, y = Var("x", Sort.REAL), Var("y", Sort.REAL)
    t = first_assertion(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(assert (let ((a x)) (= (let ((a y) (x y)) (+ a x)) (+ a x))))"
    )
    assert t.args == (Apply("+", (y, y), Sort.REAL), Apply("+", (x, x), Sort.REAL))
    t = first_assertion("(declare-fun x () Real)(assert (= (forall ((x Bool)) x) (> x 0)))")
    assert t.args[1].args[0] == x


@pytest.mark.parametrize(
    "text",
    [
        "(assert (let ((a 1)) true))(assert (= a 1))",
        "(define-fun f ((v Real)) Real v)(assert (= v 1))",
        "(assert (forall ((v Real)) true))(assert (= v 1))",
    ],
)
def test_a_binding_does_not_outlive_its_command(text):
    with pytest.raises(UndeclaredSymbolError, match="'v'|'a'"):
        parse_script(text)


def test_declared_function_application():
    script = parse_script(
        "(set-logic QF_UFNRA)(declare-fun f (Real Real) Real)(declare-fun x () Real)"
        "(assert (= (f x 1) x))"
    )
    call = script.assertions[0].args[0]
    assert call == Apply(
        "f", (Var("x", Sort.REAL), Const(Fraction(1), Sort.REAL)), Sort.REAL
    )


def test_quoted_symbols():
    script = parse_script("(declare-fun |my var| () Real)(assert (= |my var| 0))")
    assert script.assertions[0].args[0] == Var("my var", Sort.REAL)


def test_unsupported_commands_are_recorded():
    script = parse_script(
        "(set-option :produce-models true)(set-logic QF_NRA)(push 1)"
        "(declare-fun x () Real)(assert (< x 1))(pop 1)(check-sat)"
    )
    assert [u.text for u in script.unsupported] == [
        "(set-option :produce-models true)",
        "(push 1)",
        "(pop 1)",
    ]
    assert len(script.assertions) == 1


def test_unsupported_sort_unregisters_symbol():
    script = parse_script("(declare-fun s () String)")
    assert script.decls == ()
    assert script.unsupported[0].text == "(declare-fun s () String)"
    with pytest.raises(UndeclaredSymbolError):
        parse_script("(declare-fun s () String)(assert (= s s))")


def test_set_info_metadata_preserved():
    script = parse_script('(set-info :status sat)(set-info :source "a b")')
    assert script.metadata == (("status", "sat"), ("source", '"a b"'))


def test_exit_stops_processing():
    script = parse_script("(set-logic QF_NRA)(exit)(check-sat)(bogus-command)")
    assert script.exit_cmd and not script.check_sat
    assert script.unsupported == ()
    assert parse_script("(exit)(assert (+ p 1))").exit_cmd  # read for its brackets, not built


def test_multiple_check_sat_collapse():
    script = parse_script("(check-sat)(check-sat)")
    assert script.check_sat


@pytest.mark.parametrize(
    "text",
    [
        "(assert (= x",  # unbalanced
        "(assert (= 1 1)))",  # stray paren
        "(assert)",  # arity
        "(assert (= 1 1) (= 2 2))",
        "()",
        "(123 4)",
        "(declare-fun x () Real)(declare-fun x () Real)",  # duplicate
        "(define-fun f ((a Real) (a Real)) Real a)",  # duplicate params
        "(assert (forall ((x Real) (x Real)) (= x x)))",
        "(declare-fun x () Real)(assert (let ((a x) (a x)) (= a a)))",
        "(set-logic A)(set-logic B)",
        "(declare-fun + () Real)",  # builtin name
        "(assert (not true false))",  # 'not' arity
        "(assert (ite true 1))",
        '(assert "text")',
        "(declare-fun x () Real)(assert (= (div x 2) 1))",  # known-unsupported op
        "(assert (exists () true))",  # empty binder
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_script(text)


def test_backslash_in_quoted_symbol_is_rejected():
    with pytest.raises(ParseError, match="not allowed in a quoted symbol") as excinfo:
        parse_script("(declare-fun x () Real)\n(declare-fun |a\\b| () Real)")
    assert tuple(excinfo.value.loc) == (2, 16)


def nested_script(depth: int, bottom: str = "(/ x 2)") -> str:
    """`bottom` under `depth` nested `(+ 1 ...)`, as the printer lays it out."""

    return (
        "(set-logic QF_NRA)\n(declare-fun x () Real)\n(assert (= x "
        + "(+ 1 " * depth + bottom + ")" * depth + "))\n"
    )


def test_depth_10000_parses_and_prints_back():
    text = nested_script(10_000)
    assert print_script(parse_script(text)) == text


def test_10000_nested_lets_each_using_the_one_before():
    depth = 10_000
    text = (
        "(declare-fun x () Real)(assert (= x (let ((a0 (+ x x))) "
        + "".join(f"(let ((a{i} (+ a{i - 1} x))) " for i in range(1, depth))
        + f"(/ a{depth - 1} 2)" + ")" * depth + "))"
    )
    t = first_assertion(text).args[1].num
    for _ in range(depth - 1):
        assert t.args[1] == Var("x", Sort.REAL)
        t = t.args[0]
    assert t == Apply("+", (Var("x", Sort.REAL),) * 2, Sort.REAL)


def test_error_10000_deep_is_located():
    with pytest.raises(SortError) as excinfo:
        parse_script(nested_script(10_000, "true"))
    col = len("(assert (= x ") + len("(+ 1 ") * 10_000 + 1
    assert str(excinfo.value) == f"'+' expects numeric arguments, got Bool (line 3, column {col})"


SORT_HEADER = "(declare-fun x () Real)(declare-fun n () Int)(declare-fun p () Bool)\n"


@pytest.mark.parametrize(
    "assertion, error, message, col",
    [
        ("(assert (ite p x))", ParseError, "'ite' needs exactly 3 arguments", 10),
        ("(assert (= (ite x x x) x))", SortError, "'ite' condition must be Bool", 17),
        ("(assert (= (ite p x p) x))", SortError, "'ite' branches disagree: Real vs Bool", 21),
        ("(assert (= (/ x) x))", ParseError, "'/' needs at least 2 arguments", 13),
        ("(assert (= (/ x p) x))", SortError, "'/' expects numeric arguments, got Bool", 17),
        ("(assert (= (/ x n) x))", SortError, "'/' mixes Real and Int arguments", 15),
        ("(assert (= (/ n n) n))", SortError, "'/' on Int arguments outside an integer logic", 13),
        ("(assert (= (+ x) x))", ParseError, "'+' needs at least 2 arguments", 13),
        ("(assert (= (* x 2 p) x))", SortError, "'*' expects numeric arguments, got Bool", 19),
        ("(assert (= (-) x))", ParseError, "'-' needs at least 1 arguments", 13),
        ("(assert (= (- p) x))", SortError, "'-' expects numeric arguments, got Bool", 15),
        ("(assert (= (- n x) n))", SortError, "'-' mixes Real and Int arguments", 15),
        ("(assert (< x))", ParseError, "'<' needs at least 2 arguments", 10),
        ("(assert (<= x p))", SortError, "'<=' expects numeric arguments, got Bool", 15),
        ("(assert (> n x))", SortError, "'>' mixes Real and Int arguments", 12),
        ("(assert (>= p x))", SortError, "'>=' expects numeric arguments, got Bool", 13),
        ("(assert (= x))", ParseError, "'=' needs at least 2 arguments", 10),
        ("(assert (= x p))", SortError, "'=' mixes sorts ['Bool', 'Real']", 10),
        ("(assert (distinct n n x))", SortError, "'distinct' mixes sorts ['Int', 'Real']", 10),
        ("(assert (not p p))", ParseError, "'not' needs exactly 1 argument", 10),
        ("(assert (not))", ParseError, "'not' needs exactly 1 argument", 10),
        ("(assert (not x))", SortError, "'not' expects Bool arguments, got Real", 14),
        ("(assert (and p))", ParseError, "'and' needs at least 2 arguments", 10),
        ("(assert (or p x))", SortError, "'or' expects Bool arguments, got Real", 15),
        ("(assert (=> p n))", SortError, "'=>' expects Bool arguments, got Int", 15),
    ],
)
def test_builtin_sort_and_arity_errors(assertion, error, message, col):
    with pytest.raises(error) as excinfo:
        parse_script(SORT_HEADER + assertion)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{message} (line 2, column {col})"


CALL_HEADER = (
    "(declare-fun f (Real Real) Real)(declare-const c Real)(declare-fun p () Bool)"
    "(define-fun g ((u Real) (v Real)) Real (+ u v))\n"
)


@pytest.mark.parametrize(
    "assertion, error, message, col",
    [
        ("(assert (= (f 1) 0))", SortError, "'f' expects 2 arguments, got 1", 13),
        ("(assert (= (g 1) 0))", SortError, "'g' expects 2 arguments, got 1", 13),
        ("(assert (= (f p 1) 0))", SortError, "argument 1 of 'f' must be Real, got Bool", 15),
        ("(assert (= (g 1 p) 0))", SortError, "argument 'v' of 'g' must be Real, got Bool", 17),
        ("(assert (= (c 1) 0))", ParseError, "'c' is a constant, not a function", 13),
        ("(define-const k Real 2.0)(assert (= (k) 0))", ParseError,
         "'k' is a constant, not a function", 38),
        ("(define-fun k () Real 2.0)(assert (= (k) 0))", ParseError,
         "'k' is a constant, not a function", 39),
        ("(define-const k Real 2.0)(define-fun h ((u Real)) Real (+ u (k)))", ParseError,
         "'k' is a constant, not a function", 62),
        ("(assert (= f 0))", SortError, "'f' expects 2 arguments", 12),
        ("(assert (= g 0))", SortError, "'g' expects 2 arguments", 12),
        ("(assert (= (let ((f 1)) (f c)) 0))", UndeclaredSymbolError,
         "undeclared function symbol 'f'", 26),
        ("(assert (= (let ((g 1)) (g c c)) 0))", UndeclaredSymbolError,
         "undeclared function symbol 'g'", 26),
    ],
)
def test_call_errors(assertion, error, message, col):
    with pytest.raises(error) as excinfo:
        parse_script(CALL_HEADER + assertion)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{message} (line 2, column {col})"


def test_shadowing_keeps_declaration_order():
    script = parse_script(
        "(declare-fun a () Real)(declare-fun b () Real)(declare-fun c () Real)"
        "(assert (let ((a 1)) (> a 0)))"
        "(assert (forall ((b Real)) (> b 0)))"
        "(define-fun m ((c Real)) Real c)"
        "(declare-fun d () Real)"
        "(assert (= (m a) (+ b c d)))"
    )
    assert script.decls == tuple(FunDecl(name, (), Sort.REAL) for name in "abcd")


def test_arity_is_checked_before_the_arguments_are_built():
    with pytest.raises(ParseError, match="^'not' needs exactly 1 argument"):
        parse_script(SORT_HEADER + "(assert (not (+ p p) q))")


def _deep(bottom: str) -> str:
    return "(+ 1 " * 10_000 + bottom + ")" * 10_000


@pytest.mark.parametrize(
    "text, error, message, where",
    [
        # an enclosing list is checked before the terms inside it
        ("(define-fun f ((a Real)) Real a)(declare-fun p () Bool)(assert (= (f (+ p 1) 2) 0))",
         SortError, "'f' expects 1 arguments, got 2", (1, 68)),
        ("(declare-fun p () Bool)(declare-fun g (Real) Real)(assert (= (g (+ p 1) 1) 0))",
         SortError, "'g' expects 1 arguments, got 2", (1, 63)),
        ("(declare-fun p () Bool)(assert (let ((a (+ p 1))) a p))", ParseError, "malformed let", (1, 33)),
        ("(declare-fun p () Bool)(assert (forall ((x Real)) (+ p 1) p))", ParseError, "malformed forall", (1, 33)),
        ("(declare-fun p () Bool)(assert (ite (+ p 1) 1))", ParseError, "'ite' needs exactly 3 arguments", (1, 33)),
        ("(declare-fun p () Bool)(assert (/ (+ p 1)))", ParseError, "'/' needs at least 2 arguments", (1, 33)),
        # a bracket error later in the file beats an earlier sort error
        ("(declare-fun p () Bool)(assert (+ p 1))\n(assert (and",
         ParseError, "unbalanced '(': input ended inside a list", (2, 9)),
        ("(declare-fun p () Bool)(assert (+ p 1))\n(check-sat))", ParseError, "unmatched ')'", (2, 12)),
        # text after (exit) is scanned but not built
        ("(exit)(assert (", ParseError, "unbalanced '(': input ended inside a list", (1, 15)),
        # the same, 10,000 deep: the error path stays linear
        ("(declare-fun p () Bool)\n(assert (not (ite " + _deep("(+ p 1)") + " 1)))",
         ParseError, "'ite' needs exactly 3 arguments", (2, 15)),
        ("(declare-fun p () Bool)\n(assert (> " + _deep("(+ p 1)") + " 0))\n(assert (and",
         ParseError, "unbalanced '(': input ended inside a list", (3, 9)),
    ],
    ids=["call", "declared-call", "let", "forall", "ite", "slash", "unbalanced", "unmatched",
         "after-exit", "deep-ite", "deep-unbalanced"],
)
def test_which_error_comes_first(text, error, message, where):
    """The error a script reports is the first in check order: an
    enclosing list's number of items before anything inside it, and a
    bracket error anywhere before any sort or scope error."""

    with pytest.raises(error) as excinfo:
        parse_script(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{message} (line {where[0]}, column {where[1]})"


def test_unterminated_tokens():
    with pytest.raises(ParseError):
        parse_script('(set-info :note "oops)')
    with pytest.raises(ParseError):
        parse_script("(assert (= |x 1))")


@pytest.mark.parametrize(
    "text",
    [
        "(assert (+ true 1))",
        "(assert 1)",
        "(declare-fun x () Real)(assert (and (= x x) x))",
        "(declare-fun x () Real)(declare-fun n () Int)(assert (= x n))",
        "(declare-fun x () Real)(assert (ite (= x x) x true))",
        "(define-fun one () Real true)",
        "(declare-fun f (Real) Real)(assert (= (f true) 1))",
        "(declare-fun f (Real) Real)(assert (= (f 1 2) 1))",
        "(declare-fun f (Real) Real)(assert (= f 1))",  # bare non-nullary symbol
        "(declare-fun n () Int)(assert (= (/ n n) n))",  # Int '/' outside Int logic
    ],
)
def test_sort_errors(text):
    with pytest.raises(SortError):
        parse_script(text)


def test_sort_error_location_points_into_span():
    with pytest.raises(SortError) as excinfo:
        parse_script("(assert (+ true 1))")
    loc = excinfo.value.loc
    assert loc.line == 1 and 9 <= loc.col <= 19


def test_undeclared_symbol_error():
    with pytest.raises(UndeclaredSymbolError):
        parse_script("(assert (= q 0))")
    with pytest.raises(UndeclaredSymbolError):
        parse_script("(assert (g 1))")


def test_int_division_allowed_in_integer_logic():
    script = parse_script(
        "(set-logic QF_NIA)(declare-fun n () Int)(assert (= (/ n 2) 3))"
    )
    d = script.assertions[0].args[0]
    assert isinstance(d, Div) and d.sort is Sort.INT


def test_empty_input_is_empty_script():
    assert parse_script("") == Script()


def test_comments_and_whitespace_ignored():
    script = parse_script("; header\n(set-logic QF_NRA) ; trailing\n\t(check-sat)\n")
    assert script.logic == "QF_NRA" and script.check_sat


def test_locations_are_ignored_by_equality():
    a = parse_script("(declare-fun x () Real)(assert (< x 1))")
    b = parse_script("(declare-fun x () Real)\n\n(assert\n  (< x 1))")
    assert a == b
    assert hash(a.assertions[0]) == hash(b.assertions[0])


# ---------------------------------------------------------------------------
# Scanner contract: error messages and locations, and division locations
# after constructs that span lines or skip text.


@pytest.mark.parametrize(
    "text, message, where",
    [
        ('(set-info :note\n  "oops)', "unterminated string literal", (2, 3)),
        ('(set-info :a "x"")\n(check-sat)', "unterminated string literal", (1, 14)),
        ("(assert\n (= |x 1))", "unterminated quoted symbol", (2, 5)),
        ("(assert (= |x| 1))\n|a\nb\\c|", "'\\' is not allowed in a quoted symbol", (3, 2)),
        ("(set-info : x)", "malformed keyword", (1, 11)),
        ("(set-info :(x))", "malformed keyword", (1, 11)),
        ("(declare-fun x () Real)\n(assert (= x 1.))", "malformed decimal literal", (2, 14)),
        ("(assert (< 12.x 1))", "malformed decimal literal", (1, 12)),
        ("(assert #t)", "unexpected character '#'", (1, 9)),
        ("(assert\r\n\t{})", "unexpected character '{'", (2, 2)),
        ("(check-sat)\n (check-sat))", "unmatched ')'", (2, 13)),
        ("(assert (and\n  (= 1 1)", "unbalanced '(': input ended inside a list", (1, 9)),
        ("(assert (and (= 1 1)", "unbalanced '(': input ended inside a list", (1, 9)),
        # every lexical error in the file is reported before any bracket error
        (") #", "unexpected character '#'", (1, 3)),
        ('(check-sat))\n"oops', "unterminated string literal", (2, 1)),
        ("(assert (= 1 1)\n:", "malformed keyword", (2, 1)),
    ],
)
def test_scanner_error_message_and_location(text, message, where):
    with pytest.raises(ParseError) as excinfo:
        parse_script(text)
    assert str(excinfo.value) == f"{message} (line {where[0]}, column {where[1]})"


def loc_of(text: str, index: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, index) + 1
    return (text.count("\n", 0, index) + 1, index - line_start + 1)


@pytest.mark.parametrize(
    "prefix",
    [
        "(declare-fun |multi\nline\n name| () Real)\n",
        '(set-info :source "one ""two""\nthree ""\n"" four")\n',
        "; a comment (with a paren\n  ;; and another\n",
        "(set-logic QF_NRA)\r\n\r\n",
    ],
)
def test_atom_locations_after_multiline_constructs(prefix):
    text = prefix + "(declare-fun x () Real)\r\n  (assert\n\t(< x (/ 1.5 x)))\r\n"
    (lt,) = parse_script(text).assertions
    assert tuple(lt.args[1].loc) == loc_of(text, text.index("/ 1.5"))
    bad = text.replace("(< x", "(< q")
    with pytest.raises(UndeclaredSymbolError) as excinfo:
        parse_script(bad)
    assert tuple(excinfo.value.loc) == loc_of(bad, bad.index("q (/"))
    assert str(excinfo.value) == "undeclared symbol 'q' (line {}, column {})".format(*excinfo.value.loc)


def test_division_on_line_20001_of_a_crlf_file():
    text = "(declare-fun x () Real)\r\n" + "; filler\r\n" * 19_999 + "(assert (> x\t(/ 1 x)))\r\n"
    (gt,) = parse_script(text).assertions
    assert tuple(gt.args[1].loc) == (20_001, len("(assert (> x\t(") + 1)
    with pytest.raises(ParseError) as excinfo:
        parse_script(text + "(assert #)")
    assert str(excinfo.value) == "unexpected character '#' (line 20002, column 9)"


def test_escaped_quotes_in_strings_survive():
    script = parse_script('(set-info :source "one ""two""\nthree")')
    assert script.metadata == (("source", '"one ""two""\nthree"'),)


@pytest.mark.parametrize("digit", ["²", "٣", "１"])
def test_non_ascii_digits_are_unexpected_characters(digit):
    text = f"(declare-fun x () Real)\n(assert (= x {digit}))"
    with pytest.raises(ParseError) as excinfo:
        parse_script(text)
    assert str(excinfo.value) == f"unexpected character {digit!r} (line 2, column 14)"


@pytest.mark.parametrize(
    "number, message",
    [("1²", "unexpected character '²' (line 1, column 15)"), ("1.٣", "malformed decimal literal (line 1, column 14)")],
)
def test_non_ascii_digit_does_not_extend_a_number(number, message):
    with pytest.raises(ParseError) as excinfo:
        parse_script(f"(assert (= x {number}))")
    assert str(excinfo.value) == message


def test_quoted_symbols_spelled_as_numbers_are_not_numbers():
    text = (
        "(declare-fun |12| () Real)(declare-fun |1.5| () Real)\n"
        "(assert (= (+ |12| 12) (* |1.5| 1.5)))"
    )
    (eq,) = parse_script(text).assertions
    twelve, half = Var("12", Sort.REAL), Var("1.5", Sort.REAL)
    assert eq.args[0] == Apply("+", (twelve, Const(Fraction(12), Sort.REAL)), Sort.REAL)
    assert eq.args[1] == Apply("*", (half, Const(Fraction(3, 2), Sort.REAL)), Sort.REAL)
    with pytest.raises(ParseError, match=r"^expected a function name \(line 1, column 14\)$"):
        parse_script("(declare-fun 12 () Real)")


def test_a_quoted_slash_is_a_division():
    (gt,) = parse_script("(declare-fun x () Real)\n(assert (> (|/| x 2) 0))").assertions
    div = gt.args[0]
    assert div == Div(Var("x", Sort.REAL), Const(Fraction(2), Sort.REAL), Sort.REAL)
    assert tuple(div.loc) == (2, 13)


def test_a_division_is_located_at_its_slash_after_a_comment_and_newline(tmp_path, capsys):
    from nradiv.cli import main

    text = "(declare-fun x () Real)\n(assert (> ( ; (a comment)\n   / x 2) 0))\n"
    (gt,) = parse_script(text).assertions
    assert tuple(gt.args[0].loc) == (3, 4)
    path = tmp_path / "gap.smt2"
    path.write_text(text)
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "  line 3 col 4: constant-nonzero (value 2)"


def test_parentheses_inside_comments_strings_and_quoted_symbols_are_text():
    text = (
        '; (((\n(set-info :note "a ( b "")"" c")\n'
        "(declare-fun |f (| () Real)\n(assert (> |f (| 0)) ; )\n"
    )
    script = parse_script(text)
    assert script.metadata == (("note", '"a ( b "")"" c"'),)
    assert script.assertions == (Apply(">", (Var("f (", Sort.REAL), Const(Fraction(0), Sort.REAL)), Sort.BOOL),)


_READER_ALPHABET = '()|":;\\ \n\t.0123456789abx+-/*=<>_!#\u00e9\u0663'
_CORPUS_TEXTS = [p.read_text() for p in sorted((REPO / "corpus").glob("*.smt2"))]


@st.composite
def _reader_texts(draw) -> str:
    """Text from an SMT-LIB alphabet, or a corpus script with a few
    short spans replaced by such text."""

    pieces = st.text(st.sampled_from(_READER_ALPHABET), max_size=6)
    if draw(st.booleans()):
        return "".join(draw(st.lists(pieces, max_size=8)))
    text = draw(st.sampled_from(_CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(pieces) + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(_reader_texts())
def test_every_error_is_located_and_an_undeclared_symbol_at_its_text(text):
    """Every error that leaves `parse_script` has a line and column, and an
    undeclared symbol's points at where the text spells that symbol."""

    try:
        parse_script(text)
    except ScriptError as exc:
        assert type(exc.loc) is Loc and exc.loc.line >= 1 and exc.loc.col >= 1
        if type(exc) is UndeclaredSymbolError:
            name = str(exc).split("'")[1]
            line_start = sum(len(line) + 1 for line in text.split("\n")[: exc.loc.line - 1])
            at = text[line_start + exc.loc.col - 1 :]
            assert at.startswith(name) or at.startswith(f"|{name}|")


_SEPARATORS = st.lists(st.sampled_from([" ", "\n", "\r\n", "\t ", " ; note (\n", "\n\n  "]), min_size=1)


@given(strategies.scripts, _SEPARATORS)
def test_node_locations_point_at_their_source(script, separators):
    """Each division is located at its own `/`: the printed text spells
    every division, and nothing else, as `(/`, in pre-order."""

    words = print_script(script).split(" ")
    text = words[0] + "".join(separators[i % len(separators)] + w for i, w in enumerate(words[1:]))
    slashes = [i + 1 for i in range(len(text)) if text.startswith("(/", i)]
    divisions = [n for a in parse_script(text).assertions for n in subterms(a) if type(n) is Div]
    assert [tuple(d.loc) for d in divisions] == [loc_of(text, i) for i in slashes]


def test_deeply_nested_metadata_and_unsupported_commands_are_kept_verbatim():
    value = "(a " * 3000 + "b" + ")" * 3000
    text = f"(set-info :note {value})\n(push {value})\n(check-sat)\n"
    script = parse_script(text)
    assert script.metadata == (("note", value),)
    assert [u.text for u in script.unsupported] == [f"(push {value})"]
    assert print_script(script) == text


# ---------------------------------------------------------------------------
# A binder never captures a name of a term built outside it: `let` and
# `define-fun` expansion put such terms below binders.


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(assert (let ((a y)) (exists ((y Real)) (> a y))))", "(exists ((y0 Real)) (> y y0))"),
        (
            "(define-fun f ((a Real)) Bool (exists ((y Real)) (> a y)))(assert (f y))",
            "(exists ((y0 Real)) (> y y0))",
        ),
        (
            "(define-fun h ((a Real)) Real (+ a y))(assert (exists ((y Real)) (distinct (h 0) y)))",
            "(exists ((y0 Real)) (distinct (+ 0 y) y0))",
        ),
        (  # the new name avoids every name of the quantifier, bound ones too
            "(declare-fun y0 () Real)"
            "(assert (let ((a (+ y y0))) (exists ((y Real) (y1 Real)) (forall ((y2 Real)) (> a y y1 y2)))))",
            "(exists ((y3 Real) (y1 Real)) (forall ((y2 Real)) (> (+ y y0) y3 y1 y2)))",
        ),
        (  # a parameter the body does not use puts nothing below the binder
            "(define-fun f ((a Real) (b Real)) Bool (exists ((y Real)) (> b y)))(assert (f y 1))",
            "(exists ((y Real)) (> 1 y))",
        ),
        (  # nothing outside is captured
            "(assert (let ((a 1)) (exists ((y Real)) (> a y))))",
            "(exists ((y Real)) (> 1 y))",
        ),
    ],
)
def test_binders_do_not_capture(text, expected):
    out = print_script(parse_script("(declare-fun y () Real)" + text))
    assert out.splitlines()[-1] == f"(assert {expected})"
    assert print_script(parse_script(out)) == out


@pytest.mark.parametrize(
    "text, expected",
    [
        (  # `x` in the body of `g` is the global, whatever `h` calls its parameter
            "(define-fun g ((p Real)) Real (+ p x))"
            "(define-fun h ((x Real)) Real (g 1))(assert (= (h 5) 6))",
            "(= (+ 1 x) 6)",
        ),
        (  # so is the `x` that a defined constant stands for
            "(define-fun c () Real x)(define-fun h ((x Real)) Real (- c x))(assert (= (h 0) 0))",
            "(= (- x 0) 0)",
        ),
        (  # and the `y` of a constant used as a divisor
            "(define-fun d () Real y)(define-fun r ((y Real)) Real (/ 1 d))(assert (> (r 2) 0))",
            "(> (/ 1 y) 0)",
        ),
    ],
)
def test_a_parameter_does_not_capture_an_outer_name(text, expected):
    out = print_script(parse_script("(declare-fun x () Real)(declare-fun y () Real)" + text))
    assert out.splitlines()[-1] == f"(assert {expected})"
    assert print_script(parse_script(out)) == out


def test_a_define_fun_body_keeps_the_logic_of_its_definition():
    script = parse_script(
        "(define-fun f ((p Real)) Real (+ p 1))(set-logic QF_LIA)"
        "(declare-fun x () Real)(assert (> (f x) 0.5))"
    )
    out = print_script(script)
    assert out.splitlines()[-1] == "(assert (> (+ x 1.0) 0.5))"  # the Real 1 reads back as Real
    assert print_script(parse_script(out)) == out


def test_a_captured_division_keeps_its_free_divisor():
    script = parse_script("(declare-fun y () Real)(assert (let ((a (/ 1 y))) (exists ((y Real)) (> a y))))")
    assert [format_term(vc) for vc in emit_nonzero_vcs(script)] == ["(forall ((y0 Real)) (not (= y 0)))"]


def leaves_of(script: Script) -> list:
    return [t for a in script.assertions for t in subterms(a) if type(t) in (Var, Const)]


def test_a_declared_constant_is_one_var_wherever_it_occurs():
    script = parse_script(
        "(declare-fun x () Real)(declare-fun y () Real)"
        "(define-fun f ((a Real)) Real (+ a x))(define-const c Real (* x y))"
        "(assert (> (f y) x c))(assert (forall ((q Real)) (= (f q) (* x q y))))"
    )
    for name, occurrences in (("x", 5), ("y", 3)):
        found = [t for t in leaves_of(script) if t == Var(name, Sort.REAL)]
        assert len(found) == occurrences and all(t is found[0] for t in found)


def test_a_literal_is_one_const_per_text_and_sort():
    script = parse_script(
        "(declare-fun x () Real)(define-fun f ((a Real)) Real (* 2 a 2.5))"
        "(assert (> (+ x 2 2.5) (f 2) (f x) 2.50))"
    )
    by_key: dict = {}
    for t in leaves_of(script):
        if type(t) is Const:
            by_key.setdefault((t.value, t.sort), []).append(t)
    twos, halves = by_key[Fraction(2), Sort.REAL], by_key[Fraction(5, 2), Sort.REAL]
    assert len(twos) == 4 and all(t is twos[0] for t in twos)
    assert len(halves) == 4 and len({id(t) for t in halves}) == 2  # 2.5 and 2.50 are two texts


def test_a_negated_literal_is_one_const_per_value_and_sort():
    script = parse_script("(declare-fun x () Real)(assert (> (- 1) x (- 1)))")
    lhs, _, rhs = script.assertions[0].args
    assert type(lhs) is Const and lhs.value == -1
    assert lhs is rhs


def test_a_numeral_under_a_define_fun_of_another_logic_has_its_own_const():
    script = parse_script(
        "(define-fun f ((p Real)) Real (+ p 1))(set-logic QF_LIA)"
        "(declare-fun x () Real)(declare-fun n () Int)(assert (and (> (f x) (f 0.5)) (> n 1)))"
    )
    ones = [t for t in leaves_of(script) if type(t) is Const and t.value == 1]
    assert [t.sort for t in ones] == [Sort.REAL, Sort.REAL, Sort.INT]
    assert ones[0] is ones[1] and ones[1] is not ones[2]


def test_a_binder_that_rebinds_a_global_name_keeps_its_own_var():
    text = "(declare-fun x () Real)(assert (let ((y x)) (forall ((x Real)) (> y x))))"
    script = parse_script(text)
    outer, bound = script.assertions[0].body.args
    assert outer == Var("x", Sort.REAL) and bound == Var("x0", Sort.REAL)
    assert print_script(script) == "(declare-fun x () Real)\n(assert (forall ((x0 Real)) (> x x0)))\n"
