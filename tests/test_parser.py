from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from nradiv import (
    Apply,
    Const,
    Div,
    FunDecl,
    ParseError,
    Script,
    Sort,
    SortError,
    UndeclaredSymbolError,
    Var,
    free_vars,
    parse_script,
    print_script,
)
from nradiv.printer import format_rational, format_symbol
from nradiv.terms import subterms


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


def test_arity_is_checked_before_the_arguments_are_built():
    with pytest.raises(ParseError, match="^'not' needs exactly 1 argument"):
        parse_script(SORT_HEADER + "(assert (not (+ p p) q))")


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
# Scanner contract: error messages and locations, and atom locations after
# constructs that span lines or skip text.


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
    text = prefix + "(declare-fun x () Real)\r\n  (assert\n\t(< x 1.5))\r\n"
    script = parse_script(text)
    (decl,) = [d for d in script.decls if d.name == "x"]
    assert tuple(decl.loc) == loc_of(text, text.index("x () Real"))
    (lt,) = script.assertions
    assert tuple(lt.loc) == loc_of(text, text.index("< x"))
    assert tuple(lt.args[0].loc) == loc_of(text, text.index("x 1.5"))
    assert tuple(lt.args[1].loc) == loc_of(text, text.index("1.5"))


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


_SEPARATORS = st.lists(st.sampled_from([" ", "\n", "\r\n", "\t ", " ; note (\n", "\n\n  "]), min_size=1)


@given(strategies.scripts, _SEPARATORS)
def test_node_locations_point_at_their_source(script, separators):
    words = print_script(script).split(" ")
    text = words[0] + "".join(separators[i % len(separators)] + w for i, w in enumerate(words[1:]))
    lines = text.split("\n")
    for assertion in parse_script(text).assertions:
        for node in subterms(assertion):
            if isinstance(node, Var):
                expected = format_symbol(node.name)
            elif isinstance(node, Apply):
                expected = format_symbol(node.op)
            elif isinstance(node, Const):
                value = node.value
                expected = str(value).lower() if isinstance(value, bool) else format_rational(abs(value))
            else:
                continue
            line, col = node.loc
            assert lines[line - 1][col - 1 :].startswith(expected)


def test_deeply_nested_metadata_and_unsupported_commands_are_kept_verbatim():
    value = "(a " * 3000 + "b" + ")" * 3000
    text = f"(set-info :note {value})\n(push {value})\n(check-sat)\n"
    script = parse_script(text)
    assert script.metadata == (("note", value),)
    assert [u.text for u in script.unsupported] == [f"(push {value})"]
    assert print_script(script) == text
