from fractions import Fraction

import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strategies
from conftest import CORPUS_EXPECTED
from nradiv import (
    Const,
    Div,
    ParseError,
    Sort,
    division_axiom,
    format_rational,
    format_term,
    parse_script,
    print_script,
)
from nradiv.printer import is_simple_symbol

DIVISION_AXIOM_TEXT = (
    "(forall ((x Real) (y Real)) (=> (not (= y 0)) (= x (* (/ x y) y))))"
)


def test_division_axiom_prints_to_pinned_shape():
    assert format_term(division_axiom()) == DIVISION_AXIOM_TEXT


def test_parse_then_print_the_axiom_is_stable():
    text = f"(assert {DIVISION_AXIOM_TEXT})"
    assert format_term(parse_script(text).assertions[0]) == DIVISION_AXIOM_TEXT


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(0), "0"),
        (Fraction(7), "7"),
        (Fraction(-3), "(- 3)"),
        (Fraction(3, 2), "1.5"),
        (Fraction(1, 8), "0.125"),
        (Fraction(-5, 2), "(- 2.5)"),
        (Fraction(1, 10), "0.1"),
        (Fraction(1, 3), "(/ 1 3)"),
        (Fraction(-1, 3), "(- (/ 1 3))"),
        (Fraction(22, 7), "(/ 22 7)"),
    ],
)
def test_format_rational(value, expected):
    assert format_rational(value) == expected


@pytest.mark.parametrize(
    "text, assertion",
    [
        (
            "(set-logic QF_NIA)(declare-fun x (Real) Real)"
            "(assert (> (x 1.5) (x 0.0) (x (- 2.0))))",
            "(> (x 1.5) (x 0.0) (x (- 2.0)))",
        ),
        (  # numerals in the body are Real, from before the logic was set
            "(declare-fun x () Real)(define-fun g () Real (+ x 1))"
            "(set-logic QF_LIA)(assert (= g x))",
            "(= (+ x 1.0) x)",
        ),
        (  # under a Real logic an integral Real literal prints as a numeral
            "(set-logic QF_NRA)(declare-fun x () Real)(assert (> x 2.0))",
            "(> x 2)",
        ),
    ],
)
def test_an_integral_real_literal_reads_back_as_real(text, assertion):
    out = print_script(parse_script(text))
    assert out.splitlines()[-1] == f"(assert {assertion})"
    assert print_script(parse_script(out)) == out


def test_non_decimal_constant_reads_back_as_division():
    # the documented caveat: 1/3 has no finite decimal form
    text = f"(declare-fun x () Real)(assert (= x {format_rational(Fraction(1, 3))}))"
    rhs = parse_script(text).assertions[0].args[1]
    assert rhs == Div(
        Const(Fraction(1), Sort.REAL), Const(Fraction(3), Sort.REAL), Sort.REAL
    )


def test_print_parse_print_is_identity_on_corpus(corpus_dir):
    for name in CORPUS_EXPECTED:
        once = print_script(parse_script((corpus_dir / name).read_text()))
        assert print_script(parse_script(once)) == once, name


def test_parse_print_parse_equals_parse_on_corpus(corpus_dir):
    for name in CORPUS_EXPECTED:
        script = parse_script((corpus_dir / name).read_text())
        assert parse_script(print_script(script)) == script, name


def test_unsupported_commands_reprinted_verbatim():
    text = "(set-option :produce-models true)\n(set-logic QF_NRA)\n(check-sat)\n"
    printed = print_script(parse_script(text))
    assert "(set-option :produce-models true)" in printed.splitlines()


def test_empty_script_prints_empty():
    assert print_script(parse_script("")) == ""


def test_quoted_symbol_round_trip():
    text = "(declare-fun |my var| () Real)(assert (= |my var| 0))"
    script = parse_script(text)
    assert "|my var|" in print_script(script)
    assert parse_script(print_script(script)) == script


def test_bool_and_quantifier_rendering():
    script = parse_script(
        "(declare-fun p () Bool)"
        "(assert (ite p (forall ((v Real)) (<= v v)) (= p true)))"
    )
    line = print_script(script).splitlines()[-1]
    assert line == "(assert (ite p (forall ((v Real)) (<= v v)) (= p true)))"


@given(strategies.scripts)
def test_round_trip_random_scripts(script):
    assert parse_script(print_script(script)) == script


@given(strategies.rationals)
def test_decimal_friendly_rationals_round_trip(value):
    text = f"(declare-fun x () Real)(assert (= x {format_rational(value)}))"
    assert parse_script(text).assertions[0].args[1] == Const(value, Sort.REAL)


@given(st.text(st.sampled_from(string.printable + "\u00b2\u0663\u00e9"), max_size=8))
@example("x")
@example("~!@$%^&*_-+=<>.?/09")
@example("0x")
@example("|x|")
@example("x\n")
@example("x\u00b2")
@example("()")
def test_simple_symbol_is_what_the_scanner_reads_as_one_symbol(name):
    try:
        read = parse_script(f"(set-logic {name})").logic  # the one symbol it reads, by its name
    except ParseError:
        read = None
    assert is_simple_symbol(name) == (read == name)


def test_unprintable_symbols_are_reported_in_text_order():
    from nradiv.terms import Apply, add, var

    x = var("x")
    shared = add(x, var("p|q"))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'f\|g'$"):
        format_term(Apply("f|g", (shared, var("r|s"), shared), Sort.REAL))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'h\|i'$"):
        format_term(Apply("g", (Apply("h|i", (x,), Sort.REAL), var("j|k")), Sort.REAL))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'f\|g'$"):
        format_term(Apply("f|g", (x, add(x, x)), Sort.REAL))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'a\|b'$"):
        format_term(add(x, var("a|b"), var("c|d")))
    # Each distinct leaf is formatted once, at its first place in the text.
    bad = var("e|f")
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'e\|f'$"):
        format_term(add(x, bad, x, var("g|h"), bad))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'g\|h'$"):
        format_term(add(x, var("g|h"), x, bad, bad))


def test_a_value_too_long_to_print_is_reported_in_text_order():
    from nradiv import NradivError
    from nradiv.terms import add, var

    x, bad, long = var("x"), var("a|b"), Const(Fraction(10**5000), Sort.REAL)
    with pytest.raises(NradivError, match=r"^value too long to print: more than 4300 digits$"):
        format_term(add(x, long, bad))
    with pytest.raises(ValueError, match=r"^symbol cannot be quoted: 'a\|b'$"):
        format_term(add(x, bad, long))
    with pytest.raises(NradivError, match=r"^value too long to print: more than 4300 digits$"):
        format_rational(Fraction(1, 3**10000))


def test_shared_subterms_print_once_per_occurrence():
    from nradiv.terms import add, div, var

    t = div(var("x"), var("y"))
    for _ in range(3):
        t = add(t, t)
    inner = "(+ (+ (/ x y) (/ x y)) (+ (/ x y) (/ x y)))"
    assert format_term(t) == f"(+ {inner} {inner})"
