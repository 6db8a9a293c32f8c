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
from nradiv.parser import _read
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
def test_simple_symbol_is_what_the_scanner_reads_as_one_symbol(name):
    try:
        read = [(sx.kind, sx.text) for sx in _read(name)]
    except ParseError:
        read = None
    assert is_simple_symbol(name) == (read == [("symbol", name)])
