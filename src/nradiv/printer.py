"""Deterministic rendering of terms and scripts back to SMT-LIB2 text.

The output is canonical: one command per line, single spaces, a fixed
command order.  Printing then re-parsing yields a structurally equal
script, with one caveat: a rational constant whose denominator has a
prime factor other than 2 or 5 has no finite decimal form and is
rendered as `(/ p q)`, which reads back as a division node.  Parsed
input never contains such constants, so round-tripping parsed scripts
is exact; only hand-built terms can hit the caveat.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .errors import value_too_long
from .terms import (
    Apply,
    Const,
    Div,
    FunDecl,
    Ite,
    Quantifier,
    Script,
    Sort,
    Term,
    Var,
    children,
    numeral_sort,
)

# SMT-LIB 2.6 section 3.1: a simple symbol is a non-empty run of ASCII
# letters, digits and ~!@$%^&*_-+=<>.?/ that does not start with a digit.
# The parser's scanner builds its symbol and keyword patterns from these.
_SIMPLE_START = r"a-zA-Z~!@$%^&*_\-+=<>.?/"
SIMPLE_SYMBOL_CHARS = _SIMPLE_START + "0-9"
SIMPLE_SYMBOL = re.compile(f"[{_SIMPLE_START}][{SIMPLE_SYMBOL_CHARS}]*")


def is_simple_symbol(name: str) -> bool:
    return SIMPLE_SYMBOL.fullmatch(name) is not None


def format_symbol(name: str) -> str:
    if is_simple_symbol(name):
        return name
    if "|" in name or "\\" in name:
        raise ValueError(f"symbol cannot be quoted: {name!r}")
    return f"|{name}|"


def _decimal_exponent(q: int) -> int | None:
    """Smallest s with q | 10^s, or None if q has other prime factors."""

    twos = 0
    while q % 2 == 0:
        q //= 2
        twos += 1
    fives = 0
    while q % 5 == 0:
        q //= 5
        fives += 1
    return max(twos, fives) if q == 1 else None


def has_literal(value: Fraction, sort: Sort) -> bool:
    """Whether one literal of `sort`, under `-` when negative, spells
    `value`: an integer for Int, a finite decimal for Real."""

    q = value.denominator
    return q == 1 or sort is Sort.REAL and _decimal_exponent(q) is not None


def format_value(value: Fraction | int) -> str:
    """`str(value)`; NradivError when it has more digits than CPython converts."""

    try:
        return str(value)
    except ValueError:
        raise value_too_long() from None


def format_rational(value: Fraction, point: bool = False) -> str:
    """A rational as an SMT-LIB literal; with `point`, an integral value
    is written as a decimal, `1.0`, which reads as Real in every logic."""

    if value < 0:
        return f"(- {format_rational(-value, point)})"
    if value.denominator == 1:
        return format_value(value) + ".0" * point
    s = _decimal_exponent(value.denominator)
    if s is None:
        return f"(/ {format_value(value.numerator)} {format_value(value.denominator)})"
    digits = format_value(value.numerator * 10**s // value.denominator).rjust(s + 1, "0")
    return f"{digits[:-s]}.{digits[-s:]}"


def _shared_nodes(terms) -> set[int]:
    """Ids of the non-leaf nodes that have more than one parent below
    `terms`, each of which counts as a parent of its own."""

    seen: set[int] = set()
    shared: set[int] = set()
    stack: list[Term] = []
    kids = terms  # of the next node, the roots first
    while True:
        for c in kids:
            if type(c) is Var or type(c) is Const:
                continue
            if id(c) in seen:
                shared.add(id(c))
            else:
                seen.add(id(c))
                stack.append(c)
        if not stack:
            return shared
        kids = children(stack.pop())


def _format_leaf(term: Var | Const, point: bool) -> str:
    """Text of a variable or literal.  With `point`, a Real literal is
    written with a decimal point."""

    if type(term) is Var:
        return format_symbol(term.name)
    if term.sort is Sort.BOOL:
        return "true" if term.value else "false"
    return format_rational(term.value, point and term.sort is Sort.REAL)


def format_term(term: Term, numerals: Sort = Sort.REAL) -> str:
    """The term as SMT-LIB2 text, a shared node printed once per path.

    `numerals` is the sort a numeral reads as where the text is read
    (`terms.numeral_sort`): where it is Int, a Real literal with an
    integral value is written `1.0`, so that it reads back as Real.
    """

    return next(_format_terms((term,), numerals, [0, 0]))


def _format_terms(terms, numerals: Sort, tally: list[int]) -> Iterator[str]:
    """The text of each of `terms`, as `format_term` writes it.

    Text is emitted left to right from an explicit stack, so depth costs
    no recursion, and a piece that cannot be printed raises where it
    stands in the text.  Each distinct leaf and operator head is
    formatted once, at its first place.  The text of a node with several
    parents, within one term or across them, is joined once and reused,
    with the nodes and divisions it holds; other nodes keep no text of
    their own.  Before each text is yielded, `tally` holds the nodes and
    the divisions emitted so far, a shared node counting once per path.
    """

    point = numerals is Sort.INT
    shared = _shared_nodes(terms)
    texts: dict[int, str] = {}  # id(leaf) -> its text
    done: dict[int, tuple[str, int, int]] = {}  # id(shared node) -> its text, nodes, divisions
    heads: dict[str, str] = {}  # operator -> "(op "
    nodes = divisions = 0
    for term in terms:
        out: list[str] = []
        # text, terms, and (id, start, nodes, divisions) at the end of a shared node's text
        stack: list = [term]
        while stack:
            item = stack.pop()
            t = type(item)
            if t is str:
                out.append(item)
                continue
            if t is Var or t is Const:
                nodes += 1
                text = texts.get(id(item))
                if text is None:
                    text = texts[id(item)] = _format_leaf(item, point)
                out.append(text)
                continue
            if t is tuple:
                key, start, n, d = item
                text = "".join(out[start:])
                del out[start:]
                out.append(text)
                done[key] = (text, nodes - n, divisions - d)
                continue
            reuse = done.get(id(item))
            if reuse is not None:
                text, n, d = reuse
                out.append(text)
                nodes += n
                divisions += d
                continue
            if id(item) in shared:
                stack.append((id(item), len(out), nodes, divisions))
            nodes += 1
            stack.append(")")
            if t is Apply:
                head = heads.get(item.op)
                if head is None:
                    head = heads[item.op] = f"({format_symbol(item.op)} "
                out.append(head)
                args = item.args
            elif t is Div:
                divisions += 1
                out.append("(/ ")
                args = (item.num, item.den)
            elif t is Ite:
                out.append("(ite ")
                args = (item.cond, item.then, item.orelse)
            else:
                binder = " ".join(f"({format_symbol(n)} {s.value})" for n, s in item.bound)
                out.append(f"({item.kind} ({binder}) ")
                args = (item.body,)
            for i in range(len(args) - 1, 0, -1):  # last first
                stack.append(args[i])
                stack.append(" ")
            if args:
                stack.append(args[0])
        tally[0] = nodes
        tally[1] = divisions
        yield "".join(out)


def _format_decl(decl: FunDecl) -> str:
    params = " ".join(s.value for s in decl.params)
    return f"(declare-fun {format_symbol(decl.name)} ({params}) {decl.result.value})"


def print_script(script: Script, counts: list[int] | None = None) -> str:
    """The script as SMT-LIB2 text.  When `counts` is a list, the tree
    nodes and the division occurrences of the assertions, a shared node
    counting once per path, are appended to it: what was printed."""

    lines: list[str] = []
    tally = [0, 0]
    if script.logic is not None:
        lines.append(f"(set-logic {format_symbol(script.logic)})")
    for key, value in script.metadata:
        lines.append(f"(set-info :{key} {value})" if value else f"(set-info :{key})")
    for u in script.unsupported:
        lines.append(u.text)
    for d in script.decls:
        lines.append(_format_decl(d))
    for text in _format_terms(script.assertions, numeral_sort(script.logic), tally):
        lines.append(f"(assert {text})")
    if counts is not None:
        counts.extend(tally)
    if script.check_sat:
        lines.append("(check-sat)")
    if script.exit_cmd:
        lines.append("(exit)")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
