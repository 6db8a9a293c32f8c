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
import sys
from fractions import Fraction

from .errors import NradivError
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
        limit = sys.get_int_max_str_digits()
        raise NradivError(f"value too long to print: more than {limit} digits") from None


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


def format_sort(sort: Sort) -> str:
    return sort.value


def _shared_nodes(term: Term) -> set[int]:
    """Ids of the non-leaf nodes below `term` that have more than one parent."""

    seen: set[int] = set()
    shared: set[int] = set()
    stack = [term]
    while stack:
        for c in children(stack.pop()):
            if type(c) is Var or type(c) is Const:
                continue
            if id(c) in seen:
                shared.add(id(c))
            else:
                seen.add(id(c))
                stack.append(c)
    return shared


def _format_leaf(term: Term, point: bool) -> str | None:
    """Text of a variable or literal; None for any other node.  With
    `point`, a Real literal is written with a decimal point."""

    t = type(term)
    if t is Var:
        return format_symbol(term.name)
    if t is Const:
        if term.sort is Sort.BOOL:
            return "true" if term.value else "false"
        return format_rational(term.value, point and term.sort is Sort.REAL)
    return None


def format_term(term: Term, numerals: Sort = Sort.REAL) -> str:
    """The term as SMT-LIB2 text, a shared node printed once per path.

    `numerals` is the sort a numeral reads as where the text is read
    (`terms.numeral_sort`): where it is Int, a Real literal with an
    integral value is written `1.0`, so that it reads back as Real.

    Text is emitted left to right from an explicit stack, so depth costs
    no recursion.  The text of a node with several parents is joined once
    and reused; other nodes keep no text of their own.
    """

    point = numerals is Sort.INT
    leaf = _format_leaf(term, point)
    if leaf is not None:
        return leaf
    shared = _shared_nodes(term)
    texts: dict[int, str] = {}  # id(shared node) -> its text
    out: list[str] = []
    # Text, nodes, (id, start) at the end of a shared node's text, and the
    # error of an unprintable leaf, raised where the leaf stands.
    stack: list = [term]
    while stack:
        item = stack.pop()
        t = type(item)
        if t is str:
            out.append(item)
            continue
        if t is tuple:
            key, start = item
            text = "".join(out[start:])
            del out[start:]
            out.append(text)
            texts[key] = text
            continue
        if id(item) in texts:
            out.append(texts[id(item)])
            continue
        if id(item) in shared:
            stack.append((id(item), len(out)))
        stack.append(")")
        if t is Apply:
            out.append(f"({format_symbol(item.op)} ")
            args = item.args
        elif t is Div:
            out.append("(/ ")
            args = (item.num, item.den)
        elif t is Ite:
            out.append("(ite ")
            args = (item.cond, item.then, item.orelse)
        elif t is Quantifier:
            binder = " ".join(f"({format_symbol(n)} {format_sort(s)})" for n, s in item.bound)
            out.append(f"({item.kind} ({binder}) ")
            args = (item.body,)
        else:  # a leaf's error: `_shared_nodes` has refused any other non-term
            raise item
        # Arguments go on the stack last first; a leaf goes as its text,
        # joined to the space before it, or as the error it raised.
        for i in range(len(args) - 1, -1, -1):
            a = args[i]
            try:
                leaf = _format_leaf(a, point)
            except (ValueError, NradivError) as exc:
                leaf, a = None, exc
            if leaf is None:
                stack.append(a)
                if i:
                    stack.append(" ")
            else:
                stack.append(" " + leaf if i else leaf)
    return "".join(out)


def _format_decl(decl: FunDecl) -> str:
    params = " ".join(format_sort(s) for s in decl.params)
    return f"(declare-fun {format_symbol(decl.name)} ({params}) {format_sort(decl.result)})"


def print_script(script: Script) -> str:
    lines: list[str] = []
    if script.logic is not None:
        lines.append(f"(set-logic {format_symbol(script.logic)})")
    for key, value in script.metadata:
        lines.append(f"(set-info :{key} {value})" if value else f"(set-info :{key})")
    for u in script.unsupported:
        lines.append(u.text)
    for d in script.decls:
        lines.append(_format_decl(d))
    numerals = numeral_sort(script.logic)
    for a in script.assertions:
        lines.append(f"(assert {format_term(a, numerals)})")
    if script.check_sat:
        lines.append("(check-sat)")
    if script.exit_cmd:
        lines.append("(exit)")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
