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


def format_rational(value: Fraction) -> str:
    if value < 0:
        return f"(- {format_rational(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    s = _decimal_exponent(value.denominator)
    if s is None:
        return f"(/ {value.numerator} {value.denominator})"
    digits = str(value.numerator * 10**s // value.denominator).rjust(s + 1, "0")
    return f"{digits[:-s]}.{digits[-s:]}"


def format_sort(sort: Sort) -> str:
    return sort.value


def format_term(term: Term) -> str:
    match term:
        case Const(value, _):
            if isinstance(value, bool):
                return "true" if value else "false"
            return format_rational(value)
        case Var(name, _):
            return format_symbol(name)
        case Div(num, den):
            return f"(/ {format_term(num)} {format_term(den)})"
        case Apply(op, args, _):
            parts = " ".join(format_term(a) for a in args)
            return f"({format_symbol(op)} {parts})"
        case Ite(cond, then, orelse):
            return f"(ite {format_term(cond)} {format_term(then)} {format_term(orelse)})"
        case Quantifier(kind, bound, body):
            binder = " ".join(f"({format_symbol(n)} {format_sort(s)})" for n, s in bound)
            return f"({kind} ({binder}) {format_term(body)})"
    raise TypeError(f"not a term: {term!r}")


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
    for a in script.assertions:
        lines.append(f"(assert {format_term(a)})")
    if script.check_sat:
        lines.append("(check-sat)")
    if script.exit_cmd:
        lines.append("(exit)")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
