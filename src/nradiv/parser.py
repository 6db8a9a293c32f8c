"""SMT-LIB2 reader: one-pass scanner and s-expression reader, sort-checking builder.

The reader matches one compiled pattern per token and builds s-expressions
on an explicit stack, tracking line and column as it goes.  Numerals are
ASCII digits only (SMT-LIB 2.6 section 3.1); other digits are rejected.

Supported commands: set-logic, set-info, declare-fun, declare-const,
define-fun, assert, check-sat, exit.  Anything else is preserved
verbatim as an "unsupported" record and re-emitted on printing; an
unsupported construct inside an assertion is an error.

`let` bindings are expanded during parsing and `define-fun` bodies are
inlined at each application, so the resulting AST contains neither.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, SortError, UndeclaredSymbolError
from .printer import SIMPLE_SYMBOL, SIMPLE_SYMBOL_CHARS, format_symbol
from .terms import (
    BUILTIN_OPS,
    NUMERIC_SORTS,
    Apply,
    Const,
    Div,
    FunDecl,
    Ite,
    Loc,
    NO_LOC,
    Quantifier,
    Script,
    Sort,
    Term,
    Unsupported,
    Var,
    neg_literal,
    substitute,
)

_RESERVED = frozenset(
    {"true", "false", "ite", "let", "forall", "exists", "as", "par", "_", "!"}
) | BUILTIN_OPS | {"/"}

# Theory symbols we recognize as real SMT-LIB but do not model.
_KNOWN_UNSUPPORTED_OPS = frozenset(
    {"div", "mod", "abs", "to_real", "to_int", "is_int", "^", "!", "_", "root-obj", "select", "store"}
)


class SAtom(NamedTuple):
    kind: str  # "symbol" | "keyword" | "numeral" | "decimal" | "string"
    text: str
    loc: Loc


class SList(NamedTuple):
    items: tuple
    loc: Loc


# One token per match; the name of the group that matched is its kind.
# The lookaheads keep `12.x` and `"a""` from reading as two tokens: a
# decimal point must be followed by a digit, and `""` inside a string is an
# escaped quote, never its end.  Where nothing matches, `_scan_error` says why.
_TOKEN = re.compile(
    r"(?P<blank>(?:[ \t\r\n]+|;[^\n]*)+)"
    r"|(?P<open>\()"
    r"|(?P<close>\))"
    rf"|(?P<symbol>{SIMPLE_SYMBOL.pattern})"
    r"|(?P<decimal>[0-9]+\.[0-9]+)"
    r"|(?P<numeral>[0-9]+)(?![.0-9])"
    r"|\|(?P<quoted>[^|\\]*)\|"
    rf"|:(?P<keyword>[{SIMPLE_SYMBOL_CHARS}]+)"
    r'|"(?P<string>[^"]*(?:""[^"]*)*)"(?!")'
)


def _loc_at(text: str, pos: int) -> Loc:
    return Loc(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _scan_error(text: str, pos: int) -> ParseError:
    """The error for a position at which no token starts."""

    c = text[pos]
    if c == '"':
        message = "unterminated string literal"
    elif c == "|":
        end = text.find("|", pos + 1)
        if end < 0:
            message = "unterminated quoted symbol"
        else:  # SMT-LIB 2.6 section 3.1 forbids it
            message = "'\\' is not allowed in a quoted symbol"
            pos = text.find("\\", pos + 1, end)
    elif c == ":":
        message = "malformed keyword"
    elif c in "0123456789":
        message = "malformed decimal literal"
    else:
        message = f"unexpected character {c!r}"
    return ParseError(message, _loc_at(text, pos))


def _first_scan_error(text: str, pos: int) -> ParseError | None:
    """The first lexical error at or after `pos`, if any."""

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            return _scan_error(text, pos)
        pos = m.end()
    return None


def _read(text: str) -> list[SAtom | SList]:
    """Scan and read `text` into top-level s-expressions in one pass.

    A lexical error anywhere in the text is reported before an unbalanced
    bracket, as if the whole text had been tokenized first.
    """

    forms: list[SAtom | SList] = []
    items = forms
    stack: list[tuple[list, Loc]] = []  # (enclosing items, loc of the open list)
    line, line_start = 1, 0
    pos, size = 0, len(text)
    match = _TOKEN.match
    while pos < size:
        m = match(text, pos)
        if m is None:
            raise _scan_error(text, pos)
        kind = m.lastgroup
        end = m.end()
        if kind == "blank":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
        elif kind == "open":
            stack.append((items, Loc(line, pos - line_start + 1)))
            items = []
        elif kind == "close":
            if not stack:
                raise _first_scan_error(text, end) or ParseError(
                    "unmatched ')'", Loc(line, pos - line_start + 1)
                )
            outer, loc = stack.pop()
            outer.append(SList(tuple(items), loc))
            items = outer
        elif kind == "quoted" or kind == "string":  # may span lines
            atom = m.group(kind)
            loc = Loc(line, pos - line_start + 1)
            if kind == "quoted":
                items.append(SAtom("symbol", atom, loc))
            else:
                items.append(SAtom("string", atom.replace('""', '"'), loc))
            newlines = atom.count("\n")
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
        else:
            items.append(SAtom(kind, m.group(kind), Loc(line, pos - line_start + 1)))
        pos = end
    if stack:
        raise ParseError("unbalanced '(': input ended inside a list", stack[-1][1])
    return forms


def render_sexpr(sx: SAtom | SList) -> str:
    """Canonical one-line rendering, used for unsupported commands."""

    match sx:
        case SAtom("symbol", text, _):
            return format_symbol(text)
        case SAtom("string", text, _):
            escaped = text.replace('"', '""')
            return f'"{escaped}"'
        case SAtom("keyword", text, _):
            return f":{text}"
        case SAtom(_, text, _):
            return text
        case SList(items, _):
            return "(" + " ".join(render_sexpr(x) for x in items) + ")"
    raise TypeError(f"not an s-expression: {sx!r}")


class _UnsupportedSort(Exception):
    pass


def _parse_sort(sx) -> Sort:
    if isinstance(sx, SAtom) and sx.kind == "symbol":
        try:
            return Sort(sx.text)
        except ValueError:
            raise _UnsupportedSort()
    raise _UnsupportedSort()


def _numeral_sort(logic: str | None) -> Sort:
    """Numerals are Int in integer logics, Real otherwise."""

    if logic and "RA" in logic:
        return Sort.REAL
    if logic and "IA" in logic:
        return Sort.INT
    return Sort.REAL


class _ScriptBuilder:
    def __init__(self) -> None:
        self.logic: str | None = None
        self.metadata: list[tuple[str, str]] = []
        self.decls: dict[str, FunDecl] = {}
        self.macros: dict[str, tuple[tuple[tuple[str, Sort], ...], Term]] = {}
        self.assertions: list[Term] = []
        self.unsupported: list[Unsupported] = []
        self.check_sat = False
        self.exit_cmd = False
        self.numbers: dict[str, Fraction] = {}  # literal text -> value

    # -- commands ----------------------------------------------------------

    def run(self, forms: list) -> Script:
        for form in forms:
            if not isinstance(form, SList):
                raise ParseError("expected a command", form.loc)
            if not form.items or not (
                isinstance(form.items[0], SAtom) and form.items[0].kind == "symbol"
            ):
                raise ParseError("command must start with a symbol", form.loc)
            head = form.items[0].text
            args = form.items[1:]
            handler = getattr(self, "_cmd_" + head.replace("-", "_"), None)
            if handler is None:
                self.unsupported.append(Unsupported(render_sexpr(form), form.loc))
                continue
            handler(form, args)
            if self.exit_cmd:
                break
        return Script(
            logic=self.logic,
            metadata=tuple(self.metadata),
            decls=tuple(self.decls.values()),
            assertions=tuple(self.assertions),
            unsupported=tuple(self.unsupported),
            check_sat=self.check_sat,
            exit_cmd=self.exit_cmd,
        )

    def _symbol(self, sx, what: str) -> SAtom:
        if not (isinstance(sx, SAtom) and sx.kind == "symbol"):
            loc = sx.loc if isinstance(sx, (SAtom, SList)) else NO_LOC
            raise ParseError(f"expected {what}", loc)
        return sx

    def _register(self, name: SAtom) -> None:
        if name.text in _RESERVED:
            raise ParseError(f"cannot redefine builtin symbol '{name.text}'", name.loc)
        if name.text in self.decls or name.text in self.macros:
            raise ParseError(f"symbol '{name.text}' is already declared", name.loc)

    def _cmd_set_logic(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("set-logic takes one symbol", form.loc)
        name = self._symbol(args[0], "a logic name")
        if self.logic is not None:
            raise ParseError("logic is already set", form.loc)
        self.logic = name.text

    def _cmd_set_info(self, form: SList, args) -> None:
        if not args or not (isinstance(args[0], SAtom) and args[0].kind == "keyword"):
            raise ParseError("set-info needs a keyword", form.loc)
        if len(args) > 2:
            raise ParseError("malformed set-info", form.loc)
        value = render_sexpr(args[1]) if len(args) == 2 else ""
        self.metadata.append((args[0].text, value))

    def _cmd_declare_fun(self, form: SList, args) -> None:
        if len(args) != 3 or not isinstance(args[1], SList):
            raise ParseError("malformed declare-fun", form.loc)
        name = self._symbol(args[0], "a function name")
        self._register(name)
        try:
            params = tuple(_parse_sort(p) for p in args[1].items)
            result = _parse_sort(args[2])
        except _UnsupportedSort:
            self.unsupported.append(Unsupported(render_sexpr(form), form.loc))
            return
        self.decls[name.text] = FunDecl(name.text, params, result, name.loc)

    def _cmd_declare_const(self, form: SList, args) -> None:
        if len(args) != 2:
            raise ParseError("malformed declare-const", form.loc)
        name = self._symbol(args[0], "a constant name")
        self._register(name)
        try:
            result = _parse_sort(args[1])
        except _UnsupportedSort:
            self.unsupported.append(Unsupported(render_sexpr(form), form.loc))
            return
        self.decls[name.text] = FunDecl(name.text, (), result, name.loc)

    def _cmd_define_fun(self, form: SList, args) -> None:
        if len(args) != 4 or not isinstance(args[1], SList):
            raise ParseError("malformed define-fun", form.loc)
        name = self._symbol(args[0], "a function name")
        self._register(name)
        params: list[tuple[str, Sort]] = []
        try:
            for p in args[1].items:
                if not (isinstance(p, SList) and len(p.items) == 2):
                    raise ParseError("malformed parameter list", args[1].loc)
                pname = self._symbol(p.items[0], "a parameter name")
                if any(pname.text == seen for seen, _ in params):
                    raise ParseError(f"duplicate parameter '{pname.text}'", pname.loc)
                params.append((pname.text, _parse_sort(p.items[1])))
            result = _parse_sort(args[2])
        except _UnsupportedSort:
            self.unsupported.append(Unsupported(render_sexpr(form), form.loc))
            return
        scope = {pname: Var(pname, psort) for pname, psort in params}
        body = self._term(args[3], [scope])
        if body.sort is not result:
            raise SortError(
                f"define-fun body has sort {body.sort}, declared {result}", args[3].loc
            )
        self.macros[name.text] = (tuple(params), body)

    def _cmd_assert(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("assert takes one term", form.loc)
        term = self._term(args[0], [])
        if term.sort is not Sort.BOOL:
            raise SortError(f"assertion must be Bool, got {term.sort}", args[0].loc)
        self.assertions.append(term)

    def _cmd_check_sat(self, form: SList, args) -> None:
        if args:
            raise ParseError("check-sat takes no arguments", form.loc)
        self.check_sat = True

    def _cmd_exit(self, form: SList, args) -> None:
        if args:
            raise ParseError("exit takes no arguments", form.loc)
        self.exit_cmd = True

    # -- terms -------------------------------------------------------------

    def _lookup(self, name: str, scopes: list[dict[str, Term]]) -> Term | None:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def _term(self, sx, scopes: list[dict[str, Term]]) -> Term:
        if isinstance(sx, SAtom):
            return self._atom_term(sx, scopes)
        if not isinstance(sx, SList):
            raise ParseError("expected a term", NO_LOC)
        if not sx.items:
            raise ParseError("empty application", sx.loc)
        head = sx.items[0]
        if isinstance(head, SList):
            raise ParseError("unsupported construct in term position", head.loc)
        if head.kind != "symbol":
            raise ParseError(f"cannot apply {head.kind} '{head.text}'", head.loc)
        return self._application(head, sx.items[1:], scopes)

    def _number(self, text: str) -> Fraction:
        value = self.numbers.get(text)
        if value is None:
            value = self.numbers[text] = Fraction(text)
        return value

    def _atom_term(self, sx: SAtom, scopes) -> Term:
        if sx.kind == "numeral":
            return Const(self._number(sx.text), _numeral_sort(self.logic), sx.loc)
        if sx.kind == "decimal":
            return Const(self._number(sx.text), Sort.REAL, sx.loc)
        if sx.kind != "symbol":
            raise ParseError(f"unexpected {sx.kind} in term position", sx.loc)
        name = sx.text
        if name == "true":
            return Const(True, Sort.BOOL, sx.loc)
        if name == "false":
            return Const(False, Sort.BOOL, sx.loc)
        bound = self._lookup(name, scopes)
        if bound is not None:
            return bound
        if name in self.macros:
            params, body = self.macros[name]
            if params:
                raise SortError(f"'{name}' expects {len(params)} arguments", sx.loc)
            return body
        if name in self.decls:
            decl = self.decls[name]
            if decl.params:
                raise SortError(f"'{name}' expects {len(decl.params)} arguments", sx.loc)
            return Var(name, decl.result, sx.loc)
        raise UndeclaredSymbolError(f"undeclared symbol '{name}'", sx.loc)

    def _built_args(self, items, scopes) -> tuple[Term, ...]:
        return tuple([self._term(x, scopes) for x in items])

    def _require_numeric(self, op: str, args: tuple[Term, ...], items) -> Sort:
        s0 = args[0].sort
        if (s0 is Sort.REAL or s0 is Sort.INT) and all(a.sort is s0 for a in args):
            return s0
        for a, sx in zip(args, items):
            if a.sort not in NUMERIC_SORTS:
                raise SortError(f"'{op}' expects numeric arguments, got {a.sort}", sx.loc)
        raise SortError(f"'{op}' mixes Real and Int arguments", items[0].loc)

    def _require_bool(self, op: str, args: tuple[Term, ...], items) -> None:
        for a, sx in zip(args, items):
            if a.sort is not Sort.BOOL:
                raise SortError(f"'{op}' expects Bool arguments, got {a.sort}", sx.loc)

    def _arity(self, op: str, items, loc: Loc, least: int) -> None:
        if len(items) < least:
            raise ParseError(f"'{op}' needs at least {least} arguments", loc)

    def _application(self, head: SAtom, items, scopes) -> Term:
        op = head.text
        loc = head.loc

        if op == "let":
            return self._let(head, items, scopes)
        if op in ("forall", "exists"):
            return self._quantifier(head, items, scopes)
        if op == "ite":
            if len(items) != 3:
                raise ParseError("'ite' needs exactly 3 arguments", loc)
            cond, then, orelse = self._built_args(items, scopes)
            if cond.sort is not Sort.BOOL:
                raise SortError("'ite' condition must be Bool", items[0].loc)
            if then.sort is not orelse.sort:
                raise SortError(
                    f"'ite' branches disagree: {then.sort} vs {orelse.sort}", items[2].loc
                )
            return Ite(cond, then, orelse, loc)

        if op == "/":
            self._arity(op, items, loc, 2)
            args = self._built_args(items, scopes)
            sort = self._require_numeric(op, args, items)
            if sort is Sort.INT and _numeral_sort(self.logic) is not Sort.INT:
                raise SortError("'/' on Int arguments outside an integer logic", loc)
            term = args[0]
            for arg in args[1:]:  # n-ary division associates to the left
                term = Div(term, arg, sort, loc)
            return term

        if op in ("+", "*"):
            self._arity(op, items, loc, 2)
            args = self._built_args(items, scopes)
            return Apply(op, args, self._require_numeric(op, args, items), loc)
        if op == "-":
            self._arity(op, items, loc, 1)
            args = self._built_args(items, scopes)
            sort = self._require_numeric(op, args, items)
            if len(args) == 1 and isinstance(args[0], Const):
                return neg_literal(args[0])
            return Apply(op, args, sort, loc)
        if op in ("<", "<=", ">", ">="):
            self._arity(op, items, loc, 2)
            args = self._built_args(items, scopes)
            self._require_numeric(op, args, items)
            return Apply(op, args, Sort.BOOL, loc)
        if op in ("=", "distinct"):
            self._arity(op, items, loc, 2)
            args = self._built_args(items, scopes)
            sorts = {a.sort for a in args}
            if len(sorts) != 1:
                raise SortError(f"'{op}' mixes sorts {sorted(s.value for s in sorts)}", loc)
            return Apply(op, args, Sort.BOOL, loc)
        if op == "not":
            if len(items) != 1:
                raise ParseError("'not' needs exactly 1 argument", loc)
            args = self._built_args(items, scopes)
            self._require_bool(op, args, items)
            return Apply(op, args, Sort.BOOL, loc)
        if op in ("and", "or", "=>"):
            self._arity(op, items, loc, 2)
            args = self._built_args(items, scopes)
            self._require_bool(op, args, items)
            return Apply(op, args, Sort.BOOL, loc)

        if op in self.macros and self._lookup(op, scopes) is None:
            return self._macro_call(head, items, scopes)
        if op in self.decls and self._lookup(op, scopes) is None:
            return self._declared_call(head, items, scopes)
        if op in _KNOWN_UNSUPPORTED_OPS:
            raise ParseError(f"unsupported operator '{op}'", loc)
        raise UndeclaredSymbolError(f"undeclared function symbol '{op}'", loc)

    def _macro_call(self, head: SAtom, items, scopes) -> Term:
        params, body = self.macros[head.text]
        if len(items) != len(params):
            raise SortError(
                f"'{head.text}' expects {len(params)} arguments, got {len(items)}", head.loc
            )
        args = self._built_args(items, scopes)
        for arg, (pname, psort), sx in zip(args, params, items):
            if arg.sort is not psort:
                raise SortError(
                    f"argument '{pname}' of '{head.text}' must be {psort}, got {arg.sort}",
                    sx.loc,
                )
        return substitute(body, {p: a for (p, _), a in zip(params, args)})

    def _declared_call(self, head: SAtom, items, scopes) -> Term:
        decl = self.decls[head.text]
        if not decl.params:
            raise ParseError(f"'{head.text}' is a constant, not a function", head.loc)
        if len(items) != len(decl.params):
            raise SortError(
                f"'{head.text}' expects {len(decl.params)} arguments, got {len(items)}",
                head.loc,
            )
        args = self._built_args(items, scopes)
        for i, (arg, psort, sx) in enumerate(zip(args, decl.params, items)):
            if arg.sort is not psort:
                raise SortError(
                    f"argument {i + 1} of '{head.text}' must be {psort}, got {arg.sort}",
                    sx.loc,
                )
        return Apply(head.text, args, decl.result, head.loc)

    def _let(self, head: SAtom, items, scopes) -> Term:
        if len(items) != 2 or not isinstance(items[0], SList):
            raise ParseError("malformed let", head.loc)
        bindings: dict[str, Term] = {}
        for b in items[0].items:
            if not (isinstance(b, SList) and len(b.items) == 2):
                raise ParseError("malformed let binding", items[0].loc)
            name = self._symbol(b.items[0], "a let-bound name")
            if name.text in bindings:
                raise ParseError(f"duplicate let binding '{name.text}'", name.loc)
            # Bindings are parallel: right-hand sides see the outer scope.
            bindings[name.text] = self._term(b.items[1], scopes)
        return self._term(items[1], scopes + [bindings])

    def _quantifier(self, head: SAtom, items, scopes) -> Term:
        if len(items) != 2 or not isinstance(items[0], SList) or not items[0].items:
            raise ParseError(f"malformed {head.text}", head.loc)
        bound: list[tuple[str, Sort]] = []
        scope: dict[str, Term] = {}
        for b in items[0].items:
            if not (isinstance(b, SList) and len(b.items) == 2):
                raise ParseError("malformed binder", items[0].loc)
            name = self._symbol(b.items[0], "a bound variable")
            if name.text in scope:
                raise ParseError(f"duplicate bound variable '{name.text}'", name.loc)
            try:
                sort = _parse_sort(b.items[1])
            except _UnsupportedSort:
                raise ParseError("unsupported sort in binder", b.items[1].loc)
            bound.append((name.text, sort))
            scope[name.text] = Var(name.text, sort, name.loc)
        body = self._term(items[1], scopes + [scope])
        if body.sort is not Sort.BOOL:
            raise SortError(f"{head.text} body must be Bool, got {body.sort}", items[1].loc)
        return Quantifier(head.text, tuple(bound), body, head.loc)


def _innermost_form_loc(tb) -> Loc:
    """Location of the deepest list `_ScriptBuilder._term` was building."""

    loc = NO_LOC
    while tb is not None:
        if tb.tb_frame.f_code is _ScriptBuilder._term.__code__:
            sx = tb.tb_frame.f_locals.get("sx")
            if isinstance(sx, SList):
                loc = sx.loc
        tb = tb.tb_next
    return loc


def parse_script(text: str) -> Script:
    """Parse a whole script; raises a ScriptError subclass with a location.

    The text is first read into s-expressions in one iterative pass, so
    lexical and bracket errors come before any sort or scope error.  Terms
    are then built recursively, so nesting deeper than the interpreter's
    recursion limit allows raises ParseError("nesting too deep").
    """

    forms = _read(text)
    try:
        return _ScriptBuilder().run(forms)
    except RecursionError as exc:
        raise ParseError("nesting too deep", _innermost_form_loc(exc.__traceback__)) from None
