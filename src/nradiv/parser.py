"""SMT-LIB2 reader: one-pass scanner and s-expression reader, sort-checking builder.

The reader matches one compiled pattern per token and builds s-expressions
on an explicit stack; each keeps the offset at which it starts.  Numerals
are ASCII digits only (SMT-LIB 2.6 section 3.1); other digits are rejected.
The term builder keeps its work on an explicit stack too, so depth has no
limit, and checks builtin sorts with `terms.result_sort`, as constructors do.
Only the positions that are shown become a line and column (`_loc`): a
division's, and a parse error's.

Supported commands: set-logic, set-info, declare-fun, declare-const,
define-fun, assert, check-sat, exit.  Anything else is preserved
verbatim as an "unsupported" record and re-emitted on printing; an
unsupported construct inside an assertion is an error.

`let` bindings are expanded during parsing, and so is each call of a
`define-fun`, as a `let` of its parameters, so the resulting AST contains
neither.  Every name resolves through one scope, in which the innermost
binder of a name hides everything outside it (SMT-LIB 2.6 section 3.6).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Generator, Iterator, NamedTuple

from .errors import ParseError, ScriptError, SortError, UndeclaredSymbolError
from .printer import SIMPLE_SYMBOL, SIMPLE_SYMBOL_CHARS, format_symbol
from .terms import (
    OPS,
    Apply,
    Const,
    Div,
    FunDecl,
    Ite,
    Loc,
    Quantifier,
    Script,
    Sort,
    Term,
    Unsupported,
    Var,
    arity_error,
    children,
    dag_fold,
    dag_rewrite,
    fresh_name,
    names_in,
    neg_literal,
    result_sort,
)

_SORT_RULE_OPS = frozenset(OPS) | {"/", "ite"}  # the builtins `terms.result_sort` checks

_RESERVED = _SORT_RULE_OPS | {"true", "false", "let", "forall", "exists", "as", "par", "_", "!"}

# Theory symbols we recognize as real SMT-LIB but do not model.
_KNOWN_UNSUPPORTED_OPS = frozenset(
    {"div", "mod", "abs", "to_real", "to_int", "is_int", "^", "!", "_", "root-obj", "select", "store"}
)


class SAtom(NamedTuple):
    kind: str  # "symbol" | "keyword" | "numeral" | "decimal" | "string"
    text: str
    pos: int  # offset into the text


class SList(NamedTuple):
    items: tuple
    pos: int  # offset of the "("


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


def _loc(line_starts: list[int], pos: int) -> Loc:
    """The line and column, both from 1, of offset `pos`, given the offset
    at which each line starts."""

    line = bisect_right(line_starts, pos)
    return Loc(line, pos - line_starts[line - 1] + 1)


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
    return ParseError(message, pos)


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
    bracket, as if the whole text had been tokenized first.  Errors carry
    an offset, as s-expressions do.
    """

    forms: list[SAtom | SList] = []
    items = forms
    stack: list[tuple[list, int]] = []  # (enclosing items, offset of the open list)
    pos, size = 0, len(text)
    match = _TOKEN.match
    while pos < size:
        m = match(text, pos)
        if m is None:
            raise _scan_error(text, pos)
        kind = m.lastgroup
        if kind == "open":
            stack.append((items, pos))
            items = []
        elif kind == "close":
            if not stack:
                raise _first_scan_error(text, m.end()) or ParseError("unmatched ')'", pos)
            outer, start = stack.pop()
            outer.append(SList(tuple(items), start))
            items = outer
        elif kind == "quoted":
            items.append(SAtom("symbol", m.group(kind), pos))
        elif kind == "string":
            items.append(SAtom("string", m.group(kind).replace('""', '"'), pos))
        elif kind != "blank":
            items.append(SAtom(kind, m.group(kind), pos))
        pos = m.end()
    if stack:
        raise ParseError("unbalanced '(': input ended inside a list", stack[-1][1])
    return forms


def render_sexpr(sx: SAtom | SList) -> str:
    """Canonical one-line rendering, used for unsupported commands."""

    out: list[str] = []
    stack: list = [sx]  # s-expressions and the literal text between them
    while stack:
        item = stack.pop()
        match item:
            case str():
                out.append(item)
            case SAtom("symbol", text, _):
                out.append(format_symbol(text))
            case SAtom("string", text, _):
                escaped = text.replace('"', '""')
                out.append(f'"{escaped}"')
            case SAtom("keyword", text, _):
                out.append(f":{text}")
            case SAtom(_, text, _):
                out.append(text)
            case SList(items, _):
                out.append("(")
                stack.append(")")
                for i in range(len(items) - 1, 0, -1):
                    stack.append(items[i])
                    stack.append(" ")
                stack.extend(items[:1])
            case _:
                raise TypeError(f"not an s-expression: {item!r}")
    return "".join(out)


class _Unsupported(Exception):
    """A command or sort outside the subset."""


_SORTS = {s.value: s for s in Sort}


def _parse_sort(sx) -> Sort:
    if isinstance(sx, SAtom) and sx.kind == "symbol" and sx.text in _SORTS:
        return _SORTS[sx.text]
    raise _Unsupported()


class _Defined(NamedTuple):
    """A define-fun.  A call binds its parameters to its arguments and
    builds `body`, its s-expression, under `env`, what each other symbol
    in the body meant at the definition, and under the definition's
    `logic`.  `calls` keeps each expansion, with its arguments, by their
    identities.  A constant's `body` is its term, built once."""

    names: tuple[str, ...]  # of the parameters
    params: tuple[Sort, ...]  # their sorts, as in a FunDecl
    result: Sort
    body: SAtom | SList | Term
    env: dict
    logic: str | None
    calls: dict


def _symbols(sx) -> set[str]:
    """Every symbol that occurs in `sx`."""

    names, stack = set(), [sx]
    while stack:
        x = stack.pop()
        if type(x) is SList:
            stack.extend(x.items)
        elif x.kind == "symbol":
            names.add(x.text)
    return names


def _numeral_sort(logic: str | None) -> Sort:
    """Numerals are Int in integer logics and Real in all others, mixed ones too."""

    return Sort.INT if logic and "IA" in logic and "RA" not in logic else Sort.REAL


class _ScriptBuilder:
    def __init__(self, line_starts: list[int]) -> None:
        self.line_starts = line_starts  # of the text, for `_loc`
        self.logic: str | None = None
        self.metadata: list[tuple[str, str]] = []
        # Each name in scope -> what it means here: its FunDecl, its
        # define-fun, or the term of its innermost let, quantifier or
        # parameter binding; `true` and `false` start bound to their
        # literals.  A binder shadows an entry in place and restores it,
        # so the FunDecls keep declaration order.
        literals = {"true": Const(True, Sort.BOOL), "false": Const(False, Sort.BOOL)}
        self.scope: dict[str, FunDecl | _Defined | Term] = literals
        self.defining = False  # building a define-fun body with parameters
        self.assertions: list[Term] = []
        self.unsupported: list[Unsupported] = []
        self.check_sat = False
        self.exit_cmd = False
        self.numbers: dict[str, Fraction] = {}  # literal text -> value

    # -- commands ----------------------------------------------------------

    def run(self, forms: list) -> Script:
        for form in forms:
            if not isinstance(form, SList):
                raise ParseError("expected a command", form.pos)
            if not form.items or not (
                isinstance(form.items[0], SAtom) and form.items[0].kind == "symbol"
            ):
                raise ParseError("command must start with a symbol", form.pos)
            head = form.items[0].text
            args = form.items[1:]
            handler = getattr(self, "_cmd_" + head.replace("-", "_"), None)
            try:
                if handler is None:
                    raise _Unsupported()
                handler(form, args)
            except _Unsupported:  # kept verbatim
                self.unsupported.append(Unsupported(render_sexpr(form)))
            if self.exit_cmd:
                break
        return Script(
            logic=self.logic,
            metadata=tuple(self.metadata),
            decls=tuple(m for m in self.scope.values() if type(m) is FunDecl),
            assertions=tuple(self.assertions),
            unsupported=tuple(self.unsupported),
            check_sat=self.check_sat,
            exit_cmd=self.exit_cmd,
        )

    def _symbol(self, sx, what: str) -> SAtom:
        if not (isinstance(sx, SAtom) and sx.kind == "symbol"):
            raise ParseError(f"expected {what}", sx.pos)
        return sx

    def _register(self, name: SAtom) -> None:
        if name.text in _RESERVED:
            raise ParseError(f"cannot redefine builtin symbol '{name.text}'", name.pos)
        if name.text in self.scope:
            raise ParseError(f"symbol '{name.text}' is already declared", name.pos)

    def _cmd_set_logic(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("set-logic takes one symbol", form.pos)
        name = self._symbol(args[0], "a logic name")
        if self.logic is not None:
            raise ParseError("logic is already set", form.pos)
        self.logic = name.text

    def _cmd_set_info(self, form: SList, args) -> None:
        if not args or not (isinstance(args[0], SAtom) and args[0].kind == "keyword"):
            raise ParseError("set-info needs a keyword", form.pos)
        if len(args) > 2:
            raise ParseError("malformed set-info", form.pos)
        value = render_sexpr(args[1]) if len(args) == 2 else ""
        self.metadata.append((args[0].text, value))

    def _cmd_declare_fun(self, form: SList, args) -> None:
        if len(args) != 3 or not isinstance(args[1], SList):
            raise ParseError("malformed declare-fun", form.pos)
        self._declare(self._symbol(args[0], "a function name"), args[1].items, args[2])

    def _cmd_declare_const(self, form: SList, args) -> None:
        if len(args) != 2:
            raise ParseError("malformed declare-const", form.pos)
        self._declare(self._symbol(args[0], "a constant name"), (), args[1])

    def _declare(self, name: SAtom, params, result) -> None:
        self._register(name)
        sorts = tuple(_parse_sort(p) for p in params)
        self.scope[name.text] = FunDecl(name.text, sorts, _parse_sort(result))

    def _cmd_define_fun(self, form: SList, args) -> None:
        if len(args) != 4 or not isinstance(args[1], SList):
            raise ParseError("malformed define-fun", form.pos)
        name = self._symbol(args[0], "a function name")
        self._register(name)
        pairs = self._pairs(args[1], "parameter list", "a parameter name", "parameter")
        params = {p.text: _parse_sort(sx) for p, sx in pairs}
        result = _parse_sort(args[2])
        # Built here for its checks.  With parameters, a call in it is left
        # unexpanded (`_call`): the body is built again at each call of it.
        shadowed = self._bind({p: Var(p, sort) for p, sort in params.items()})
        self.defining = bool(params)
        body = self._build(args[3])
        self.defining = False
        self._unbind(shadowed)
        if body.sort is not result:
            raise SortError(f"define-fun body has sort {body.sort}, declared {result}", args[3].pos)
        env = {s: self.scope[s] for s in _symbols(args[3]) if s in self.scope}
        body = args[3] if params else body
        sorts = tuple(params.values())
        self.scope[name.text] = _Defined(tuple(params), sorts, result, body, env, self.logic, {})

    def _cmd_assert(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("assert takes one term", form.pos)
        term = self._build(args[0])
        if term.sort is not Sort.BOOL:
            raise SortError(f"assertion must be Bool, got {term.sort}", args[0].pos)
        self.assertions.append(term)

    def _cmd_check_sat(self, form: SList, args) -> None:
        if args:
            raise ParseError("check-sat takes no arguments", form.pos)
        self.check_sat = True

    def _cmd_exit(self, form: SList, args) -> None:
        if args:
            raise ParseError("exit takes no arguments", form.pos)
        self.exit_cmd = True

    # -- terms -------------------------------------------------------------

    def _build(self, sx) -> Term:
        """The term `sx` denotes under `self.scope`, built without recursion:
        each `_term` generator yields the s-expression of each subterm it
        needs, in order, and is sent the term built from it.  They wait on
        one explicit stack, so every check runs in the order it is written."""

        stack: list[Generator] = []
        while True:
            if type(sx) is SAtom:
                term = self._atom_term(sx)
            else:
                stack.append(self._term(sx))
                term = None
            while stack:
                try:
                    sx = stack[-1].send(term)
                    break
                except StopIteration as done:
                    stack.pop()
                    term = done.value
            else:
                return term

    def _term(self, sx) -> Generator:
        if not sx.items:
            raise ParseError("empty application", sx.pos)
        head = sx.items[0]
        if isinstance(head, SList):
            raise ParseError("unsupported construct in term position", head.pos)
        if head.kind != "symbol":
            raise ParseError(f"cannot apply {head.kind} '{head.text}'", head.pos)
        if head.text == "let":
            return self._let(head, sx.items[1:])
        if head.text in ("forall", "exists"):
            return self._quantifier(head, sx.items[1:])
        return self._application(head, sx.items[1:])

    def _number(self, text: str) -> Fraction:
        value = self.numbers.get(text)
        if value is None:
            value = self.numbers[text] = Fraction(text)
        return value

    def _atom_term(self, sx: SAtom) -> Term:
        if sx.kind == "numeral":
            return Const(self._number(sx.text), _numeral_sort(self.logic))
        if sx.kind == "decimal":
            return Const(self._number(sx.text), Sort.REAL)
        if sx.kind != "symbol":
            raise ParseError(f"unexpected {sx.kind} in term position", sx.pos)
        name = sx.text
        meaning = self.scope.get(name)
        if meaning is None:
            raise UndeclaredSymbolError(f"undeclared symbol '{name}'", sx.pos)
        if type(meaning) is not FunDecl and type(meaning) is not _Defined:  # a bound name
            return meaning
        if meaning.params:
            raise SortError(f"'{name}' expects {len(meaning.params)} arguments", sx.pos)
        return Var(name, meaning.result) if type(meaning) is FunDecl else meaning.body

    def _built_args(self, items) -> Generator:
        """The argument terms; an atom is built here, saving a trip through `_build`."""

        args = []
        for x in items:
            args.append(self._atom_term(x) if type(x) is SAtom else (yield x))
        return tuple(args)

    def _bind(self, names: dict[str, Term]) -> list[tuple[str, object]]:
        """Bind `names` over the bindings in scope; returns what `_unbind` restores."""

        shadowed = [(name, self.scope.get(name)) for name in names]
        self.scope.update(names)
        return shadowed

    def _unbind(self, shadowed: list[tuple[str, object]]) -> None:
        for name, old in shadowed:
            if old is None:
                del self.scope[name]
            else:
                self.scope[name] = old

    def _pairs(self, sx: SList, pair: str, what: str, dup: str) -> Iterator[tuple[SAtom, object]]:
        """The `(name x)` pairs of a binder list, each checked when reached:
        a list of two, a symbol first, and a name not seen before in `sx`."""

        seen: set[str] = set()
        for p in sx.items:
            if not (isinstance(p, SList) and len(p.items) == 2):
                raise ParseError(f"malformed {pair}", sx.pos)
            name = self._symbol(p.items[0], what)
            if name.text in seen:
                raise ParseError(f"duplicate {dup} '{name.text}'", name.pos)
            seen.add(name.text)
            yield name, p.items[1]

    def _application(self, head: SAtom, items) -> Generator:
        op = head.text
        pos = head.pos

        if op in _SORT_RULE_OPS:
            why = arity_error(op, len(items))
            if why is not None:
                raise ParseError(why, pos)
            args = yield from self._built_args(items)
            try:
                sort = result_sort(op, args)
            except SortError as exc:  # located at the argument to blame
                at = pos if exc.arg is None else items[exc.arg].pos
                raise SortError(exc.args[0], at) from None
            if op == "ite":
                return Ite(*args, sort)
            if op == "/":
                if sort is Sort.INT and _numeral_sort(self.logic) is not Sort.INT:
                    raise SortError("'/' on Int arguments outside an integer logic", pos)
                loc = _loc(self.line_starts, pos)
                term = args[0]
                for arg in args[1:]:  # n-ary division associates to the left
                    term = Div(term, arg, sort, loc)
                return term
            if op == "-" and len(args) == 1 and isinstance(args[0], Const):
                return neg_literal(args[0])
            return Apply(op, args, sort)

        meaning = self.scope.get(op)
        if type(meaning) is FunDecl or type(meaning) is _Defined:
            return (yield from self._call(head, items, meaning))
        if op in _KNOWN_UNSUPPORTED_OPS:
            raise ParseError(f"unsupported operator '{op}'", pos)
        raise UndeclaredSymbolError(f"undeclared function symbol '{op}'", pos)

    def _call(self, head: SAtom, items, meaning: FunDecl | _Defined) -> Generator:
        """An application of a declared or a defined function.  A defined
        one is expanded like a `let` of its parameters, once per tuple of
        argument objects, but not while a function with parameters is defined."""

        name = head.text
        declared = type(meaning) is FunDecl
        if declared and not meaning.params:
            raise ParseError(f"'{name}' is a constant, not a function", head.pos)
        sorts = meaning.params
        if len(items) != len(sorts):
            raise SortError(f"'{name}' expects {len(sorts)} arguments, got {len(items)}", head.pos)
        args = yield from self._built_args(items)
        for i, (arg, sort) in enumerate(zip(args, sorts)):
            if arg.sort is not sort:
                which = i + 1 if declared else f"'{meaning.names[i]}'"
                raise SortError(
                    f"argument {which} of '{name}' must be {sort}, got {arg.sort}", items[i].pos
                )
        if declared or self.defining:
            return Apply(name, args, meaning.result)
        if not meaning.params:
            return meaning.body
        key = tuple(map(id, args))
        if key not in meaning.calls:
            shadowed = self._bind(meaning.env | dict(zip(meaning.names, args)))
            logic, self.logic = self.logic, meaning.logic
            meaning.calls[key] = (args, (yield meaning.body))
            self.logic = logic
            self._unbind(shadowed)
        return meaning.calls[key][1]

    def _let(self, head: SAtom, items) -> Generator:
        if len(items) != 2 or not isinstance(items[0], SList):
            raise ParseError("malformed let", head.pos)
        bindings: dict[str, Term] = {}
        # Bindings are parallel: right-hand sides see the outer scope.
        for name, sx in self._pairs(items[0], "let binding", "a let-bound name", "let binding"):
            bindings[name.text] = yield sx
        shadowed = self._bind(bindings)
        body = yield items[1]
        self._unbind(shadowed)
        return body

    def _quantifier(self, head: SAtom, items) -> Generator:
        if len(items) != 2 or not isinstance(items[0], SList) or not items[0].items:
            raise ParseError(f"malformed {head.text}", head.pos)
        binders: dict[str, Term] = {}
        for name, sx in self._pairs(items[0], "binder", "a bound variable", "bound variable"):
            try:
                sort = _parse_sort(sx)
            except _Unsupported:
                raise ParseError("unsupported sort in binder", sx.pos)
            binders[name.text] = Var(name.text, sort)
        shadowed = self._bind(binders)
        body = yield items[1]
        self._unbind(shadowed)
        if body.sort is not Sort.BOOL:
            raise SortError(f"{head.text} body must be Bool, got {body.sort}", items[1].pos)
        q = Quantifier(head.text, tuple((n, v.sort) for n, v in binders.items()), body)
        for name, outer in shadowed:
            if outer is not None and _captures(body, binders[name]):
                q = _rename_binder(q, binders[name])
        return q


def _captures(body: Term, own: Var) -> bool:
    """Whether `body` holds a `Var` named as binder `own` that is not `own`:
    a term built outside the binder, which the binder would capture.  A
    quantifier that binds the name again is not entered."""

    def kids(t: Term) -> tuple[Term, ...]:
        rebinds = type(t) is Quantifier and any(n == own.name for n, _ in t.bound)
        return () if rebinds else children(t)

    def foreign(t: Term, below: list[bool]) -> bool:
        return (type(t) is Var and t.name == own.name and t is not own) or True in below

    return dag_fold(body, foreign, kids)


def _rename_binder(q: Quantifier, own: Var) -> Quantifier:
    """`q` with binder `own` given a name that nothing in `q` uses."""

    new = Var(fresh_name(own.name, names_in(q)), own.sort)
    bound = tuple((new.name if n == own.name else n, s) for n, s in q.bound)
    body = dag_rewrite(q.body, lambda t: new if t is own else t)
    return Quantifier(q.kind, bound, body)


def parse_script(text: str) -> Script:
    """Parse a whole script; raises a ScriptError subclass with a location.

    The text is first read into s-expressions in one iterative pass, so
    lexical and bracket errors come before any sort or scope error.  Terms
    are then built on an explicit stack, so nesting has no depth limit.
    """

    line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    try:
        return _ScriptBuilder(line_starts).run(_read(text))
    except ScriptError as exc:  # located at an offset until here
        exc.loc = _loc(line_starts, exc.loc)
        raise
