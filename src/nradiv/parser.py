"""SMT-LIB2 reader: one-pass scanner and s-expression reader, sort-checking builder.

The reader scans the text with one `findall` and builds s-expressions on
an explicit stack: a list keeps the offset at which it starts, an atom is
its token's text, and an error at an atom is located by reading again.
Numerals are ASCII digits only (SMT-LIB 2.6 section 3.1).
The term builder keeps its work on an explicit stack too, so depth has no
limit, and checks builtin sorts with `terms.result_sort`, as constructors do.
Only the positions that are shown become a line and column (`_loc`): a
division's, and a parse error's.

Supported commands: set-logic, set-info, declare-fun, declare-const,
define-fun, define-const, assert, check-sat, exit.  Anything else is preserved
verbatim as an "unsupported" record and re-emitted on printing; an
unsupported construct inside an assertion is an error.

`let` bindings are expanded during parsing, and so is each call of a
`define-fun`, as a `let` of its parameters, so the resulting AST contains
neither.  Every name resolves through one scope, in which the innermost
binder of a name hides everything outside it (SMT-LIB 2.6 section 3.6).
"""

from __future__ import annotations

import re
import sys
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
    numeral_sort,
    result_sort,
)

_SORT_RULE_OPS = frozenset(OPS) | {"/", "ite"}  # the builtins `terms.result_sort` checks

_RESERVED = _SORT_RULE_OPS | {"true", "false", "let", "forall", "exists", "as", "par", "_", "!"}

# Theory symbols we recognize as real SMT-LIB but do not model.
_KNOWN_UNSUPPORTED_OPS = frozenset(
    {"div", "mod", "abs", "to_real", "to_int", "is_int", "^", "!", "_", "root-obj", "select", "store"}
)


class SList(NamedTuple):
    items: tuple  # s-expressions: lists, and atoms, each its token's text
    pos: int  # offset of the "("


class _Atom(str):
    """An atom of a located read: its text, and `pos`, its offset (an
    attribute: a `str` subclass can hold no slots)."""


# One token per match, blanks and comments included, so that the tokens of
# a text that scans cleanly tile it.  The lookaheads keep `12.x` and `"a""`
# from reading as two tokens: a decimal point must be followed by a digit,
# and `""` inside a string is an escaped quote, never its end.  The
# lookbehinds keep a digit run that fails to scan from being tried again at
# each of its digits, so a failing scan stays linear.  An alternative that
# can fail repeats a repeat only where each round starts with text the inner
# one cannot match (the string's `""`): with no atomic groups (CPython 3.10),
# a nest such as `(?:[ \t]+)*` backtracks exponentially on a bad character
# after a long run of blanks.  Where nothing matches, `_scan_error` says why.
_TOKEN = re.compile(
    r"[ \t\r\n]+|;[^\n]*"
    r"|\(|\)"
    rf"|{SIMPLE_SYMBOL.pattern}"
    r"|(?<![0-9])[0-9]+\.[0-9]+"
    r"|(?<![0-9])[0-9]+(?![.0-9])"
    r"|\|[^|\\]*\|"
    rf"|:[{SIMPLE_SYMBOL_CHARS}]+"
    r'|"[^"]*(?:""[^"]*)*"(?!")'
)
_GAP = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")  # blanks and comments; never fails

# An atom's kind is read from its first character: a digit starts a
# numeral or a decimal, "|" a quoted symbol, '"' a string and ":" a
# keyword; any other character starts a simple symbol.
_DIGITS = "0123456789"
_NOT_SYMBOL = frozenset(_DIGITS + '":')


def _name(sx) -> str | None:
    """The name of a symbol atom, a quoted one without its bars; None for
    any other s-expression."""

    if type(sx) is SList or sx[0] in _NOT_SYMBOL:
        return None
    return sx[1:-1] if sx[0] == "|" else sx


def _pos(sx) -> int | None:
    """Where `sx` starts: always known for a list, only in a located read for an atom."""

    return getattr(sx, "pos", None)


def _kind_and_text(atom: str) -> tuple[str, str]:
    """How an error names a non-symbol atom: its kind and its value's text."""

    c = atom[0]
    if c == '"':
        return "string", atom[1:-1].replace('""', '"')
    if c == ":":
        return "keyword", atom[1:]
    return "decimal" if "." in atom else "numeral", atom


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
    elif c in _DIGITS:
        message = "malformed decimal literal"
    else:
        message = f"unexpected character {c!r}"
    return ParseError(message, pos)


def _read(text: str, located: bool = False) -> list:
    """Scan and read `text` into top-level s-expressions.

    One `findall` scans the whole text, so a lexical error anywhere is
    reported before an unbalanced bracket.  Each atom is its token's text;
    with `located`, an `_Atom` that also keeps its offset.  Errors carry
    an offset, as lists do.
    """

    tokens = _TOKEN.findall(text)
    if sum(map(len, tokens)) != len(text):  # some character starts no token:
        pos = 0  # find the first, token by token
        while (m := _TOKEN.match(text, pos)) is not None:
            pos = m.end()
        raise _scan_error(text, pos)
    forms: list = []
    items = forms
    stack: list[tuple[list, int]] = []  # (enclosing items, offset of the open list)
    for token, pos in zip(tokens, accumulate(map(len, tokens), initial=0)):
        c = token[0]
        if c == "(":
            stack.append((items, pos))
            items = []
        elif c == ")":
            if not stack:
                raise ParseError("unmatched ')'", pos)
            outer, start = stack.pop()
            outer.append(SList(tuple(items), start))
            items = outer
        elif c not in " \t\r\n;":
            if located:
                token = _Atom(token)
                token.pos = pos
            items.append(token)
    if stack:
        raise ParseError("unbalanced '(': input ended inside a list", stack[-1][1])
    return forms


def _render_atom(atom: str) -> str:
    """An atom as spelled, but a quoted symbol whose name is simple without its bars."""

    return format_symbol(atom[1:-1]) if atom[0] == "|" else atom


def render_sexpr(sx) -> str:
    """Canonical one-line rendering, used for unsupported commands."""

    out: list[str] = []
    # Lists, and the text of atoms and between them.
    stack: list = [sx if type(sx) is SList else _render_atom(sx)]
    while stack:
        item = stack.pop()
        if type(item) is not SList:
            out.append(item)
            continue
        items = item.items
        out.append("(")
        stack.append(")")
        for i in range(len(items) - 1, -1, -1):
            x = items[i]
            stack.append(x if type(x) is SList else _render_atom(x))
            if i:
                stack.append(" ")
    return "".join(out)


class _Unsupported(Exception):
    """A command or sort outside the subset."""


_SORTS = {s.value: s for s in Sort}


def _parse_sort(sx) -> Sort:
    sort = _SORTS.get(_name(sx))
    if sort is None:
        raise _Unsupported()
    return sort


class _Defined(NamedTuple):
    """A define-fun.  A call binds its parameters to its arguments and
    builds `body`, its s-expression, under `env`, what each other symbol
    in the body meant at the definition, and under the definition's
    `logic`.  `calls` keeps each expansion, with its arguments, by their
    identities.  A constant's `body` is its term, built once."""

    names: tuple[str, ...]  # of the parameters
    params: tuple[Sort, ...]  # their sorts, as in a FunDecl
    result: Sort
    body: str | SList | Term
    env: dict
    logic: str | None
    calls: dict


def _symbols(sx) -> set[str]:
    """The name of every symbol that occurs in `sx`."""

    names, stack = set(), [sx]
    while stack:
        x = stack.pop()
        if type(x) is SList:
            stack.extend(x.items)
        else:
            names.add(_name(x))
    names.discard(None)
    return names


class _ScriptBuilder:
    def __init__(self, text: str, line_starts: list[int]) -> None:
        self.text = text  # for the offset of a division's `/`
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
        # One leaf object per script: each declared name -> its one `Var`,
        # each (literal text, sort) -> its one `Const`.  Binders are not
        # here: each is a `Var` of its own, compared by identity.
        self.leaves: dict[str | tuple[str, Sort], Var | Const] = {}

    # -- commands ----------------------------------------------------------

    def run(self, forms: list) -> Script:
        for form in forms:
            if type(form) is not SList:
                raise ParseError("expected a command", _pos(form))
            head = _name(form.items[0]) if form.items else None
            if head is None:
                raise ParseError("command must start with a symbol", form.pos)
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

    def _symbol(self, sx, what: str) -> str:
        name = _name(sx)
        if name is None:
            raise ParseError(f"expected {what}", _pos(sx))
        return name

    def _register(self, sx, what: str) -> str:
        """The name that `sx` declares or defines, checked."""

        name = self._symbol(sx, what)
        if name in _RESERVED:
            raise ParseError(f"cannot redefine builtin symbol '{name}'", _pos(sx))
        if name in self.scope:
            raise ParseError(f"symbol '{name}' is already declared", _pos(sx))
        return name

    def _cmd_set_logic(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("set-logic takes one symbol", form.pos)
        name = self._symbol(args[0], "a logic name")
        if self.logic is not None:
            raise ParseError("logic is already set", form.pos)
        self.logic = name

    def _cmd_set_info(self, form: SList, args) -> None:
        if not args or type(args[0]) is SList or args[0][0] != ":":
            raise ParseError("set-info needs a keyword", form.pos)
        if len(args) > 2:
            raise ParseError("malformed set-info", form.pos)
        value = render_sexpr(args[1]) if len(args) == 2 else ""
        self.metadata.append((args[0][1:], value))

    def _cmd_declare_fun(self, form: SList, args) -> None:
        if len(args) != 3 or type(args[1]) is not SList:
            raise ParseError("malformed declare-fun", form.pos)
        self._declare(self._register(args[0], "a function name"), args[1].items, args[2])

    def _cmd_declare_const(self, form: SList, args) -> None:
        if len(args) != 2:
            raise ParseError("malformed declare-const", form.pos)
        self._declare(self._register(args[0], "a constant name"), (), args[1])

    def _declare(self, name: str, params, result) -> None:
        sorts = tuple(_parse_sort(p) for p in params)
        decl = self.scope[name] = FunDecl(name, sorts, _parse_sort(result))
        if not sorts:
            self.leaves[name] = Var(name, decl.result)

    def _cmd_define_const(self, form: SList, args) -> None:
        self._cmd_define_fun(form, (*args[:1], SList((), form.pos), *args[1:]))

    def _cmd_define_fun(self, form: SList, args) -> None:
        command = form.items[0]  # define-fun, or define-const: one with no parameters
        if len(args) != 4 or type(args[1]) is not SList:
            raise ParseError(f"malformed {command}", form.pos)
        name = self._register(args[0], "a function name")
        pairs = self._pairs(args[1], "parameter list", "a parameter name", "parameter")
        params = {p: _parse_sort(sx) for p, sx in pairs}
        result = _parse_sort(args[2])
        # Built here for its checks.  With parameters, a call in it is left
        # unexpanded (`_call`): the body is built again at each call of it.
        shadowed = self._bind({p: Var(p, sort) for p, sort in params.items()})
        self.defining = bool(params)
        body = self._build(args[3])
        self.defining = False
        self._unbind(shadowed)
        if body.sort is not result:
            raise SortError(f"{command} body has sort {body.sort}, declared {result}", _pos(args[3]))
        env = {s: self.scope[s] for s in _symbols(args[3]) if s in self.scope}
        body = args[3] if params else body
        sorts = tuple(params.values())
        self.scope[name] = _Defined(tuple(params), sorts, result, body, env, self.logic, {})

    def _cmd_assert(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("assert takes one term", form.pos)
        term = self._build(args[0])
        if term.sort is not Sort.BOOL:
            raise SortError(f"assertion must be Bool, got {term.sort}", _pos(args[0]))
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
            if type(sx) is SList:
                stack.append(self._term(sx))
                term = None
            else:
                term = self._atom_term(sx)
            while stack:
                try:
                    sx = stack[-1].send(term)
                    break
                except StopIteration as done:
                    stack.pop()
                    term = done.value
            else:
                return term

    def _term(self, sx: SList) -> Generator:
        if not sx.items:
            raise ParseError("empty application", sx.pos)
        head = sx.items[0]
        if type(head) is SList:
            raise ParseError("unsupported construct in term position", head.pos)
        op = _name(head)
        if op is None:
            raise ParseError("cannot apply {} '{}'".format(*_kind_and_text(head)), _pos(head))
        if op == "let":
            return self._let(head, sx.items[1:])
        if op in ("forall", "exists"):
            return self._quantifier(head, op, sx.items[1:])
        return self._application(sx, op, sx.items[1:])

    def _literal(self, sx: str) -> Const:
        sort = Sort.REAL if "." in sx else numeral_sort(self.logic)
        leaf = self.leaves.get((sx, sort))
        if leaf is None:
            whole, _, frac = sx.partition(".")
            try:  # `int` refuses more digits than `sys.get_int_max_str_digits()`
                value = Fraction(int(whole + frac), 10 ** len(frac))
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"literal has more than {limit} digits", _pos(sx)) from None
            leaf = self.leaves[sx, sort] = Const(value, sort)
        return leaf

    def _atom_term(self, sx: str) -> Term:
        if sx[0] in _DIGITS:
            return self._literal(sx)
        name = _name(sx)
        if name is None:
            raise ParseError("unexpected {} in term position".format(_kind_and_text(sx)[0]), _pos(sx))
        meaning = self.scope.get(name)
        if meaning is None:
            raise UndeclaredSymbolError(f"undeclared symbol '{name}'", _pos(sx))
        if type(meaning) is not FunDecl and type(meaning) is not _Defined:  # a bound name
            return meaning
        if meaning.params:
            raise SortError(f"'{name}' expects {len(meaning.params)} arguments", _pos(sx))
        return self.leaves[name] if type(meaning) is FunDecl else meaning.body

    def _built_args(self, items) -> Generator:
        """The argument terms; an atom is built here, saving a trip through `_build`."""

        args = []
        for x in items:
            args.append((yield x) if type(x) is SList else self._atom_term(x))
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

    def _pairs(self, sx: SList, pair: str, what: str, dup: str) -> Iterator[tuple[str, object]]:
        """The `(name x)` pairs of a binder list, each checked when reached:
        a list of two, a symbol first, and a name not seen before in `sx`."""

        seen: set[str] = set()
        for p in sx.items:
            if not (type(p) is SList and len(p.items) == 2):
                raise ParseError(f"malformed {pair}", sx.pos)
            name = self._symbol(p.items[0], what)
            if name in seen:
                raise ParseError(f"duplicate {dup} '{name}'", _pos(p.items[0]))
            seen.add(name)
            yield name, p.items[1]

    def _application(self, sx: SList, op: str, items) -> Generator:
        head = sx.items[0]
        if op in _SORT_RULE_OPS:
            why = arity_error(op, len(items))
            if why is not None:
                raise ParseError(why, _pos(head))
            args = yield from self._built_args(items)
            try:
                sort = result_sort(op, args)
            except SortError as exc:  # located at the argument to blame
                at = head if exc.arg is None else items[exc.arg]
                raise SortError(exc.args[0], _pos(at)) from None
            if op == "ite":
                return Ite(*args, sort)
            if op == "/":
                if sort is Sort.INT and numeral_sort(self.logic) is not Sort.INT:
                    raise SortError("'/' on Int arguments outside an integer logic", _pos(head))
                # The `/` starts after the `(` and any blanks and comments.
                loc = _loc(self.line_starts, _GAP.match(self.text, sx.pos + 1).end())
                term = args[0]
                for arg in args[1:]:  # n-ary division associates to the left
                    term = Div(term, arg, sort, loc)
                return term
            if op == "-" and len(args) == 1 and isinstance(args[0], Const):
                return neg_literal(args[0])
            return Apply(op, args, sort)

        meaning = self.scope.get(op)
        if type(meaning) is FunDecl or type(meaning) is _Defined:
            return (yield from self._call(head, op, items, meaning))
        if op in _KNOWN_UNSUPPORTED_OPS:
            raise ParseError(f"unsupported operator '{op}'", _pos(head))
        raise UndeclaredSymbolError(f"undeclared function symbol '{op}'", _pos(head))

    def _call(self, head: str, name: str, items, meaning: FunDecl | _Defined) -> Generator:
        """An application of a declared or a defined function.  A defined
        one is expanded like a `let` of its parameters, once per tuple of
        argument objects, but not while a function with parameters is defined."""

        declared = type(meaning) is FunDecl
        if not meaning.params:  # an application has an argument (SMT-LIB 2.6 §3.6)
            raise ParseError(f"'{name}' is a constant, not a function", _pos(head))
        sorts = meaning.params
        if len(items) != len(sorts):
            raise SortError(f"'{name}' expects {len(sorts)} arguments, got {len(items)}", _pos(head))
        args = yield from self._built_args(items)
        for i, (arg, sort) in enumerate(zip(args, sorts)):
            if arg.sort is not sort:
                which = i + 1 if declared else f"'{meaning.names[i]}'"
                raise SortError(
                    f"argument {which} of '{name}' must be {sort}, got {arg.sort}", _pos(items[i])
                )
        if declared or self.defining:
            return Apply(name, args, meaning.result)
        key = tuple(map(id, args))
        if key not in meaning.calls:
            shadowed = self._bind(meaning.env | dict(zip(meaning.names, args)))
            logic, self.logic = self.logic, meaning.logic
            meaning.calls[key] = (args, (yield meaning.body))
            self.logic = logic
            self._unbind(shadowed)
        return meaning.calls[key][1]

    def _let(self, head: str, items) -> Generator:
        if len(items) != 2 or type(items[0]) is not SList:
            raise ParseError("malformed let", _pos(head))
        bindings: dict[str, Term] = {}
        # Bindings are parallel: right-hand sides see the outer scope.
        for name, sx in self._pairs(items[0], "let binding", "a let-bound name", "let binding"):
            bindings[name] = yield sx
        shadowed = self._bind(bindings)
        body = yield items[1]
        self._unbind(shadowed)
        return body

    def _quantifier(self, head: str, kind: str, items) -> Generator:
        if len(items) != 2 or type(items[0]) is not SList or not items[0].items:
            raise ParseError(f"malformed {kind}", _pos(head))
        binders: dict[str, Term] = {}
        for name, sx in self._pairs(items[0], "binder", "a bound variable", "bound variable"):
            try:
                sort = _parse_sort(sx)
            except _Unsupported:
                raise ParseError("unsupported sort in binder", _pos(sx))
            binders[name] = Var(name, sort)
        shadowed = self._bind(binders)
        body = yield items[1]
        self._unbind(shadowed)
        if body.sort is not Sort.BOOL:
            raise SortError(f"{kind} body must be Bool, got {body.sort}", _pos(items[1]))
        q = Quantifier(kind, tuple((n, v.sort) for n, v in binders.items()), body)
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

    The text is first read into s-expressions in one pass, so lexical and
    bracket errors come before any sort or scope error.  Terms are then
    built on an explicit stack, so nesting has no depth limit.  Atoms keep
    no offset: an error at one is raised again from a located read.
    """

    line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    try:
        try:
            return _ScriptBuilder(text, line_starts).run(_read(text))
        except ScriptError as exc:
            if exc.loc is not None:
                raise
        _ScriptBuilder(text, line_starts).run(_read(text, located=True))
        raise AssertionError("a located read built what an unlocated one refused")
    except ScriptError as exc:  # located at an offset until here
        exc.loc = _loc(line_starts, exc.loc)
        raise
