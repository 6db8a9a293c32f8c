"""SMT-LIB2 reader: one-pass scanner and sort-checking term builder.

One `findall` scans the text into tokens, and one loop over them builds
every command.  The loop keeps one frame per open list, with the offset of
its `(`, and builds a term when that list's `)` arrives: each atom is
resolved in the scope in force at its token, and a `let` or quantifier
binds when its binding list closes.  Nothing is built as an s-expression
first, so depth has no limit, and every error is located at the offset of
its token.  Numerals are ASCII digits only (SMT-LIB 2.6 section 3.1).
Builtin sorts are checked with `terms.result_sort`, as constructors do.
Only the positions that are shown become a line and column (`_loc`): a
division's, and a parse error's.

Supported commands: set-logic, set-info, declare-fun, declare-const,
define-fun, define-const, assert, check-sat, exit.  Anything else is preserved
verbatim as an "unsupported" record and re-emitted on printing; an
unsupported construct inside an assertion is an error.  A command outside
the term builder is read as an s-expression (`_ScriptBuilder._read`).

`let` bindings are expanded during parsing, and so is each call of a
`define-fun`, whose body's tokens are replayed through the same loop under
its parameters' bindings, so the resulting AST contains neither.  Every
name resolves through one scope, in which the innermost binder of a name
hides everything outside it (SMT-LIB 2.6 section 3.6).
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple, NoReturn

from .errors import ParseError, ScriptError, SortError, UndeclaredSymbolError
from .printer import SIMPLE_SYMBOL, SIMPLE_SYMBOL_CHARS, format_symbol
from .terms import (
    _BOOL,
    _INT,
    _REAL,
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
    at: tuple[int, ...]  # the offset of each item


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
_BLANK = " \t\r\n;"  # the first characters of blanks and comments

# An atom's kind is read from its first character: a digit starts a
# numeral or a decimal, "|" a quoted symbol, '"' a string and ":" a
# keyword; any other character starts a simple symbol.
_DIGITS = "0123456789"
_NOT_SYMBOL = frozenset(_DIGITS + '":')
_NOT_SIMPLE = _NOT_SYMBOL | {"|"}  # an atom that is not its own name


def _name(sx) -> str | None:
    """The name of a symbol atom, a quoted one without its bars; None for
    any other s-expression."""

    if type(sx) is SList or sx[0] in _NOT_SYMBOL:
        return None
    return sx[1:-1] if sx[0] == "|" else sx


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


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The tokens of `text`, blanks and comments included, and the offset
    at which each starts.  One `findall` scans the whole text, so a lexical
    error anywhere is reported before any other."""

    tokens = _TOKEN.findall(text)
    starts = list(accumulate(map(len, tokens), initial=0))
    if starts[-1] != len(text):  # some character starts no token:
        pos = 0  # find the first, token by token
        while (m := _TOKEN.match(text, pos)) is not None:
            pos = m.end()
        raise _scan_error(text, pos)
    return tokens, starts


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
    replays `body`, its tokens with their offsets and a closing `)`, under
    `env`, what each other symbol in the body meant at the definition, and
    under the definition's `logic`.  `calls` keeps each expansion, with its
    arguments, by their identities.  A constant's `body` is its term, built
    once."""

    names: tuple[str, ...]  # of the parameters
    params: tuple[Sort, ...]  # their sorts, as in a FunDecl
    result: Sort
    body: tuple[tuple[str, int], ...] | Term
    env: dict
    logic: str | None
    calls: dict


# What an open list is to the term builder: the kind of its frame.  Each
# item of a frame of a kind below _SPECIAL is a term; a frame of a kind
# below _SLOTS becomes a term when its list closes.
_APPLY = 0  # a builtin application; data: the operator
_CALL = 1  # a call of a declared or defined function; data: (name, meaning)
_LET = 2  # a let whose bindings are bound; data: what they shadowed
_QUANT = 3  # a quantifier whose binders are bound; data: (kind, binders, shadowed)
_REPLAY = 4  # a define-fun body replayed for a call; data: see `_expand`
_SLOTS = 5
_PAIR_TERM = 5  # a let binding `(name t)` after its name; data: its `_Binders`
_ASSERT = 6
_DEFINE_BODY = 7  # a define-fun or define-const at its body; data: (head, slots, shadowed, body offset)
_SPECIAL = 8
_HEAD = 8  # a term whose head has not come
_BINDS = 9  # a let or quantifier before its binding list; data: the head's name
_BINDERS = 10  # a list of `(name x)` pairs; data: its `_Binders`
_PAIR = 11  # a `(name sort)` pair, or a let binding before its name; data: its `_Binders`
_COMMAND = 12  # a command whose head has not come
_DEFINE = 13  # a define-fun or define-const before its body; data: (head, slots)
_TOP = 14  # outside every command
_NO_HEAD = (_PAIR_TERM, _BINDERS, _PAIR)  # kinds whose first item is an item, not a head

# What a `(name x)` pair is called in errors: the list, its first item,
# and a name that occurs twice.
_LET_PAIRS = ("let binding", "a let-bound name", "let binding")
_BINDER_PAIRS = ("binder", "a bound variable", "bound variable")
_PARAM_PAIRS = ("parameter list", "a parameter name", "parameter")


class _Binders(NamedTuple):
    words: tuple[str, str, str]  # one of the three above
    pos: int  # of the list's "("
    pairs: dict  # each name read so far -> its term or sort


class _ScriptBuilder:
    def __init__(self, text: str, line_starts: list[int]) -> None:
        self.line_starts = line_starts  # of the text, for `_loc`
        self.tokens, self.starts = _scan(text)
        self.logic: str | None = None
        self.numeral = numeral_sort(None)  # the sort of a numeral under `logic`
        self.metadata: list[tuple[str, str]] = []
        # Each name in scope -> what it means here: its FunDecl, its
        # define-fun, or the term of its innermost let, quantifier or
        # parameter binding; `true` and `false` start bound to their
        # literals.  A binder shadows an entry in place and restores it,
        # so the FunDecls keep declaration order.
        literals = {"true": Const(True, _BOOL), "false": Const(False, _BOOL)}
        self.scope: dict[str, FunDecl | _Defined | Term] = literals
        self.defining = False  # building a define-fun body with parameters
        self.assertions: list[Term] = []
        self.unsupported: list[Unsupported] = []
        self.check_sat = False
        self.exit_cmd = False
        # One leaf object per script: each declared name -> its one `Var`,
        # each (literal text, whether it is an Int) -> its one `Const`, and
        # each (value, whether it is an Int) of a negated literal `(- c)` ->
        # its one `Const`.  Binders are not here: each is a `Var` of its
        # own, compared by identity.
        self.leaves: dict[str | tuple[str | Fraction, bool], Var | Const] = {}

    def run(self) -> Script:
        self._build()
        return Script(
            logic=self.logic,
            metadata=tuple(self.metadata),
            decls=tuple(m for m in self.scope.values() if type(m) is FunDecl),
            assertions=tuple(self.assertions),
            unsupported=tuple(self.unsupported),
            check_sat=self.check_sat,
            exit_cmd=self.exit_cmd,
        )

    # -- the loop ----------------------------------------------------------

    def _build(self) -> None:
        """Build every command in one pass over the tokens.

        The open list is a frame of five locals: its kind, its data, the
        offset of its head, the offset of its `(`, and `args`, its items
        after the head so far; the frames that enclose it wait on `stack`.
        A term is built when its `)` arrives and appended to the `args` of
        the frame below.  A call of a define-fun replays the body's tokens
        (`sources` keeps the iterators it interrupts)."""

        scope, leaves = self.scope, self.leaves
        stack: list[tuple] = []
        sources: list = []
        kind, data, head, start, args = _TOP, None, 0, 0, []
        it = zip(self.tokens, self.starts)
        pos = 0
        while True:
            try:
                for token, pos in it:
                    c = token[0]
                    if c in _BLANK:
                        continue
                    if c == "(":
                        if kind < _SPECIAL:
                            stack.append((kind, data, head, start, args))
                            kind, data, start, args = _HEAD, None, pos, []
                        else:
                            inner = self._open(kind, data, head, start, args, pos)
                            stack.append((kind, data, head, start, args))
                            (kind, data), start, args = inner, pos, []
                    elif c == ")":
                        if kind == _APPLY:
                            term = self._application(data, head, start, args)
                        elif kind == _CALL:
                            term = self._call(data, head, start, args)
                            if term is None:  # replay the body in this frame
                                kind, data, args = _REPLAY, self._expand(data[1], args), []
                                sources.append(it)
                                it = iter(data[0].body)
                                break
                        elif kind < _SLOTS:
                            term = self._close_term(kind, data, head, start, args)
                        else:
                            if kind == _TOP:
                                raise ParseError("unmatched ')'", pos)
                            value = self._close(kind, data, head, start, args, pos)
                            kind, data, head, start, args = stack.pop()
                            if value is not None:  # a binding list, to its let, quantifier or define-fun
                                kind, data = self._bound(kind, data, head, start, args, value)
                            continue
                        kind, data, head, start, args = stack.pop()
                        args.append(term)
                    elif kind < _SPECIAL:  # an atom in term position
                        if c in _NOT_SIMPLE:
                            term = self._literal(token, pos) if c in _DIGITS else self._leaf(token, pos)
                        else:
                            term = scope.get(token)
                            if type(term) is FunDecl and not term.params:
                                term = leaves[token]
                            elif term is None or type(term) is FunDecl or type(term) is _Defined:
                                term = self._leaf(token, pos)
                        args.append(term)
                    elif kind == _HEAD:
                        head = pos
                        op = None if c in _NOT_SYMBOL else token[1:-1] if c == "|" else token
                        if op in _SORT_RULE_OPS:
                            kind, data = _APPLY, op
                        else:
                            kind, data = self._head(op, token, pos)
                    elif kind == _COMMAND:
                        head = pos
                        kind, data = self._command(token, start)
                        if kind == _TOP:  # read and run already: go on after its `)`
                            end, n = data
                            next(islice(it, n, n), None)
                            kind, data, head, start, args = stack.pop()
                            if self.exit_cmd:
                                break
                    else:
                        kind, data = self._item(kind, data, head, start, args, token, pos)
                else:
                    if not sources:
                        break
                    it = sources.pop()
                if self.exit_cmd:
                    break
            except _Unsupported:  # in a define-fun's sorts: kept verbatim
                frames = [f for f in (*stack, (kind, data, head, start, args)) if f[0] != _TOP]
                (form,), end = self._read(bisect_left(self.starts, frames[0][3]), one=True)
                try:
                    self._check_lists(frames, form)
                except ScriptError as exc:
                    self._refuse(exc, frames, pos)
                self.unsupported.append(Unsupported(render_sexpr(form)))
                n = end - bisect_left(self.starts, pos) - 1  # the tokens up to its `)`
                next(islice(it, n, n), None)
                kind, data, head, start, args = stack[0]
                stack.clear()
            except ScriptError as exc:
                self._refuse(exc, [*stack, (kind, data, head, start, args)], pos)
        if self.exit_cmd:  # what follows is read for its brackets only
            self._read(end)
        elif kind != _TOP:
            raise ParseError("unbalanced '(': input ended inside a list", start)

    # -- the error path ----------------------------------------------------

    def _read(self, i: int, one: bool = False) -> tuple[list, int]:
        """The s-expressions from token `i` on, and the index of the token
        after them; with `one`, only the first.  Raises the first bracket
        error after token `i`.  The commands that hold no term are read
        here, and so is the command that the builder refused, to see which
        error comes first (`_refuse`)."""

        tokens, starts = self.tokens, self.starts
        forms: list = []
        items, at = forms, []
        stack: list[tuple[list, list, int]] = []  # (enclosing items, their offsets, offset of the open list)
        for j in range(i, len(tokens)):
            token, pos = tokens[j], starts[j]
            c = token[0]
            if c == "(":
                stack.append((items, at, pos))
                items, at = [], []
                continue
            if c == ")":
                if not stack:
                    raise ParseError("unmatched ')'", pos)
                outer, outer_at, start = stack.pop()
                outer.append(SList(tuple(items), start, tuple(at)))
                outer_at.append(start)
                items, at = outer, outer_at
            elif c in _BLANK:
                continue
            else:
                items.append(token)
                at.append(pos)
            if one and not stack:
                return forms, j + 1
        if stack:
            raise ParseError("unbalanced '(': input ended inside a list", stack[-1][2])
        return forms, len(tokens)

    def _item_pos(self, start: int, k: int) -> int:
        """Where item `k` (0 is the head) of the list at offset `start` starts."""

        (sx,), _ = self._read(bisect_left(self.starts, start), one=True)
        return sx.at[k]

    def _check_lists(self, frames: list[tuple], sx: SList) -> None:
        """Raise the shape error of the outermost of `frames` (open lists,
        each inside the one before, the first `sx`) that has one."""

        for kind, data, head, start, _ in frames:
            if kind == _REPLAY:  # the frames after it are in a define-fun's body
                return
            if sx.pos != start:
                sx = next(x for x in sx.items if type(x) is SList and x.pos == start)
            self._check_shape(kind, data, head, start, len(sx.items) - (kind not in _NO_HEAD))

    def _refuse(self, exc: ScriptError, frames: list[tuple], pos: int) -> NoReturn:
        """Raise the error that a script refused with `exc` reports.

        The builder learns a list's number of items at its `)`, but that is
        checked before anything inside the list, and a bracket error
        anywhere in the text before everything.  So the text is read on
        from the command that `frames`, the lists open at the error, belong
        to (or from `pos`, if none is open), and the first of a bracket
        error, the shape error of the outermost open list that has one,
        and `exc`, is raised."""

        frames = [f for f in frames if f[0] != _TOP]
        forms, _ = self._read(bisect_left(self.starts, frames[0][3] if frames else pos))
        if frames:
            self._check_lists(frames, forms[0])
        raise exc

    def _check_shape(self, kind: int, data, head: int, start: int, n: int) -> None:
        """Raise the error of a list of kind `kind` that has `n` items
        after its head: the check made before any item of it is built."""

        if kind == _APPLY:
            why = arity_error(data, n)
            if why is not None:
                raise ParseError(why, head)
        elif kind == _CALL:
            name, meaning = data
            if n != len(meaning.params):
                raise SortError(f"'{name}' expects {len(meaning.params)} arguments, got {n}", head)
        elif kind == _LET or kind == _QUANT or kind == _BINDS:
            word = data if kind == _BINDS else "let" if kind == _LET else data[0]
            if n != 2:
                raise ParseError(f"malformed {word}", head)
        elif kind == _PAIR or kind == _PAIR_TERM:
            if n != 2:
                raise ParseError(f"malformed {data.words[0]}", data.pos)
        elif kind == _ASSERT:
            if n != 1:
                raise ParseError("assert takes one term", start)
        elif kind == _DEFINE or kind == _DEFINE_BODY:
            if n != len(data[1]) + 1:
                raise ParseError(f"malformed {data[0]}", start)

    def _malformed(self, kind: int, data, head: int, start: int) -> NoReturn:
        """Raise the shape error of a list that holds an item where no list
        of its kind can: one of -1 items."""

        self._check_shape(kind, data, head, start, -1)
        raise AssertionError(f"no shape error for a list of kind {kind}")

    # -- lists whose items are not terms -----------------------------------

    def _open(self, kind: int, data, head: int, start: int, args: list, pos: int) -> tuple[int, object]:
        """The kind and data of a list that opens at `pos` in a frame whose
        items are not terms."""

        if kind == _TOP:
            return _COMMAND, None
        if kind == _BINDS:
            return _BINDERS, _Binders(_LET_PAIRS if data == "let" else _BINDER_PAIRS, pos, {})
        if kind == _BINDERS:
            return _PAIR, data
        if kind == _PAIR:
            if not args:
                raise ParseError(f"expected {data.words[1]}", pos)
            if len(args) == 1:  # a list where a sort goes
                if data.words is _BINDER_PAIRS:
                    raise ParseError("unsupported sort in binder", pos)
                raise _Unsupported()
            self._malformed(kind, data, head, start)
        if kind == _DEFINE:
            slot = data[1][len(args)]
            if slot == "name":
                self._register(None, pos, "a function name")
            if slot == "params":
                return _BINDERS, _Binders(_PARAM_PAIRS, pos, {})
            raise _Unsupported()  # a list where the result sort goes
        if kind == _HEAD:
            raise ParseError("unsupported construct in term position", pos)
        raise ParseError("command must start with a symbol", start)  # _COMMAND

    def _item(self, kind: int, data, head: int, start: int, args: list, token: str, pos: int) -> tuple[int, object]:
        """Take atom `token` at `pos` as the next item of a frame whose
        items are not terms; returns the frame's kind and data after it."""

        if kind == _PAIR:
            if not args:
                name = _name(token)
                if name is None:
                    raise ParseError(f"expected {data.words[1]}", pos)
                if name in data.pairs:
                    raise ParseError(f"duplicate {data.words[2]} '{name}'", pos)
                args.append(name)
                return (_PAIR_TERM if data.words is _LET_PAIRS else _PAIR), data
            if len(args) == 1:
                sort = _SORTS.get(_name(token))
                if sort is None:
                    if data.words is _BINDER_PAIRS:
                        raise ParseError("unsupported sort in binder", pos)
                    raise _Unsupported()
                args.append(sort)
                return kind, data
            self._malformed(kind, data, head, start)
        if kind == _DEFINE:
            return self._definition_item(data, start, args, token, pos)
        if kind == _BINDERS:
            raise ParseError(f"malformed {data.words[0]}", data.pos)
        if kind == _BINDS:  # not a list
            self._malformed(kind, data, head, start)
        raise ParseError("expected a command", pos)  # _TOP

    def _close(self, kind: int, data, head: int, start: int, args: list, pos: int) -> _Binders | None:
        """Check and finish a list whose items are terms but which is no
        term, or one whose items are not terms; a binding list is returned
        to the frame below."""

        if kind == _BINDERS:
            return data
        if kind == _HEAD:
            raise ParseError("empty application", start)
        if kind == _COMMAND:
            raise ParseError("command must start with a symbol", start)
        self._check_shape(kind, data, head, start, len(args))
        if kind == _PAIR or kind == _PAIR_TERM:
            data.pairs[args[0]] = args[1]
        elif kind == _ASSERT:
            term = args[0]
            if term.sort is not _BOOL:
                raise SortError(f"assertion must be Bool, got {term.sort}", self._item_pos(start, 1))
            self.assertions.append(term)
        else:  # _DEFINE_BODY: _BINDS and _DEFINE failed their shape check
            self._define(data, args, pos)
        return None

    def _bound(self, kind: int, data, head: int, start: int, args: list, binders: _Binders) -> tuple[int, object]:
        """Give a closed binding list to the frame it is in; returns that
        frame's kind and data after it."""

        args.append(binders)
        if kind == _DEFINE:  # its parameters
            return kind, data
        if data == "let":
            return _LET, self._bind(binders.pairs)
        if not binders.pairs:
            self._malformed(kind, data, head, start)
        bound = {name: Var(name, sort) for name, sort in binders.pairs.items()}
        return _QUANT, (data, bound, self._bind(bound))

    # -- commands ----------------------------------------------------------

    def _command(self, token: str, start: int) -> tuple[int, object]:
        """Take the head of the command at offset `start`.  A command that
        holds a term is built by the loop; any other is read and run, and
        returned as kind _TOP with the index of the token after it and the
        number of tokens after its head up to its `)`."""

        name = _name(token)
        if name is None:
            raise ParseError("command must start with a symbol", start)
        if name == "assert":
            return _ASSERT, None
        if name == "define-fun":
            return _DEFINE, (token, ("name", "params", "sort"))
        if name == "define-const":
            return _DEFINE, (token, ("name", "sort"))
        i = bisect_left(self.starts, start)
        (form,), end = self._read(i, one=True)
        head = i + 1
        while self.tokens[head][0] in _BLANK:
            head += 1
        handler = self._COMMANDS.get(name)
        try:
            if handler is None:
                raise _Unsupported()
            handler(self, form, form.items[1:])
        except _Unsupported:  # kept verbatim
            self.unsupported.append(Unsupported(render_sexpr(form)))
        return _TOP, (end, end - head - 1)

    def _register(self, name: str | None, pos: int, what: str) -> str:
        """`name`, which a command declares or defines, checked."""

        if name is None:
            raise ParseError(f"expected {what}", pos)
        if name in _RESERVED:
            raise ParseError(f"cannot redefine builtin symbol '{name}'", pos)
        if name in self.scope:
            raise ParseError(f"symbol '{name}' is already declared", pos)
        return name

    def _cmd_set_logic(self, form: SList, args) -> None:
        if len(args) != 1:
            raise ParseError("set-logic takes one symbol", form.pos)
        name = _name(args[0])
        if name is None:
            raise ParseError("expected a logic name", form.at[1])
        if self.logic is not None:
            raise ParseError("logic is already set", form.pos)
        self._enter_logic(name)

    def _enter_logic(self, logic: str | None) -> str | None:
        """Read numerals by `logic` from here on; returns the logic before."""

        before, self.logic = self.logic, logic
        self.numeral = numeral_sort(logic)
        return before

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
        name = self._register(_name(args[0]), form.at[1], "a function name")
        self._declare(name, args[1].items, args[2])

    def _cmd_declare_const(self, form: SList, args) -> None:
        if len(args) != 2:
            raise ParseError("malformed declare-const", form.pos)
        self._declare(self._register(_name(args[0]), form.at[1], "a constant name"), (), args[1])

    def _declare(self, name: str, params, result) -> None:
        sorts = tuple(_parse_sort(p) for p in params)
        decl = self.scope[name] = FunDecl(name, sorts, _parse_sort(result))
        if not sorts:
            self.leaves[name] = Var(name, decl.result)

    def _cmd_check_sat(self, form: SList, args) -> None:
        if args:
            raise ParseError("check-sat takes no arguments", form.pos)
        self.check_sat = True

    def _cmd_exit(self, form: SList, args) -> None:
        if args:
            raise ParseError("exit takes no arguments", form.pos)
        self.exit_cmd = True

    # The commands read and run whole; any other name is kept verbatim.
    _COMMANDS = {
        "set-logic": _cmd_set_logic,
        "set-info": _cmd_set_info,
        "declare-fun": _cmd_declare_fun,
        "declare-const": _cmd_declare_const,
        "check-sat": _cmd_check_sat,
        "exit": _cmd_exit,
    }

    # -- define-fun and define-const ---------------------------------------

    def _definition_item(self, data: tuple, start: int, args: list, token: str, pos: int) -> tuple[int, object]:
        """Take atom `token` as the next item of a definition before its
        body.  After the result sort comes the body, built with the
        parameters bound.  With parameters, a call in it is left unexpanded
        (`_call`): the body is built again at each call of it."""

        slot = data[1][len(args)]
        if slot == "name":
            args.append(self._register(_name(token), pos, "a function name"))
            return _DEFINE, data
        if slot == "params":  # not a list
            self._malformed(_DEFINE, data, 0, start)
        args.append(_parse_sort(token))
        params = args[1].pairs if len(args) == 3 else {}
        shadowed = self._bind({p: Var(p, sort) for p, sort in params.items()})
        self.defining = bool(params)
        return _DEFINE_BODY, (*data, shadowed, pos + len(token))

    def _define(self, data: tuple, args: list, end: int) -> None:
        """Finish a definition whose `)` is at offset `end`."""

        command, slots, shadowed, body_at = data
        self.defining = False
        self._unbind(shadowed)
        name, result, body = args[0], args[-2], args[-1]
        params = args[1].pairs if len(slots) == 3 else {}
        i, j = bisect_left(self.starts, body_at), bisect_left(self.starts, end)
        tokens = [(t, p) for t, p in zip(self.tokens[i:j], self.starts[i:j]) if t[0] not in _BLANK]
        if body.sort is not result:
            raise SortError(f"{command} body has sort {body.sort}, declared {result}", tokens[0][1])
        names = {_name(t) for t, _ in tokens if t[0] not in "()"}
        env = {s: self.scope[s] for s in names if s in self.scope}
        if params:
            body = (*tokens, (")", end))
        self.scope[name] = _Defined(tuple(params), tuple(params.values()), result, body, env, self.logic, {})

    # -- terms -------------------------------------------------------------

    def _head(self, op: str | None, token: str, pos: int) -> tuple[int, object]:
        """The kind and data of a term whose head, `token` at `pos`, is no
        builtin operator."""

        if op is None:
            raise ParseError("cannot apply {} '{}'".format(*_kind_and_text(token)), pos)
        if op in ("let", "forall", "exists"):
            return _BINDS, op
        meaning = self.scope.get(op)
        if type(meaning) is FunDecl or type(meaning) is _Defined:
            if not meaning.params:  # an application has an argument (SMT-LIB 2.6 §3.6)
                raise ParseError(f"'{op}' is a constant, not a function", pos)
            return _CALL, (op, meaning)
        if op in _KNOWN_UNSUPPORTED_OPS:
            raise ParseError(f"unsupported operator '{op}'", pos)
        raise UndeclaredSymbolError(f"undeclared function symbol '{op}'", pos)

    def _literal(self, token: str, pos: int) -> Const:
        sort = _REAL if "." in token else self.numeral
        leaf = self.leaves.get((token, sort is _INT))
        if leaf is None:
            whole, _, frac = token.partition(".")
            try:  # `int` refuses more digits than `sys.get_int_max_str_digits()`
                value = Fraction(int(whole + frac), 10 ** len(frac))
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"literal has more than {limit} digits", pos) from None
            leaf = self.leaves[token, sort is _INT] = Const(value, sort)
        return leaf

    def _leaf(self, token: str, pos: int) -> Term:
        """The term of atom `token` at `pos`, where the loop's lookup of a
        simple symbol does not settle it."""

        if token[0] in _DIGITS:
            return self._literal(token, pos)
        name = _name(token)
        if name is None:
            raise ParseError("unexpected {} in term position".format(_kind_and_text(token)[0]), pos)
        meaning = self.scope.get(name)
        if meaning is None:
            raise UndeclaredSymbolError(f"undeclared symbol '{name}'", pos)
        if type(meaning) is not FunDecl and type(meaning) is not _Defined:  # a bound name
            return meaning
        if meaning.params:
            raise SortError(f"'{name}' expects {len(meaning.params)} arguments", pos)
        return self.leaves[name] if type(meaning) is FunDecl else meaning.body

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

    def _application(self, op: str, head: int, start: int, args: list) -> Term:
        try:
            sort = result_sort(op, args)
        except SortError as exc:  # a wrong number of arguments, or located at the argument to blame
            self._check_shape(_APPLY, op, head, start, len(args))
            at = head if exc.arg is None else self._item_pos(start, exc.arg + 1)
            raise SortError(exc.args[0], at) from None
        if op == "ite":
            return Ite(*args, sort)
        if op == "/":
            if sort is _INT and self.numeral is not _INT:
                raise SortError("'/' on Int arguments outside an integer logic", head)
            loc = _loc(self.line_starts, head)
            term = args[0]
            for arg in args[1:]:  # n-ary division associates to the left
                term = Div(term, arg, sort, loc)
            return term
        if op == "-" and len(args) == 1 and isinstance(args[0], Const):
            key = (-args[0].value, sort is _INT)
            leaf = self.leaves.get(key)
            if leaf is None:
                leaf = self.leaves[key] = neg_literal(args[0])
            return leaf
        return Apply(op, tuple(args), sort)

    def _call(self, data: tuple, head: int, start: int, args: list) -> Term | None:
        """An application of a declared or a defined function; None where a
        defined one is to be expanded.  It is expanded like a `let` of its
        parameters, once per tuple of argument objects, but not while a
        function with parameters is defined."""

        name, meaning = data
        self._check_shape(_CALL, data, head, start, len(args))
        declared = type(meaning) is FunDecl
        for i, (arg, sort) in enumerate(zip(args, meaning.params)):
            if arg.sort is not sort:
                which = i + 1 if declared else f"'{meaning.names[i]}'"
                raise SortError(
                    f"argument {which} of '{name}' must be {sort}, got {arg.sort}", self._item_pos(start, i + 1)
                )
        if declared or self.defining:
            return Apply(name, tuple(args), meaning.result)
        done = meaning.calls.get(tuple(map(id, args)))
        return None if done is None else done[1]

    def _expand(self, meaning: _Defined, args: list) -> tuple:
        """Bind a call's parameters to `args` and the body's other symbols
        to what they meant at the definition, and enter its logic; returns
        the data of the frame that replays the body."""

        args = tuple(args)
        shadowed = self._bind(meaning.env | dict(zip(meaning.names, args)))
        return meaning, args, shadowed, self._enter_logic(meaning.logic)

    def _close_term(self, kind: int, data, head: int, start: int, args: list) -> Term:
        """The term of a `let`, quantifier or replayed body, at its `)`."""

        if kind == _REPLAY:
            meaning, call_args, shadowed, logic = data
            self._enter_logic(logic)
            self._unbind(shadowed)
            meaning.calls[tuple(map(id, call_args))] = (call_args, args[0])
            return args[0]
        self._check_shape(kind, data, head, start, len(args))
        if kind == _LET:
            self._unbind(data)
            return args[1]
        word, binders, shadowed = data
        self._unbind(shadowed)
        body = args[1]
        if body.sort is not _BOOL:
            raise SortError(f"{word} body must be Bool, got {body.sort}", self._item_pos(start, 2))
        q = Quantifier(word, tuple((n, v.sort) for n, v in binders.items()), body)
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

    One pass over the tokens builds every command; an error carries the
    offset of its token, which becomes a line and column here.  A lexical
    error comes before any other, and a bracket error before any sort or
    scope error.
    """

    line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    try:
        return _ScriptBuilder(text, line_starts).run()
    except ScriptError as exc:  # located at an offset until here
        exc.loc = _loc(line_starts, exc.loc)
        raise
