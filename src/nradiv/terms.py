"""Sorted term AST for the supported SMT-LIB2 subset.

Terms are immutable and hashable.  Structural equality ignores source
locations, so a parsed term compares equal to the same term rebuilt
programmatically or re-parsed from printed output.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SortError


class Sort(Enum):
    REAL = "Real"
    INT = "Int"
    BOOL = "Bool"

    def __str__(self) -> str:
        return self.value


NUMERIC_SORTS = frozenset({Sort.REAL, Sort.INT})

ARITH_OPS = frozenset({"+", "-", "*"})
COMPARISON_OPS = frozenset({"<", "<=", ">", ">="})
EQUALITY_OPS = frozenset({"=", "distinct"})
CONNECTIVE_OPS = frozenset({"not", "and", "or", "=>"})
BUILTIN_OPS = ARITH_OPS | COMPARISON_OPS | EQUALITY_OPS | CONNECTIVE_OPS


class OpMeaning(NamedTuple):
    """What a builtin operator computes, in terms of one Python operator.

    `args` is what every argument must be ("num", "bool" or "any") and
    `result` what the application yields ("num" or "bool").  `infix`
    combines the arguments according to `shape`:

    - fold: left to right, `a0 + a1 + a2`;
    - chain: each neighbouring pair, `a0 < a1 < a2`;
    - pairwise: every pair, `a0 != a1 and a0 != a2 and a1 != a2`;
    - implies: right-associative implication, `not a0 or not a1 or a2`.

    With exactly one argument, `prefix` (when set) applies instead; an
    operator with no `infix` takes exactly one argument.
    """

    args: str
    result: str
    shape: str
    infix: str | None
    prefix: str | None = None

    def takes(self, n_args: int) -> bool:
        """Whether an application to `n_args` arguments has a meaning."""

        return n_args >= 1 and (self.infix is not None or n_args == 1)


OPS: dict[str, OpMeaning] = {
    "+": OpMeaning("num", "num", "fold", "+"),
    "-": OpMeaning("num", "num", "fold", "-", prefix="-"),
    "*": OpMeaning("num", "num", "fold", "*"),
    "<": OpMeaning("num", "bool", "chain", "<"),
    "<=": OpMeaning("num", "bool", "chain", "<="),
    ">": OpMeaning("num", "bool", "chain", ">"),
    ">=": OpMeaning("num", "bool", "chain", ">="),
    "=": OpMeaning("any", "bool", "chain", "=="),
    "distinct": OpMeaning("any", "bool", "pairwise", "!="),
    "not": OpMeaning("bool", "bool", "fold", None, prefix="not"),
    "and": OpMeaning("bool", "bool", "fold", "and"),
    "or": OpMeaning("bool", "bool", "fold", "or"),
    "=>": OpMeaning("bool", "bool", "implies", "or"),
}

_INFIX: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}
_PREFIX: dict[str, Callable] = {"-": operator.neg, "not": operator.not_}


def apply_op(op: str, values: Sequence) -> object:
    """Value of builtin `op` applied to argument values, per `OPS`.

    Arguments are not checked against `OPS[op].args`; callers do that
    in whatever way suits them.
    """

    m = OPS[op]
    if len(values) == 1 and m.prefix is not None:
        return _PREFIX[m.prefix](values[0])
    f = _INFIX[m.infix]
    if m.shape == "fold":
        return reduce(f, values)
    if m.shape == "chain":
        return all(f(a, b) for a, b in zip(values, values[1:]))
    if m.shape == "pairwise":
        return all(f(a, b) for a, b in combinations(values, 2))
    return reduce(f, [not v for v in values[:-1]] + [values[-1]])  # implies


def op_source(op: str, args: Sequence[str]) -> str:
    """Python expression for builtin `op` over argument expressions, per `OPS`.

    Mirrors `apply_op`: evaluating the result with each name bound to a
    value gives what `apply_op` gives on those values.
    """

    m = OPS[op]
    if len(args) == 1 and m.prefix is not None:
        return f"({m.prefix} {args[0]})"
    if m.shape == "fold":
        return "(" + f" {m.infix} ".join(args) + ")"
    if m.shape == "chain":
        return "(" + f" {m.infix} ".join(args) + ")" if len(args) > 1 else "True"
    if m.shape == "pairwise":
        pairs = [f"{a} {m.infix} {b}" for a, b in combinations(args, 2)]
        return "(" + " and ".join(pairs) + ")" if pairs else "True"
    return "(" + " or ".join([f"not {a}" for a in args[:-1]] + [args[-1]]) + ")"


class Loc(NamedTuple):
    """1-based source position."""

    line: int
    col: int


NO_LOC = Loc(0, 0)


class Term:
    """Base class of all term nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    """Literal: an exact rational (Real or Int sort) or a Boolean."""

    value: Fraction | bool
    sort: Sort
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Var(Term):
    """Occurrence of a declared constant or a bound variable."""

    name: str
    sort: Sort
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Apply(Term):
    """Application of a builtin operator or a declared function symbol."""

    op: str
    args: tuple[Term, ...]
    sort: Sort
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Div(Term):
    """Division `(/ num den)`; its value at a zero divisor is uninterpreted."""

    num: Term
    den: Term
    sort: Sort = Sort.REAL
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    orelse: Term
    loc: Loc = field(default=NO_LOC, compare=False)

    @property
    def sort(self) -> Sort:
        return self.then.sort


@dataclass(frozen=True)
class Quantifier(Term):
    kind: str  # "forall" or "exists"
    bound: tuple[tuple[str, Sort], ...]
    body: Term
    loc: Loc = field(default=NO_LOC, compare=False)

    @property
    def sort(self) -> Sort:
        return Sort.BOOL


def sort_of(term: Term) -> Sort:
    return term.sort


# ---------------------------------------------------------------------------
# Construction helpers.  These compute result sorts and reject ill-sorted
# combinations, so terms built in code satisfy the same invariants as
# parsed ones.


def const(value: Fraction | int | bool, sort: Sort = Sort.REAL, loc: Loc = NO_LOC) -> Const:
    if isinstance(value, bool):
        return Const(value, Sort.BOOL, loc)
    if sort not in NUMERIC_SORTS:
        raise SortError(f"numeric literal cannot have sort {sort}")
    return Const(Fraction(value), sort, loc)


def var(name: str, sort: Sort = Sort.REAL, loc: Loc = NO_LOC) -> Var:
    return Var(name, sort, loc)


def _common_numeric_sort(op: str, args: tuple[Term, ...]) -> Sort:
    sorts = {a.sort for a in args}
    if len(sorts) != 1 or not sorts <= NUMERIC_SORTS:
        raise SortError(f"'{op}' needs arguments of one numeric sort, got {sorted(s.value for s in sorts)}")
    return args[0].sort


def neg_literal(c: Const) -> Const:
    """Negate a numeric literal in place of building `(- c)`."""

    if isinstance(c.value, bool):
        raise SortError("'-' applied to a Boolean literal")
    return Const(-c.value, c.sort, c.loc)


def add(*args: Term) -> Apply:
    return Apply("+", tuple(args), _common_numeric_sort("+", tuple(args)))


def sub(*args: Term) -> Term:
    """n-ary subtraction; unary minus of a literal folds to the literal."""

    if len(args) == 1 and isinstance(args[0], Const):
        return neg_literal(args[0])
    return Apply("-", tuple(args), _common_numeric_sort("-", tuple(args)))


def mul(*args: Term) -> Apply:
    return Apply("*", tuple(args), _common_numeric_sort("*", tuple(args)))


def div(num: Term, den: Term) -> Div:
    return Div(num, den, _common_numeric_sort("/", (num, den)))


def _comparison(op: str, a: Term, b: Term) -> Apply:
    _common_numeric_sort(op, (a, b))
    return Apply(op, (a, b), Sort.BOOL)


def lt(a: Term, b: Term) -> Apply:
    return _comparison("<", a, b)


def le(a: Term, b: Term) -> Apply:
    return _comparison("<=", a, b)


def eq(a: Term, b: Term) -> Apply:
    if a.sort is not b.sort:
        raise SortError(f"'=' needs arguments of one sort, got {a.sort} and {b.sort}")
    return Apply("=", (a, b), Sort.BOOL)


def _check_bool(op: str, args: Iterable[Term]) -> None:
    for a in args:
        if a.sort is not Sort.BOOL:
            raise SortError(f"'{op}' needs Boolean arguments, got {a.sort}")


def neg(a: Term) -> Apply:
    _check_bool("not", (a,))
    return Apply("not", (a,), Sort.BOOL)


def conj(*args: Term) -> Term:
    _check_bool("and", args)
    if len(args) == 1:
        return args[0]
    return Apply("and", tuple(args), Sort.BOOL)


def implies(a: Term, b: Term) -> Apply:
    _check_bool("=>", (a, b))
    return Apply("=>", (a, b), Sort.BOOL)


def ite(cond: Term, then: Term, orelse: Term) -> Ite:
    if cond.sort is not Sort.BOOL:
        raise SortError("'ite' condition must be Boolean")
    if then.sort is not orelse.sort:
        raise SortError(f"'ite' branches disagree: {then.sort} vs {orelse.sort}")
    return Ite(cond, then, orelse)


def forall(bound: Iterable[tuple[str, Sort]], body: Term) -> Quantifier:
    _check_bool("forall", (body,))
    return Quantifier("forall", tuple(bound), body)


# ---------------------------------------------------------------------------
# Traversal.


def children(term: Term) -> tuple[Term, ...]:
    match term:
        case Const() | Var():
            return ()
        case Apply(_, args, _):
            return args
        case Div(num, den):
            return (num, den)
        case Ite(cond, then, orelse):
            return (cond, then, orelse)
        case Quantifier(_, _, body):
            return (body,)
    raise TypeError(f"not a term: {term!r}")


def map_children(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Rebuild a node with `fn` applied to each child.

    Sorts are carried over unchanged, so `fn` must be sort-preserving.
    """

    match term:
        case Const() | Var():
            return term
        case Apply(_, args, _):
            return dataclasses.replace(term, args=tuple(fn(a) for a in args))
        case Div(num, den):
            return dataclasses.replace(term, num=fn(num), den=fn(den))
        case Ite(cond, then, orelse):
            return dataclasses.replace(term, cond=fn(cond), then=fn(then), orelse=fn(orelse))
        case Quantifier(_, _, body):
            return dataclasses.replace(term, body=fn(body))
    raise TypeError(f"not a term: {term!r}")


def subterms(term: Term) -> Iterator[Term]:
    """Pre-order traversal, the node itself first."""

    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def count_nodes(term: Term) -> int:
    return sum(1 for _ in subterms(term))


def free_vars(term: Term) -> frozenset[str]:
    """Names occurring free in `term`; iterative, each shared node visited once."""

    memo: dict[int, frozenset[str]] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = children(node)
        pending = [c for c in kids if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Var):
            out = frozenset({node.name})
        else:
            out = frozenset().union(*(memo[id(c)] for c in kids))
            if isinstance(node, Quantifier):
                out -= {name for name, _ in node.bound}
        memo[id(node)] = out
    return memo[id(term)]


def substitute(term: Term, mapping: dict[str, Term]) -> Term:
    """Capture-aware substitution of free variable occurrences."""

    if not mapping:
        return term
    match term:
        case Var(name, _) if name in mapping:
            return mapping[name]
        case Quantifier(_, bound, _):
            visible = {k: v for k, v in mapping.items() if k not in {n for n, _ in bound}}
            return map_children(term, lambda c: substitute(c, visible))
        case _:
            return map_children(term, lambda c: substitute(c, mapping))


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Scripts.


@dataclass(frozen=True)
class FunDecl:
    """`(declare-fun name (params) result)`; nullary decls are constants."""

    name: str
    params: tuple[Sort, ...]
    result: Sort
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Unsupported:
    """A command outside the subset, preserved verbatim for re-emission."""

    text: str
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Script:
    logic: str | None = None
    metadata: tuple[tuple[str, str], ...] = ()  # (keyword, rendered value)
    decls: tuple[FunDecl, ...] = ()
    assertions: tuple[Term, ...] = ()
    unsupported: tuple[Unsupported, ...] = ()
    check_sat: bool = False
    exit_cmd: bool = False

    def decl_map(self) -> dict[str, FunDecl]:
        return {d.name: d for d in self.decls}


def term_at(script: Script, path: tuple[int, ...]) -> Term:
    """Resolve an occurrence path: assertion index, then child indices."""

    t = script.assertions[path[0]]
    for i in path[1:]:
        t = children(t)[i]
    return t


def is_quantifier_free(term: Term) -> bool:
    return not any(isinstance(t, Quantifier) for t in subterms(term))
