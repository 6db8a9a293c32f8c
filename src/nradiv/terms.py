"""Sorted term AST for the supported SMT-LIB2 subset.

Terms are immutable and hashable.  Only a division keeps its source
location, the one a term shows (`classify` reports it), and structural
equality ignores it, so a parsed term compares equal to the same term
rebuilt programmatically or re-parsed from printed output.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SortError, value_too_long


class Sort(Enum):
    REAL = "Real"
    INT = "Int"
    BOOL = "Bool"

    def __str__(self) -> str:
        return self.value


class OpMeaning(NamedTuple):
    """What a builtin operator computes, in terms of one Python operator.

    `args` is what every argument must be ("num", "bool" or "any") and
    `result` what the application yields ("num" or "bool").  `infix`
    combines the arguments according to `shape`:

    - fold: left to right, `a0 + a1 + a2`;
    - chain: each neighbouring pair, `a0 < a1 < a2`;
    - pairwise: every pair, `a0 != a1 and a0 != a2 and a1 != a2`;
    - implies: right-associative implication, `not a0 or not a1 or a2`.

    With exactly one argument, `prefix` (when set) applies instead.  How
    many arguments an operator takes is `arity_error`'s to say.
    """

    args: str
    result: str
    shape: str
    infix: str | None
    prefix: str | None = None


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

ARITH_OPS = frozenset(op for op, m in OPS.items() if m.result == "num")

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

    Neither the number of arguments nor their kinds are checked; callers
    do that with `arity_error` and `OPS[op].args`.
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
    if m.shape == "pairwise":
        return "(" + " and ".join(f"{a} {m.infix} {b}" for a, b in combinations(args, 2)) + ")"
    if m.shape == "implies":
        return "(" + " or ".join([f"not {a}" for a in args[:-1]] + [args[-1]]) + ")"
    return "(" + f" {m.infix} ".join(args) + ")"  # a fold, or a Python comparison chain


_power_of_ten = cache((10).__pow__)


def _printable(value: Fraction) -> Fraction:
    """`value`; NradivError when its numerator or denominator has more
    digits than CPython converts to text (`sys.get_int_max_str_digits()`,
    0 for no limit)."""

    limit = sys.get_int_max_str_digits()
    if limit and max(abs(value.numerator), value.denominator) >= _power_of_ten(limit):
        raise value_too_long()
    return value


def fold_node(t: Term) -> Term:
    """One node whose children are already folded, folded over literals.

    A builtin application to literals becomes its value, per `apply_op`,
    when `arity_error` and `OPS[op].args` accept it; a division of
    numeric literals by a nonzero literal becomes its quotient; an `ite`
    with a literal condition becomes the branch it selects.  Any other
    node is returned as it is.  A number folded past the digits CPython
    prints raises NradivError at once, so folding stops at the limit
    rather than growing a value that cannot be shown.
    """

    match t:
        case Apply(op, args, sort) if op in OPS and all(type(a) is Const for a in args):
            m = OPS[op]
            kinds = {"bool" if isinstance(a.value, bool) else "num" for a in args}
            if arity_error(op, len(args)) or not (m.args == "any" or kinds == {m.args}):
                return t
            out = apply_op(op, [a.value for a in args])
            if m.result == "num":
                return Const(_printable(out), sort)
            return Const(out, Sort.BOOL)
        case Div(Const(n, _), Const(d, _), sort) if bool not in (type(n), type(d)) and d != 0:
            return Const(_printable(n / d), sort)
        case Ite(Const(c, _), then, orelse) if isinstance(c, bool):
            return then if c else orelse
        case _:
            return t


class Loc(NamedTuple):
    """1-based source position."""

    line: int
    col: int


NO_LOC = Loc(0, 0)


class Term:
    """Base class of all term nodes.

    `==` is structural and ignores locations (`same_term`), and `hash`
    agrees with it.  Neither recurses: both cost the DAG, not the tree.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        """The dataclass format, `Apply(op='+', args=(...), sort=...)`,
        built on an explicit stack, so depth costs no recursion.  The text
        spells out a shared node once per path: it is as long as the tree."""

        out: list[str] = []
        stack: list = [self]  # terms, and the text between them
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            pieces: list = []
            sep = type(item).__qualname__ + "("
            for f in fields(item):
                value = getattr(item, f.name)
                pieces.append(f"{sep}{f.name}=")
                sep = ", "
                if isinstance(value, Term):
                    pieces.append(value)
                elif type(value) is tuple and all(isinstance(v, Term) for v in value):
                    pieces.append("(")
                    for i, v in enumerate(value):
                        pieces.extend((", ", v) if i else (v,))
                    pieces.append(",)" if len(value) == 1 else ")")
                else:
                    pieces.append(repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return same_term(self, other)

    def __hash__(self) -> int:
        return dag_fold(self, lambda t, below: hash((type(t), *_LABEL[type(t)](t), *below)))


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bad_literal(value: object, sort: Sort) -> SortError:
    kind = "bool" if sort is Sort.BOOL else "Fraction"
    return SortError(f"{sort} literal must be a {kind}, not {type(value).__name__}")


def _direct_init(cls: type) -> type:
    """Give a frozen, slotted dataclass an `__init__` with the same
    signature that stores each field through its slot descriptor.

    The generated `__init__` of a frozen dataclass stores every field
    through `object.__setattr__`, which costs about 1.7 times as much.
    Assignment and deletion still raise `FrozenInstanceError`, for every
    name: the dataclass's own frozen methods refer to the class that
    `slots=True` replaced, and raise `TypeError` for a name that is not a
    field.  A class's `_check`, when it has one, is a statement over the
    parameters and the names in `env`, put before the first store.
    """

    env: dict[str, object] = {"Fraction": Fraction, "BOOL": Sort.BOOL, "bad_literal": _bad_literal}
    params, body = [], [f"    {cls._check}\n"] if hasattr(cls, "_check") else []
    for f in fields(cls):
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Const(Term):
    """Literal: exactly a `Fraction` under Real or Int, a `bool` under Bool;
    building one with any other value raises SortError."""

    value: Fraction | bool
    sort: Sort
    _check = "if type(value) is not (bool if sort is BOOL else Fraction): raise bad_literal(value, sort)"


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(Term):
    """Occurrence of a declared constant or a bound variable."""

    name: str
    sort: Sort


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Apply(Term):
    """Application of a builtin operator or a declared function symbol."""

    op: str
    args: tuple[Term, ...]
    sort: Sort


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Div(Term):
    """Division `(/ num den)`; its value at a zero divisor is uninterpreted.

    `loc` is where its `/` stands in the source, for `classify` to report.
    """

    num: Term
    den: Term
    sort: Sort = Sort.REAL
    loc: Loc = NO_LOC


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Ite(Term):
    """`(ite cond then orelse)`; `sort` is its branches' sort, stored, so
    reading it never walks down a chain of `ite`s."""

    cond: Term
    then: Term
    orelse: Term
    sort: Sort


@_direct_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Quantifier(Term):
    kind: str  # "forall" or "exists"
    bound: tuple[tuple[str, Sort], ...]
    body: Term

    @property
    def sort(self) -> Sort:
        return Sort.BOOL


def numeral_sort(logic: str | None) -> Sort:
    """The sort a numeral such as `1` reads as under `logic`: Int in
    integer logics, Real in all others, mixed ones too.  The parser reads
    numerals by it; the printer writes a Real literal so that it reads
    back as Real."""

    return Sort.INT if logic and "IA" in logic and "RA" not in logic else Sort.REAL


# ---------------------------------------------------------------------------
# Construction helpers.  They take result sorts from `result_sort`, the rule
# the parser applies, so terms built in code satisfy the same invariants as
# parsed ones.


def const(value: Fraction | int | bool, sort: Sort = Sort.REAL) -> Const:
    return Const(value, Sort.BOOL) if isinstance(value, bool) else Const(Fraction(value), sort)


def var(name: str, sort: Sort = Sort.REAL) -> Var:
    return Var(name, sort)


def neg_literal(c: Const) -> Const:
    """Negate a numeric literal in place of building `(- c)`; the caller
    has checked the sort with `result_sort`."""

    return Const(-c.value, c.sort)


# Each builtin's fewest arguments, whether that is also the most, and its
# argument and result kinds, from `OPS`: an operator with no infix form takes
# exactly one argument, one with a prefix form at least one, others two.
_SIGNATURES: dict[str, tuple[int, bool, str, str]] = {
    "ite": (3, True, "ite", "ite"),
    "/": (2, False, "num", "num"),
} | {op: (1 if m.prefix else 2, m.infix is None, m.args, m.result) for op, m in OPS.items()}
_KIND_SORTS = {"num": ((Sort.REAL, Sort.INT), "numeric"), "bool": ((Sort.BOOL,), "Bool")}


def arity_error(op: str, n_args: int) -> str | None:
    """Why builtin `op` cannot take `n_args` arguments, or None if it can."""

    least, exact = _SIGNATURES[op][:2]
    if n_args == least or n_args > least and not exact:
        return None
    how = "exactly" if exact else "at least"
    return f"'{op}' needs {how} {least} argument" + "s" * (least > 1 or not exact)


def result_sort(op: str, args: Sequence[Term]) -> Sort:
    """Sort of builtin `op` (an `OPS` operator, `/` or `ite`) applied to `args`.

    The one sort rule of SMT-LIB applications, for the parser and the
    constructors alike.  An ill-sorted application raises SortError whose
    `arg` is the index of the argument to blame, or None when it is the
    application as a whole.
    """

    why = arity_error(op, len(args))
    if why is not None:
        raise SortError(why)
    _, _, kind, result = _SIGNATURES[op]
    sorts = [a.sort for a in args]
    if kind == "ite":
        if sorts[0] is not Sort.BOOL:
            raise SortError("'ite' condition must be Bool", arg=0)
        if sorts[1] is not sorts[2]:
            raise SortError(f"'ite' branches disagree: {sorts[1]} vs {sorts[2]}", arg=2)
        return sorts[1]
    s0 = sorts[0]
    same = sorts.count(s0) == len(sorts)
    if kind == "any":
        if not same:
            raise SortError(f"'{op}' mixes sorts {sorted({s.value for s in sorts})}")
        return Sort.BOOL
    allowed, name = _KIND_SORTS[kind]
    if not (same and s0 in allowed):
        for i, s in enumerate(sorts):
            if s not in allowed:
                raise SortError(f"'{op}' expects {name} arguments, got {s}", arg=i)
        raise SortError(f"'{op}' mixes Real and Int arguments", arg=0)
    return s0 if result == "num" else Sort.BOOL


def add(*args: Term) -> Apply:
    return Apply("+", args, result_sort("+", args))


def sub(*args: Term) -> Term:
    """n-ary subtraction; unary minus of a literal folds to the literal."""

    sort = result_sort("-", args)
    if len(args) == 1 and isinstance(args[0], Const):
        return neg_literal(args[0])
    return Apply("-", args, sort)


def mul(*args: Term) -> Apply:
    return Apply("*", args, result_sort("*", args))


def div(num: Term, den: Term) -> Div:
    return Div(num, den, result_sort("/", (num, den)))


def lt(a: Term, b: Term) -> Apply:
    return Apply("<", (a, b), result_sort("<", (a, b)))


def le(a: Term, b: Term) -> Apply:
    return Apply("<=", (a, b), result_sort("<=", (a, b)))


def eq(a: Term, b: Term) -> Apply:
    return Apply("=", (a, b), result_sort("=", (a, b)))


def neg(a: Term) -> Apply:
    return Apply("not", (a,), result_sort("not", (a,)))


def conj(*args: Term) -> Term:
    """`(and ...)`; a single Boolean argument is returned as it is."""

    if len(args) == 1 and args[0].sort is Sort.BOOL:
        return args[0]
    return Apply("and", args, result_sort("and", args))


def implies(a: Term, b: Term) -> Apply:
    return Apply("=>", (a, b), result_sort("=>", (a, b)))


def ite(cond: Term, then: Term, orelse: Term) -> Ite:
    return Ite(cond, then, orelse, result_sort("ite", (cond, then, orelse)))


def forall(bound: Iterable[tuple[str, Sort]], body: Term) -> Quantifier:
    if body.sort is not Sort.BOOL:
        raise SortError(f"forall body must be Bool, got {body.sort}")
    return Quantifier("forall", tuple(bound), body)


# ---------------------------------------------------------------------------
# Traversal.
#
# The parser expands `let` into shared objects, so a term is a DAG whose
# tree can be exponentially larger.  Walkers go through `dag_fold` (or
# `dag_rewrite`, built on it), which visits each distinct node once and
# keeps its result keyed by `id(node)`: ids are unique only while the nodes
# are alive, so a memo must not outlive the terms it was filled from.


def children(term: Term) -> tuple[Term, ...]:
    t = type(term)
    if t is Apply:
        return term.args
    if t is Var or t is Const:
        return ()
    if t is Div:
        return (term.num, term.den)
    if t is Ite:
        return (term.cond, term.then, term.orelse)
    if t is Quantifier:
        return (term.body,)
    raise TypeError(f"not a term: {term!r}")


def with_children(term: Term, new: Sequence[Term]) -> Term:
    """`term` with its children replaced by `new`, in `children` order.

    The node itself is returned when every child is the same object;
    otherwise it is rebuilt with the same sort (and a division with the
    same location), so the new children must have the sorts of the old ones.
    """

    if all(map(operator.is_, new, children(term))):
        return term
    t = type(term)
    if t is Apply:
        return Apply(term.op, tuple(new), term.sort)
    if t is Div:
        return Div(new[0], new[1], term.sort, term.loc)
    if t is Ite:
        return Ite(new[0], new[1], new[2], term.sort)
    return Quantifier(term.kind, term.bound, new[0])


# The fields `==` compares besides the children, per node class.
_LABEL: dict[type, Callable[[Term], tuple]] = {
    Const: lambda t: (t.value, t.sort),
    Var: lambda t: (t.name, t.sort),
    Apply: lambda t: (t.op, t.sort),
    Div: lambda t: (t.sort,),
    Ite: lambda t: (),
    Quantifier: lambda t: (t.kind, t.bound),
}


def same_term(a: Term, b: Term) -> bool:
    """`a == b`: structural equality ignoring locations, without recursion.

    Each pair of nodes reached together is compared once, so two
    separately built DAGs spelling the same term cost their DAG size, and
    depth costs no stack.
    """

    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        t = type(x)
        if t is not type(y) or _LABEL[t](x) != _LABEL[t](y):
            return False
        xs, ys = children(x), children(y)
        if len(xs) != len(ys):
            return False
        stack.extend(zip(xs, ys))
    return True


AGAIN = object()
"""Returned by a `dag_fold` function: ask `kids` for more children first."""


def dag_fold(term, fn: Callable, kids: Callable = children, memo: dict | None = None):
    """Post-order fold, calling `fn` once per distinct node.

    `fn(node, values)` gets the values of `kids(node)`, in that order, and
    its result is stored in `memo` under `id(node)`.  Children are visited
    left to right, and `kids(node)` is called when the node is first
    reached, so checks made there run in pre-order.  `kids` may read
    finished values from `memo`: when `fn` returns `AGAIN`, `kids(node)` is
    asked again and the node waits for the children it names.  That is
    how a condition is evaluated before the one branch it selects.

    Pass `memo` to share results between calls over nodes that stay alive.
    Nodes need not be terms: any objects that `kids` and `fn` understand.
    """

    if memo is None:
        memo = {}
    done = memo.__getitem__
    stack = [term]
    pop, push, push_all = stack.pop, stack.append, stack.extend
    waiting: list[tuple[object, Sequence]] = []  # each `None` on `stack` finishes the last
    while stack:
        node = pop()
        if node is None:
            node, ks = waiting.pop()
            value = fn(node, list(map(done, map(id, ks))))
            if value is AGAIN:
                push(node)
            else:
                memo[id(node)] = value
        elif id(node) not in memo:
            ks = kids(node)
            if ks:
                waiting.append((node, ks))
                push(None)
                push_all(reversed(ks))
            else:
                memo[id(node)] = fn(node, ())
    return memo[id(term)]


def dag_rewrite(term: Term, fn: Callable[[Term], Term], memo: dict | None = None) -> Term:
    """Post-order rewrite: `fn` gets each distinct node once, after its
    children are rewritten and put in (by `with_children`)."""

    return dag_fold(term, lambda node, new: fn(with_children(node, new)), memo=memo)


def distinct_subterms(term: Term) -> Iterator[Term]:
    """Pre-order traversal producing each distinct node once, at its first
    visit: a node reached by several paths is not entered again."""

    seen: set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            yield t
            stack.extend(reversed(children(t)))


def division_free_repeats(pieces: Callable = children) -> Callable[[Term], bool]:
    """For one per-occurrence walk: a test of whether a node adds nothing to
    it, being a leaf or a node seen before that holds no division among its
    `pieces`, the nodes the walk enters below it.  A repeat visit folds
    "holds a division" into a memo, once per node."""

    seen: set[int] = set()
    held: dict[int, bool] = {}

    def skip(t: Term) -> bool:
        if type(t) is Var or type(t) is Const:
            return True
        if id(t) not in seen:
            seen.add(id(t))
            return False
        if id(t) not in held:
            dag_fold(t, lambda node, below: type(node) is Div or True in below, pieces, held)
        return not held[id(t)]

    return skip


def count_nodes(term: Term) -> int:
    """Size of `term` as a tree, counting a shared node once per path."""

    return dag_fold(term, lambda node, sizes: 1 + sum(sizes))


def free_vars(term: Term) -> frozenset[str]:
    """Names occurring free in `term`."""

    def free(node: Term, below: list[frozenset[str]]) -> frozenset[str]:
        if type(node) is Var:
            return frozenset({node.name})
        out = frozenset().union(*below)
        if type(node) is Quantifier:
            out -= {name for name, _ in node.bound}
        return out

    return dag_fold(term, free)


def names_in(q: Quantifier) -> set[str]:
    """Every name a quantifier's binders and body use, free or bound: what a
    new binder name must avoid."""

    names = {name for name, _ in q.bound}
    for t in distinct_subterms(q.body):
        if type(t) is Var:
            names.add(t.name)
        elif type(t) is Quantifier:
            names.update(name for name, _ in t.bound)
    return names


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


@dataclass(frozen=True)
class Unsupported:
    """A command outside the subset, preserved verbatim for re-emission."""

    text: str


@dataclass(frozen=True)
class Script:
    logic: str | None = None
    metadata: tuple[tuple[str, str], ...] = ()  # (keyword, rendered value)
    decls: tuple[FunDecl, ...] = ()
    assertions: tuple[Term, ...] = ()
    unsupported: tuple[Unsupported, ...] = ()
    check_sat: bool = False
    exit_cmd: bool = False


def is_quantifier_free(term: Term) -> bool:
    return dag_fold(term, lambda node, below: type(node) is not Quantifier and all(below))
