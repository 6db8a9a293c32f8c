"""Classify division occurrences and place scripts into solver fragments.

A divisor is folded over literal +, -, *, / before classification, so
`(- 0 2)` counts as the constant -2.  Folding refuses division by a
zero literal; a divisor that folds to 0 is exactly a zero literal or
an expression of literals whose value is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .terms import (
    ARITH_OPS,
    Apply,
    Const,
    Div,
    Ite,
    Loc,
    Quantifier,
    Script,
    Term,
    Var,
    children,
    dag_fold,
    fold_node,
    holds_division,
    with_children,
)


class DivisorKind(Enum):
    CONSTANT_NONZERO = "constant-nonzero"
    CONSTANT_ZERO = "constant-zero"
    NON_CONSTANT = "non-constant"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DivisorClass:
    kind: DivisorKind
    value: Fraction | None = None  # set only for CONSTANT_NONZERO


@dataclass(frozen=True)
class DivOccurrence:
    """One division node in one quantifier context: where it sits, what its
    divisor looks like, and on how many tree paths it is reached there."""

    divisor_class: DivisorClass
    loc: Loc
    under_quantifier: bool
    paths: int


class FragmentLabel(Enum):
    POLYNOMIAL_ONLY = "polynomial-only"
    CONSTANT_DIVISION_ONLY = "constant-division-only"
    NON_CONSTANT_DIVISION = "non-constant-division"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FragmentVerdict:
    label: FragmentLabel
    occurrences: tuple[DivOccurrence, ...]

    @property
    def counts(self) -> dict[DivisorKind, int]:
        """Division occurrences per divisor class, a shared division
        counting once per tree path: the `paths` summed per class."""

        counts = dict.fromkeys(DivisorKind, 0)
        for o in self.occurrences:
            counts[o.divisor_class.kind] += o.paths
        return counts


def _literal_parts(term: Term) -> tuple[Term, ...]:
    if type(term) is Apply and term.op in ARITH_OPS:
        return term.args
    if type(term) is Div:
        return (term.num, term.den)
    return ()


def _fold_literal_parts(term: Term, parts: list[Term]) -> Term:
    return fold_node(with_children(term, parts)) if parts else term


def fold_literal(term: Term) -> Fraction | None:
    """Value of a term built from numeric literals and +, -, *, /.

    Returns None for anything else, including division by a literal
    zero: such a node has no standard value to fold to.  Each node is
    folded by `fold_node`, so the value is exact also where `fold_term`
    keeps a division whose quotient no literal spells.
    """

    out = dag_fold(term, _fold_literal_parts, _literal_parts)
    return out.value if type(out) is Const and type(out.value) is not bool else None


def classify_divisor(divisor: Term) -> DivisorClass:
    value = fold_literal(divisor)
    if value is None:
        return DivisorClass(DivisorKind.NON_CONSTANT)
    if value == 0:
        return DivisorClass(DivisorKind.CONSTANT_ZERO)
    return DivisorClass(DivisorKind.CONSTANT_NONZERO, value)


def _quantified(outer, node: Term, k: int):
    """The context rule of `collect_divisions`: True under a quantifier."""

    return True if k == 0 else outer


def division_sites(script: Script, scope: Callable = _quantified) -> list[tuple[Div, object, int]]:
    """Each distinct division and context, with `paths`, the number of tree
    paths that reach the division there, in the order a pre-order walk of
    the assertions first reaches them.

    The context is None at the top of an assertion, and `scope(outer, node,
    k)` in the `ite` branch (k = 1 then, 2 else) or quantifier body (k = 0)
    of `node` reached in context `outer`.  Contexts are told apart by
    identity, so a rule returns one object per context it means and keeps
    it alive.  The default is True under a quantifier and None elsewhere.

    The walk enters each distinct pair of node and context once: a repeat
    arrival only records its parent, and a node met before in another
    context is entered again only when it holds a division.  One pass in
    reverse post-order then sums the paths of each pair's parents.
    """

    holds = holds_division()
    seen: set[int] = set()  # id(node) of each node entered in some context
    pairs: dict = {}  # id(node) at context None, else (id(node), id(context)) -> pair number
    parents: list = []  # pair number -> its parent's number (-1 for none), or a list of them
    finished: list[int] = []  # pair numbers in post-order
    sites: list[tuple[int, Div, object]] = []  # pair number, division, context
    shared = False
    stack: list = [(a, None, -1) for a in reversed(script.assertions)]  # node, context, parent
    while stack:
        item = stack.pop()
        if type(item) is int:
            finished.append(item)
            continue
        term, context, parent = item
        t = type(term)
        if t is Var or t is Const:
            continue
        key = id(term) if context is None else (id(term), id(context))
        new = len(parents)
        i = pairs.setdefault(key, new)
        if i != new:  # a repeat arrival
            shared = True
            first = parents[i]
            if type(first) is int:
                parents[i] = [first, parent]
            else:
                first.append(parent)
            continue
        parents.append(parent)
        if id(term) not in seen:
            seen.add(id(term))
        elif not holds(term):
            continue  # a pair that is never entered, and reaches no division
        stack.append(i)
        if t is Div:
            sites.append((i, term, context))
        if t is Ite:
            stack.append((term.orelse, scope(context, term, 2), i))
            stack.append((term.then, scope(context, term, 1), i))
            stack.append((term.cond, context, i))
        elif t is Quantifier:
            stack.append((term.body, scope(context, term, 0), i))
        else:
            stack.extend([(kid, context, i) for kid in reversed(children(term))])
    if not shared:
        return [(d, context, 1) for _, d, context in sites]
    paths = [1] * len(parents)  # an assertion's own pair has one path
    for i in reversed(finished):
        p = parents[i]
        if type(p) is int:
            if p >= 0:
                paths[i] = paths[p]
        else:
            paths[i] = sum(paths[q] if q >= 0 else 1 for q in p)
    return [(d, context, paths[i]) for i, d, context in sites]


def collect_divisions(script: Script) -> list[DivOccurrence]:
    """One occurrence per distinct division and quantifier context, in the
    order `division_sites` first reaches them, each with the number of tree
    paths that reach it there.  Each distinct divisor node is classified
    once."""

    out: list[DivOccurrence] = []
    classes: dict[int, DivisorClass] = {}  # id(divisor) -> its class
    for d, quantified, paths in division_sites(script):
        cls = classes.get(id(d.den))
        if cls is None:
            cls = classes[id(d.den)] = classify_divisor(d.den)
        out.append(DivOccurrence(cls, d.loc, quantified is True, paths))
    return out


def classify_script(script: Script) -> FragmentVerdict:
    """The census of a script's divisions: its occurrences, their `counts`
    per divisor class, and its fragment label: no division, only constant
    nonzero divisors, or worse.

    Any constant-zero divisor lands in the non-constant-division bucket:
    the division axiom says nothing about it, so the same decidability
    caveats apply as for a divisor that may vanish.
    """

    occurrences = tuple(collect_divisions(script))
    kinds = {o.divisor_class.kind for o in occurrences}
    if not kinds:
        label = FragmentLabel.POLYNOMIAL_ONLY
    elif kinds == {DivisorKind.CONSTANT_NONZERO}:
        label = FragmentLabel.CONSTANT_DIVISION_ONLY
    else:
        label = FragmentLabel.NON_CONSTANT_DIVISION
    return FragmentVerdict(label, occurrences)
