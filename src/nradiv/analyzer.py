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
from operator import add
from typing import Iterator

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
    children,
    dag_fold,
    division_free_repeats,
    fold_node,
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
    """One division node: where it sits and what its divisor looks like."""

    divisor_class: DivisorClass
    loc: Loc
    under_quantifier: bool


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


def division_sites(script: Script) -> Iterator[tuple[Div, tuple | None]]:
    """Every division occurrence, in assertion order, pre-order within a term.

    Yields the `Div` node and its scope: None at the top of an assertion,
    else the cell `(outer, node, k, quantified)` of the innermost `ite`
    branch (k = 1 then, 2 else) or quantifier body (k = 0) above it, where
    `outer` is the scope of `node` and `quantified` says whether a
    quantifier is among them.  A condition keeps the scope of its `ite`,
    and every other child the scope of its parent, so nothing is copied per
    level.  A node is entered again only when it holds a division.
    """

    skip = division_free_repeats()
    for assertion in script.assertions:
        stack = [(assertion, None)]  # node, scope
        while stack:
            term, scope = stack.pop()
            if skip(term):
                continue
            t = type(term)
            if t is Div:
                yield term, scope
            if t is Ite:
                quantified = scope is not None and scope[3]
                stack.append((term.orelse, (scope, term, 2, quantified)))
                stack.append((term.then, (scope, term, 1, quantified)))
                stack.append((term.cond, scope))
            elif t is Quantifier:
                stack.append((term.body, (scope, term, 0, True)))
            else:
                stack.extend([(kid, scope) for kid in reversed(children(term))])


def collect_divisions(script: Script) -> list[DivOccurrence]:
    """Every division occurrence, as `division_sites` finds them.

    A division reached by several paths is listed once per path, as one
    `DivOccurrence` per distinct division node and quantifier context: the
    paths that share both share the object.  Each distinct divisor node is
    classified once.
    """

    out: list[DivOccurrence] = []
    classes: dict[int, DivisorClass] = {}  # id(divisor) -> its class
    made: dict[tuple[int, bool], DivOccurrence] = {}  # (id(division), quantified)
    for d, scope in division_sites(script):
        quantified = scope is not None and scope[3]
        occ = made.get((id(d), quantified))
        if occ is None:
            cls = classes.get(id(d.den))
            if cls is None:
                cls = classes[id(d.den)] = classify_divisor(d.den)
            occ = made[id(d), quantified] = DivOccurrence(cls, d.loc, quantified)
        out.append(occ)
    return out


def count_divisions(script: Script) -> dict[DivisorKind, int]:
    """Division occurrences per divisor class, as `collect_divisions`
    would list them, without listing them: each distinct node is visited
    once and a shared division counts once per path."""

    kinds = tuple(DivisorKind)
    none = (0,) * len(kinds)
    one = {k: tuple(int(k is other) for other in kinds) for k in kinds}

    def tally(node: Term, below: list[tuple[int, ...]]) -> tuple[int, ...]:
        total = one[classify_divisor(node.den).kind] if type(node) is Div else none
        for counts in below:
            if counts is not none:
                total = tuple(map(add, total, counts))
        return total

    memo: dict[int, tuple[int, ...]] = {}
    totals = none
    for assertion in script.assertions:
        totals = tuple(map(add, totals, dag_fold(assertion, tally, memo=memo)))
    return dict(zip(kinds, totals))


def fragment_label(counts: dict[DivisorKind, int]) -> FragmentLabel:
    """The fragment of a script with these division counts per class."""

    if not any(counts.values()):
        return FragmentLabel.POLYNOMIAL_ONLY
    if counts[DivisorKind.CONSTANT_NONZERO] == sum(counts.values()):
        return FragmentLabel.CONSTANT_DIVISION_ONLY
    return FragmentLabel.NON_CONSTANT_DIVISION


def classify_script(script: Script) -> FragmentVerdict:
    """Fragment label: no division, only constant nonzero divisors, or worse.

    Any constant-zero divisor lands in the non-constant-division bucket:
    the division axiom says nothing about it, so the same decidability
    caveats apply as for a divisor that may vanish.
    """

    occurrences = tuple(collect_divisions(script))
    # The label reads only which classes occur, so each distinct occurrence
    # object is counted once, however many paths list it.
    counts = dict.fromkeys(DivisorKind, 0)
    for o in dict(zip(map(id, occurrences), occurrences)).values():
        counts[o.divisor_class.kind] += 1
    return FragmentVerdict(fragment_label(counts), occurrences)
