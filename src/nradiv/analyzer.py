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

from .terms import (
    ARITH_OPS,
    Apply,
    Const,
    Div,
    Loc,
    Quantifier,
    Script,
    Term,
    apply_op,
    children,
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

    path: tuple[int, ...]  # assertion index, then child indices
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


def fold_literal(term: Term) -> Fraction | None:
    """Value of a term built from numeric literals and +, -, *, /.

    Returns None for anything else, including division by a literal
    zero: such a node has no standard value to fold to.
    """

    match term:
        case Const(value, _) if not isinstance(value, bool):
            return value
        case Apply(op, args, _) if op in ARITH_OPS and args:
            vals = [fold_literal(a) for a in args]
            if any(v is None for v in vals):
                return None
            return apply_op(op, vals)
        case Div(num, den):
            n = fold_literal(num)
            d = fold_literal(den)
            if n is None or d is None or d == 0:
                return None
            return n / d
        case _:
            return None


def classify_divisor(divisor: Term) -> DivisorClass:
    value = fold_literal(divisor)
    if value is None:
        return DivisorClass(DivisorKind.NON_CONSTANT)
    if value == 0:
        return DivisorClass(DivisorKind.CONSTANT_ZERO)
    return DivisorClass(DivisorKind.CONSTANT_NONZERO, value)


def collect_divisions(script: Script) -> list[DivOccurrence]:
    """Every division node in assertion order, pre-order within a term."""

    out: list[DivOccurrence] = []

    def walk(term: Term, path: tuple[int, ...], under: bool) -> None:
        if isinstance(term, Div):
            out.append(DivOccurrence(path, classify_divisor(term.den), term.loc, under))
        inside = under or isinstance(term, Quantifier)
        for i, child in enumerate(children(term)):
            walk(child, path + (i,), inside)

    for i, assertion in enumerate(script.assertions):
        walk(assertion, (i,), False)
    return out


def classify_script(script: Script) -> FragmentVerdict:
    """Fragment label: no division, only constant nonzero divisors, or worse.

    Any constant-zero divisor lands in the non-constant-division bucket:
    the division axiom says nothing about it, so the same decidability
    caveats apply as for a divisor that may vanish.
    """

    occurrences = tuple(collect_divisions(script))
    if not occurrences:
        label = FragmentLabel.POLYNOMIAL_ONLY
    elif all(
        o.divisor_class.kind is DivisorKind.CONSTANT_NONZERO for o in occurrences
    ):
        label = FragmentLabel.CONSTANT_DIVISION_ONLY
    else:
        label = FragmentLabel.NON_CONSTANT_DIVISION
    return FragmentVerdict(label, occurrences)
