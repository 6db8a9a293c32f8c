"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from nradiv import Script, Sort, Term, children, is_quantifier_free

DENOMINATOR_CHOICES = (1, 1, 1, 2, 2, 3, 4, 7)


def random_rational(rng: random.Random, bound: int = 10) -> Fraction:
    q = rng.choice(DENOMINATOR_CHOICES)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def random_assignment(script: Script, rng: random.Random, bound: int = 10) -> dict:
    out = {}
    for d in script.decls:
        if d.params:
            continue
        if d.result is Sort.BOOL:
            out[d.name] = rng.choice((True, False))
        elif d.result is Sort.INT:
            out[d.name] = Fraction(rng.randint(-bound, bound))
        else:
            out[d.name] = random_rational(rng, bound)
    return out


def qf_assertions(script: Script) -> list[Term]:
    return [a for a in script.assertions if is_quantifier_free(a)]


def exact_division(x: Fraction, y: Fraction) -> Fraction:
    return x / y


def subterms(term: Term) -> Iterator[Term]:
    """Pre-order traversal of the tree, the node itself first: a node
    reached by several paths is produced once per path, so this costs the
    size of the tree, exponential in nested `let`s that share."""

    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def forced_value(x: Fraction) -> Fraction:
    """Floor computed from its two characteristic properties alone.

    Shift x into [0, 1) one unit at a time, counting the steps; the
    count is what the shift and base properties force `x/0` to be.
    Independent of `floor_oracle`, so the two can cross-check.
    """

    steps = Fraction(0)
    while x < 0:
        x += 1
        steps -= 1
    while x >= 1:
        x -= 1
        steps += 1
    return steps
