"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from nradiv import Script, Sort, Term, children, classify_script, is_quantifier_free, parse_script
from nradiv.printer import format_value

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


def doubling_let_script(k: int) -> str:
    """`(> a{k-1} 0)` under k nested lets, `a0` bound to `(/ x y)` and each
    `a{i}` to `(+ a{i-1} a{i-1})`: one division node on 2^(k-1) paths."""

    lets = "".join(f"(let ((a{i} (+ a{i - 1} a{i - 1}))) " for i in range(1, k))
    return (
        "(declare-fun x () Real)\n(declare-fun y () Real)\n"
        f"(assert (let ((a0 (/ x y))) {lets}(> a{k - 1} 0){')' * k})\n"
    )


def classify_json_oracle(path: str) -> str:
    """What `nradiv classify --json path` prints, built as one payload and
    written by `json.dumps(payload, indent=2, sort_keys=True)`."""

    verdict = classify_script(parse_script(Path(path).read_text(encoding="utf-8")))
    payload = {
        "path": path,
        "verdict": verdict.label.value,
        "occurrences": [
            {
                "line": occ.loc.line,
                "col": occ.loc.col,
                "class": occ.divisor_class.kind.value,
                "value": None
                if occ.divisor_class.value is None
                else format_value(occ.divisor_class.value),
                "under_quantifier": occ.under_quantifier,
            }
            for occ in verdict.occurrences
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
