"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from nradiv import (
    Div,
    DivisorKind,
    DivOccurrence,
    Ite,
    Quantifier,
    Script,
    Sort,
    Term,
    children,
    classify_divisor,
    classify_script,
    format_term,
    is_quantifier_free,
    parse_script,
)
from nradiv.printer import format_value
from nradiv.terms import Const, Var, conj, const, eq, forall, holds_division, implies, neg

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


def ite_chain_script(k: int) -> str:
    """`(> a{k-1} 0)` under k nested lets, `a0` bound to `(/ x y)` and each
    `a{i}` to `(ite c a{i-1} a{i-1})`: one division node on 2^(k-1) paths,
    each under its own chain of k - 1 branches."""

    lets = "".join(f"(let ((a{i} (ite c a{i - 1} a{i - 1}))) " for i in range(1, k))
    return (
        "(declare-fun x () Real)\n(declare-fun y () Real)\n(declare-fun c () Bool)\n"
        f"(assert (let ((a0 (/ x y))) {lets}(> a{k - 1} 0){')' * k})\n"
    )


def chain_scope():
    """A `division_sites` scope rule whose context is the interned cell
    `(outer, node, k, quantified)`: one cell per distinct chain of `(node,
    k)`, `quantified` saying whether a quantifier is among them."""

    cells: dict[tuple[int, int, int], tuple] = {}  # (id(outer), id(node), k) -> cell

    def scope(outer, node: Term, k: int) -> tuple:
        key = (id(outer), id(node), k)
        if key not in cells:
            cells[key] = (outer, node, k, k == 0 or (outer is not None and outer[3]))
        return cells[key]

    return scope


def per_path_sites(script: Script) -> Iterator[tuple[Div, tuple | None]]:
    """Every division occurrence, once per tree path, in assertion order,
    pre-order within a term: the reference for `division_sites`.

    Yields the `Div` node and its scope: None at the top of an assertion,
    else a fresh cell `(outer, node, k, quantified)` for the innermost `ite`
    branch (k = 1 then, 2 else) or quantifier body (k = 0) above it.  A
    node seen before is entered again only when it holds a division, so
    this costs the tree paths that reach a division."""

    holds = holds_division()
    seen: set[int] = set()  # id(node) of each node entered
    for assertion in script.assertions:
        stack = [(assertion, None)]  # node, scope
        while stack:
            term, scope = stack.pop()
            if type(term) is Var or type(term) is Const or id(term) in seen and not holds(term):
                continue
            seen.add(id(term))
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


def per_path_counts(script: Script) -> dict[DivisorKind, int]:
    """Division occurrences per divisor class, one per `per_path_sites`
    site: the reference for the census of `classify_script`."""

    counts = dict.fromkeys(DivisorKind, 0)
    for d, _ in per_path_sites(script):
        counts[classify_divisor(d.den).kind] += 1
    return counts


def per_path_occurrences(script: Script) -> list[DivOccurrence]:
    """`per_path_sites` collapsed by division and quantifier context, in
    first-occurrence order, each with its number of paths."""

    paths: dict[tuple[int, bool], int] = {}
    first: dict[tuple[int, bool], tuple[Div, bool]] = {}
    for d, scope in per_path_sites(script):
        key = (id(d), scope is not None and scope[3])
        paths[key] = paths.get(key, 0) + 1
        first.setdefault(key, (d, key[1]))
    return [
        DivOccurrence(classify_divisor(d.den), d.loc, quantified, paths[key])
        for key, (d, quantified) in first.items()
    ]


def per_path_vc_texts(script: Script) -> list[str]:
    """The nonzero-divisor VC of each `per_path_sites` occurrence, as text,
    once per division and chain of `(ite or quantifier, k)` above it, in
    first-occurrence order.  The chain nests in scope order: each binder
    closes what lies inside it, and each run of guards between two binders
    is one implication at its own level."""

    out: dict[tuple, str] = {}
    for d, scope in per_path_sites(script):
        chain = []  # (node, k), innermost first
        while scope is not None:
            scope, node, k, _ = scope
            chain.append((node, k))
        key = (id(d), tuple((id(node), k) for node, k in chain))
        if key in out:
            continue
        vc = neg(eq(d.den, const(0, d.den.sort)))
        runs = [[]]  # the guards between two binders, outermost first
        for node, k in reversed(chain):
            if k == 0:
                runs.append(node)
                runs.append([])
            else:
                runs[-1].append(node.cond if k == 1 else neg(node.cond))
        for level in reversed(runs):
            if type(level) is Quantifier:
                vc = forall(level.bound, vc)
            elif level:
                vc = implies(conj(*level), vc)
        out[key] = format_term(vc)
    return list(out.values())


def classify_json_oracle(path: str) -> str:
    """What `nradiv classify --json path` prints, built as one payload and
    written by `json.dumps(payload, indent=2, sort_keys=True)`."""

    verdict = classify_script(parse_script(Path(path).read_text(encoding="utf-8")))
    payload = {
        "path": path,
        "schema_version": 2,
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
                "paths": occ.paths,
            }
            for occ in verdict.occurrences
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
