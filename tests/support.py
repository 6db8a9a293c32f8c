"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import random
import warnings
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Iterator, Sequence

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
from nradiv.errors import SortError
from nradiv.passes import _guard_pieces, _is_guard, _rebuild_guard
from nradiv.printer import format_value
from nradiv.terms import (
    OPS,
    Apply,
    Const,
    FunDecl,
    Var,
    arity_error,
    conj,
    const,
    dag_fold,
    dag_rewrite,
    eq,
    forall,
    holds_division,
    implies,
    neg,
    var,
    with_children,
)

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


def reference_result_sort(op: str, args: Sequence[Term]) -> Sort:
    """`terms.result_sort` as it was before its accepting path: every check,
    in order, on the list of argument sorts.  The reference that the
    exhaustive sort-rule test compares the rule against."""

    why = arity_error(op, len(args))
    if why is not None:
        raise SortError(why)
    kind, result = {"ite": ("ite", "ite"), "/": ("num", "num")}.get(op) or (OPS[op].args, OPS[op].result)
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
    allowed, name = {"num": ((Sort.REAL, Sort.INT), "numeric"), "bool": ((Sort.BOOL,), "Bool")}[kind]
    if not (same and s0 in allowed):
        for i, s in enumerate(sorts):
            if s not in allowed:
                raise SortError(f"'{op}' expects {name} arguments, got {s}", arg=i)
        raise SortError(f"'{op}' mixes Real and Int arguments", arg=0)
    return s0 if result == "num" else Sort.BOOL


def reference_fresh_totalize(script: Script, div0_value: Fraction = Fraction(0)) -> Script:
    """`totalize(script, div0_value, style=FRESH_SYMBOL)` as it was before
    the walk kept each node that names nothing: a node seen before is
    entered again whenever it holds a division outside a quantifier, and
    every finished node is rebuilt through `inline` or `named`.  The
    reference that the fresh-style property compares the pass against."""

    taken = {d.name for d in script.decls}
    fresh_names = (n for n in map("div0.{}".format, count()) if n not in taken)
    new_decls: list[FunDecl] = list(script.decls)
    defining: list[Term] = []
    zeros: dict[Sort, Const] = {}
    values: dict[Sort, Const] = {}

    def guard_value(sort: Sort) -> Const:
        if sort not in values:
            if sort is Sort.INT and div0_value.denominator != 1:
                raise SortError(f"total-division value {div0_value} is not an integer")
            values[sort] = const(div0_value, sort)
        return values[sort]

    guards: dict[int, Ite] = {}

    def guarded(d: Div) -> Ite:
        if id(d) not in guards:
            zero = zeros.get(d.den.sort)
            if zero is None:
                zero = zeros[d.den.sort] = const(0, d.den.sort)
            guards[id(d)] = Ite(eq(d.den, zero), guard_value(d.sort), d, d.sort)
        return guards[id(d)]

    def inline(node: Term, new: list[Term]) -> Term:
        if type(node) is Ite and _is_guard(node):
            return _rebuild_guard(node, *new)
        t = with_children(node, new)
        return guarded(t) if type(t) is Div else t

    def named(node: Div, new: list[Term]) -> Var:
        t = with_children(node, new)
        v = var(next(fresh_names), t.sort)
        new_decls.append(FunDecl(v.name, (), t.sort))
        defining.append(eq(v, guarded(t)))
        return v

    def named_pieces(term: Term) -> tuple[Term, ...]:
        return () if type(term) is Quantifier else _guard_pieces(term)

    memo: dict[int, Term] = {}
    held: dict[int, bool] = {}  # id(node) -> whether a division is below it, quantifiers skipped

    def holds(t: Term) -> bool:
        if id(t) not in held:
            dag_fold(t, lambda node, below: type(node) is Div or True in below, named_pieces, held)
        return held[id(t)]

    seen: set[int] = set()
    fell_back = False
    assertions: list[Term] = []
    waiting: list[tuple[Term, int]] = []
    stack: list = list(reversed(script.assertions))
    while stack:
        node = stack.pop()
        if node is None:
            node, start = waiting.pop()
            new = assertions[start:]
            del assertions[start:]
            assertions.append((named if type(node) is Div else inline)(node, new))
        elif type(node) is Var or type(node) is Const:
            assertions.append(node)
        elif type(node) is Quantifier or id(node) in seen and not holds(node):
            rewrite = dag_fold(node, inline, _guard_pieces, memo)
            fell_back = fell_back or rewrite is not node
            assertions.append(rewrite)
        else:
            seen.add(id(node))
            waiting.append((node, len(assertions)))
            stack.append(None)
            stack.extend(reversed(_guard_pieces(node)))
    if fell_back:
        warnings.warn(
            "fresh-symbol totalization cannot name a division "
            "under a quantifier; falling back to an inline branch",
            stacklevel=2,
        )
    return dataclasses.replace(script, decls=tuple(new_decls), assertions=(*assertions, *defining))


def replace_uf_with_div0(term: Term, f_name: str) -> Term:
    """Rewrite applications `(f_name t)` to `(/ t 0)`: the `/0` spelling of
    the floor encoding, as a respelling of the UF one.  The reference that
    the encoder tests compare `encode_via_div0` against."""

    def spell(t: Term) -> Term:
        if type(t) is Apply and t.op == f_name and len(t.args) == 1:
            return Div(t.args[0], const(0), Sort.REAL)
        return t

    return dag_rewrite(term, spell)


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
