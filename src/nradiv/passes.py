"""Repair passes: totalize division, lift division to a function symbol,
and emit nonzero-divisor proof obligations.

All passes are pure: they return new scripts and never mutate input.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count

from .analyzer import division_sites
from .errors import SortError
from .printer import has_literal
from .terms import (
    Apply,
    Const,
    Div,
    FunDecl,
    Ite,
    Quantifier,
    Script,
    Sort,
    Term,
    Var,
    children,
    conj,
    const,
    dag_fold,
    dag_rewrite,
    distinct_subterms,
    eq,
    forall,
    fold_node,
    fresh_name,
    holds_division,
    implies,
    mul,
    neg,
    var,
    with_children,
)


class TotalizeStyle(Enum):
    BRANCH_INLINE = "branch"
    FRESH_SYMBOL = "fresh"


def _is_guard(term: Term) -> bool:
    """Recognize `(ite (= u 0) c (/ t u))`, the shape this pass emits.

    A division already wrapped this way is only reached when its divisor
    is nonzero, so rewriting it again would change nothing but the size.
    """

    match term:
        case Ite(Apply("=", (u, Const(z, _)), _), _, Div(_, u2)):
            return not isinstance(z, bool) and z == 0 and u == u2
        case _:
            return False


def _guard_pieces(term: Term) -> tuple[Term, ...]:
    """What totalize rewrites below a node: an existing guard keeps its
    test and its division, so only their pieces are visited, divisor first."""

    if type(term) is Ite and _is_guard(term):
        return (term.orelse.den, term.orelse.num, term.then)
    return children(term)


def _named_pieces(term: Term) -> tuple[Term, ...]:
    """What the fresh-symbol walk enters: `_guard_pieces`, and nothing below
    a quantifier, which it rewrites inline."""

    return () if type(term) is Quantifier else _guard_pieces(term)


def _rebuild_guard(guard: Ite, den: Term, num: Term, then: Term) -> Ite:
    d = guard.orelse
    if den is d.den and num is d.num and then is guard.then:
        return guard
    zero = guard.cond.args[1]
    return Ite(Apply("=", (den, zero), Sort.BOOL), then, Div(num, den, d.sort, d.loc), d.sort)


def totalize(
    script: Script,
    div0_value: Fraction = Fraction(0),
    style: TotalizeStyle = TotalizeStyle.BRANCH_INLINE,
    fold: bool = False,
) -> Script:
    """Give every division a value at zero divisors via an explicit branch.

    BRANCH_INLINE turns `(/ t u)` into `(ite (= u 0) c (/ t u))`, where
    c is `div0_value`, in place, rewriting each shared node once.
    FRESH_SYMBOL instead names the guarded value of each occurrence with
    a fresh constant and a defining assertion; divisions under a
    quantifier fall back to the inline branch, since a script-level
    constant cannot depend on bound variables.  The pass is idempotent
    either way, and `fold` constant-folds the result.
    """

    taken = {d.name for d in script.decls}
    fresh_names = (n for n in map("div0.{}".format, count()) if n not in taken)
    new_decls: list[FunDecl] = list(script.decls)
    defining: list[Term] = []

    zeros: dict[Sort, Const] = {}  # divisor sort -> its one zero
    values: dict[Sort, Const] = {}  # division sort -> its one guard value

    def guard_value(sort: Sort) -> Const:
        if sort not in values:
            if sort is Sort.INT and div0_value.denominator != 1:
                raise SortError(f"total-division value {div0_value} is not an integer")
            values[sort] = const(div0_value, sort)
        return values[sort]

    guards: dict[int, Ite] = {}  # id(division) -> its guard, which holds it

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

    memo: dict[int, Term] = {}  # id(node) -> its inline rewrite
    if style is TotalizeStyle.BRANCH_INLINE:
        assertions = [dag_fold(a, inline, _guard_pieces, memo) for a in script.assertions]
    else:
        # Each occurrence gets its own name, so the walk goes over the tree,
        # post-order over `_named_pieces`, and leaves each finished rewrite
        # in `assertions` for its parent.  A quantifier, and a node met
        # before that holds nothing to name, get their inline rewrite, which
        # is not the node only where a quantifier below it was rewritten.
        holds = holds_division(_named_pieces)
        seen: set[int] = set()  # id(node) of each node entered
        fell_back = False
        assertions = []
        waiting: list[tuple[Term, int]] = []  # node, where its pieces start in `assertions`
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
    out = dataclasses.replace(
        script,
        decls=tuple(new_decls),
        assertions=(*assertions, *defining),
    )
    if fold:
        out = fold_script(out)
    return out


# ---------------------------------------------------------------------------
# Constant folding.


def _fold_to_literal(t: Term) -> Term:
    out = fold_node(t)
    if type(t) is Div and type(out) is Const and not has_literal(out.value, out.sort):
        return t
    return out


def fold_term(term: Term) -> Term:
    """Bottom-up literal folding by `fold_node`.  A division is kept as is
    when its divisor is a literal zero, or when no one literal of its sort
    spells the quotient, so the folded term prints as it counts."""

    return dag_rewrite(term, _fold_to_literal)


def fold_script(script: Script) -> Script:
    memo: dict[int, Term] = {}
    return dataclasses.replace(
        script,
        assertions=tuple(dag_rewrite(a, _fold_to_literal, memo) for a in script.assertions),
    )


# ---------------------------------------------------------------------------
# Lifting division to an uninterpreted function.


@dataclass(frozen=True)
class UfLiftResult:
    script: Script
    div_symbol: str | None  # None when the input had no division


def division_axiom(symbol: str | None = None) -> Term:
    """The guarded meaning of division as one closed formula.

    With no symbol: for all x, y with y nonzero, x = (x / y) * y.
    With a symbol d: the same shape over applications of d, which pins
    d to division wherever the divisor is nonzero and nowhere else.
    """

    x = var("x", Sort.REAL)
    y = var("y", Sort.REAL)
    app = Div(x, y, Sort.REAL) if symbol is None else Apply(symbol, (x, y), Sort.REAL)
    return forall(
        (("x", Sort.REAL), ("y", Sort.REAL)),
        implies(neg(eq(y, const(0))), eq(x, mul(app, y))),
    )


_QF_PREFIX = "QF_"


def _uf_logic(logic: str | None) -> str | None:
    if logic is None or "UF" in logic:
        return logic
    if logic.startswith(_QF_PREFIX):
        return _QF_PREFIX + "UF" + logic[len(_QF_PREFIX) :]
    return "UF" + logic


def lift_to_uf(script: Script) -> UfLiftResult:
    """Replace every division with a fresh binary function symbol.

    The symbol is axiomatized by `division_axiom`, the output's last
    assertion, so models may choose any value at zero divisors.  Its
    name avoids every declared and every quantifier-bound name.  Scripts
    with no division are returned untouched with no symbol and no axiom.
    """

    found = [
        t
        for a in script.assertions
        for t in distinct_subterms(a)
        if isinstance(t, (Div, Quantifier))
    ]
    divs = [t for t in found if isinstance(t, Div)]
    if not divs:
        return UfLiftResult(script, None)
    for d in divs:
        if d.sort is not Sort.REAL:
            raise SortError("cannot lift Int-sorted division to a Real function symbol")

    taken = {d.name for d in script.decls}
    taken.update(n for t in found if isinstance(t, Quantifier) for n, _ in t.bound)
    name = fresh_name("udiv", taken)

    def apply_symbol(t: Term) -> Term:
        if type(t) is Div:
            return Apply(name, (t.num, t.den), Sort.REAL)
        return t

    memo: dict[int, Term] = {}
    out = dataclasses.replace(
        script,
        logic=_uf_logic(script.logic),
        decls=tuple(script.decls) + (FunDecl(name, (Sort.REAL, Sort.REAL), Sort.REAL),),
        assertions=tuple(dag_rewrite(a, apply_symbol, memo) for a in script.assertions)
        + (division_axiom(name),),
    )
    return UfLiftResult(out, name)


# ---------------------------------------------------------------------------
# Nonzero-divisor proof obligations.


def emit_nonzero_vcs(script: Script) -> list[Term]:
    """One closed Boolean term per division and distinct chain of `ite`
    branches and quantifiers above it: its divisor is nonzero there.

    `ite` branch conditions become hypotheses, so a division guarded by
    its own zero test yields a tautology.  A division under quantifiers
    is universally closed over the bound variables; for an `exists`
    binder this is stronger than necessary, erring toward soundness.
    The chain unrolls in scope order: each run of guards between two
    binders is one `(=> (and ...) ...)` at its own level, inside the
    binders above it and around those below it, so a binder captures no
    guard from outside it.  The list follows `division_sites`, in its
    order, under a scope rule whose context is the chain `(outer, guard
    or None, quantifier or None)`, interned per distinct chain, so each
    `(not c)` is built once.
    """

    contexts: dict[tuple[int, int, int], tuple] = {}  # (id(outer), id(node), k) -> context

    def scope(outer, node: Ite | Quantifier, k: int) -> tuple:
        key = (id(outer), id(node), k)
        if key not in contexts:
            guard = None if k == 0 else node.cond if k == 1 else neg(node.cond)
            contexts[key] = (outer, guard, None if k else node)
        return contexts[key]

    zeros: dict[Sort, Const] = {}  # divisor sort -> its one zero
    vcs: list[Term] = []
    for d, context, _ in division_sites(script, scope):
        zero = zeros.get(d.den.sort)
        if zero is None:
            zero = zeros[d.den.sort] = const(0, d.den.sort)
        vc: Term = neg(eq(d.den, zero))
        guards: list[Term] = []  # the run of guards since the last binder, innermost first
        while context is not None:
            context, guard, q = context
            if q is not None:
                vc = forall(q.bound, vc)
                continue
            guards.append(guard)
            if context is None or context[2] is not None:  # the run's outermost guard
                vc = implies(conj(*reversed(guards)), vc)
                guards = []
        vcs.append(vc)
    return vcs
