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

from .errors import SortError
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
    division_free_repeats,
    eq,
    forall,
    fold_node,
    fresh_name,
    implies,
    mul,
    neg,
    var,
    with_children,
)


class TotalizeStyle(Enum):
    BRANCH_INLINE = "branch"
    FRESH_SYMBOL = "fresh"


@dataclass(frozen=True)
class TotalizeConfig:
    div0_value: Fraction = Fraction(0)
    style: TotalizeStyle = TotalizeStyle.BRANCH_INLINE


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


def _rebuild_guard(guard: Ite, den: Term, num: Term, then: Term) -> Ite:
    d = guard.orelse
    if den is d.den and num is d.num and then is guard.then:
        return guard
    zero = guard.cond.args[1]
    return Ite(
        Apply("=", (den, zero), Sort.BOOL, guard.cond.loc),
        then,
        Div(num, den, d.sort, d.loc),
        guard.loc,
    )


def totalize(
    script: Script, config: TotalizeConfig | None = None, fold: bool = False
) -> Script:
    """Give every division a value at zero divisors via an explicit branch.

    BRANCH_INLINE turns `(/ t u)` into `(ite (= u 0) c (/ t u))` in
    place, rewriting each shared node once.  FRESH_SYMBOL instead names
    the guarded value of each occurrence with a fresh constant and a
    defining assertion; divisions under a quantifier fall back to the
    inline branch, since a script-level constant cannot depend on bound
    variables.  The pass is idempotent either way.
    """

    cfg = config or TotalizeConfig()
    taken = {d.name for d in script.decls}
    new_decls: list[FunDecl] = list(script.decls)
    defining: list[Term] = []
    numbering = count()

    def next_fresh() -> str:
        for i in numbering:
            name = f"div0.{i}"
            if name not in taken:
                return name
        raise AssertionError("unreachable")

    def guard_value(sort: Sort, loc) -> Const:
        if sort is Sort.INT and cfg.div0_value.denominator != 1:
            raise SortError(
                f"total-division value {cfg.div0_value} is not an integer"
            )
        return const(cfg.div0_value, sort, loc)

    guards: dict[int, Ite] = {}  # id(division) -> its guard, which holds it

    def guarded(d: Div) -> Ite:
        if id(d) not in guards:
            zero = const(0, d.den.sort)
            guards[id(d)] = Ite(eq(d.den, zero), guard_value(d.sort, d.loc), d, d.loc)
        return guards[id(d)]

    def inline(node: Term, new: list[Term]) -> Term:
        if type(node) is Ite and _is_guard(node):
            return _rebuild_guard(node, *new)
        t = with_children(node, new)
        return guarded(t) if type(t) is Div else t

    if cfg.style is TotalizeStyle.BRANCH_INLINE:
        memo: dict[int, Term] = {}
        assertions = tuple(
            dag_fold(a, inline, _guard_pieces, memo) for a in script.assertions
        )
    else:
        # Each occurrence gets its own name, so the walk goes over the tree:
        # a non-leaf node is visited as a new (node, under a quantifier) pair
        # per path, and every pair is kept to the end, so no id is reused.
        # A leaf is its own rewrite and is visited once, as itself; so is a
        # node seen before that holds no division.
        pairs: list[tuple[Term, bool]] = []
        own_rewrite = division_free_repeats()
        fell_back = False

        def pieces(p) -> tuple:
            if type(p) is not tuple:
                return ()
            node, under = p
            inner = under or type(node) is Quantifier
            below = tuple(c if own_rewrite(c) else (c, inner) for c in _guard_pieces(node))
            pairs.extend(below)
            return below

        def named(p, new: list[Term]) -> Term:
            nonlocal fell_back
            if type(p) is not tuple:
                return p
            node, under = p
            if type(node) is not Div:
                return inline(node, new)
            t = with_children(node, new)
            if under:
                fell_back = True
                return guarded(t)
            name = next_fresh()
            taken.add(name)
            new_decls.append(FunDecl(name, (), t.sort))
            v = var(name, t.sort)
            defining.append(eq(v, guarded(t)))
            return v

        roots = [(a, False) for a in script.assertions]
        assertions = tuple(dag_fold(p, named, pieces) for p in roots)
        if fell_back:
            warnings.warn(
                "fresh-symbol totalization cannot name a division "
                "under a quantifier; falling back to an inline branch",
                stacklevel=2,
            )
    out = dataclasses.replace(
        script,
        decls=tuple(new_decls),
        assertions=assertions + tuple(defining),
    )
    if fold:
        out = fold_script(out)
    return out


# ---------------------------------------------------------------------------
# Constant folding.


def fold_term(term: Term) -> Term:
    """Bottom-up literal folding by `fold_node`; division by a literal zero
    is kept as is."""

    return dag_rewrite(term, fold_node)


def fold_script(script: Script) -> Script:
    memo: dict[int, Term] = {}
    return dataclasses.replace(
        script,
        assertions=tuple(dag_rewrite(a, fold_node, memo) for a in script.assertions),
    )


# ---------------------------------------------------------------------------
# Lifting division to an uninterpreted function.


@dataclass(frozen=True)
class UfLiftResult:
    script: Script
    div_symbol: str | None  # None when the input had no division
    guard_axiom: Term | None


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

    The symbol is axiomatized by `division_axiom`, so models may choose
    any value at zero divisors.  Its name avoids every declared and
    every quantifier-bound name.  Scripts with no division are returned
    untouched with no symbol and no axiom.
    """

    found = [
        t
        for a in script.assertions
        for t in distinct_subterms(a)
        if isinstance(t, (Div, Quantifier))
    ]
    divs = [t for t in found if isinstance(t, Div)]
    if not divs:
        return UfLiftResult(script, None, None)
    for d in divs:
        if d.sort is not Sort.REAL:
            raise SortError("cannot lift Int-sorted division to a Real function symbol")

    taken = {d.name for d in script.decls}
    taken.update(n for t in found if isinstance(t, Quantifier) for n, _ in t.bound)
    name = fresh_name("udiv", taken)

    def apply_symbol(t: Term) -> Term:
        if type(t) is Div:
            return Apply(name, (t.num, t.den), Sort.REAL, t.loc)
        return t

    memo: dict[int, Term] = {}
    axiom = division_axiom(name)
    out = dataclasses.replace(
        script,
        logic=_uf_logic(script.logic),
        decls=tuple(script.decls) + (FunDecl(name, (Sort.REAL, Sort.REAL), Sort.REAL),),
        assertions=tuple(dag_rewrite(a, apply_symbol, memo) for a in script.assertions)
        + (axiom,),
    )
    return UfLiftResult(out, name, axiom)


# ---------------------------------------------------------------------------
# Nonzero-divisor proof obligations.


def emit_nonzero_vcs(script: Script) -> list[Term]:
    """One closed Boolean term per division: its divisor is nonzero there.

    `ite` branch conditions become hypotheses, so a division guarded by
    its own zero test yields a tautology.  A division under quantifiers
    is universally closed over the bound variables; for an `exists`
    binder this is stronger than necessary, erring toward soundness.
    The list has one entry per occurrence, in pre-order; a shared node
    reached under the same hypotheses and binders is visited once.
    """

    # Outside every ite and quantifier a node is visited as itself.  Below
    # one, it is visited as one (node, context) pair per context object it is
    # reached under; a context (guards, binders) is new only below an ite
    # branch or a quantifier.
    top: tuple = ((), ())
    pairs: dict[tuple[int, int], tuple] = {}

    def below(item) -> tuple:
        """The items to visit below one: a leaf holds no division, so no leaf."""

        if type(item) is tuple:
            node, context = item
        elif type(item) is Ite or type(item) is Quantifier:
            node, context = item, top
        else:
            return tuple([c for c in children(item) if type(c) is not Var and type(c) is not Const])
        if type(node) is Ite:
            guards, binders = context
            kids = (
                (node.cond, context),
                (node.then, (guards + (node.cond,), binders)),
                (node.orelse, (guards + (neg(node.cond),), binders)),
            )
        elif type(node) is Quantifier:
            guards, binders = context
            kids = ((node.body, (guards, binders + (node.bound,))),)
        else:
            kids = [(c, context) for c in children(node)]
        return tuple([
            c if cx is top else pairs.setdefault((id(c), id(cx)), (c, cx))
            for c, cx in kids
            if type(c) is not Var and type(c) is not Const
        ])

    def obligations(item, inner: list[tuple]) -> tuple:
        """The VCs below an item, as nested tuples that share their parts."""

        node = item[0] if type(item) is tuple else item
        if type(node) is not Div and not any(inner):
            return ()
        guards, binders = item[1] if type(item) is tuple else top
        parts = [b for b in inner if b]
        if type(node) is Div:
            body: Term = neg(eq(node.den, const(0, node.den.sort)))
            if guards:
                body = implies(conj(*guards), body)
            for bound in reversed(binders):
                body = forall(bound, body)
            parts.insert(0, body)
        return tuple(parts)

    memo: dict[int, tuple] = {}
    stack = [dag_fold(a, obligations, below, memo) for a in reversed(script.assertions)]
    vcs: list[Term] = []
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(reversed(item))
        else:
            vcs.append(item)
    return vcs
