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
    OPS,
    Term,
    apply_op,
    children,
    conj,
    const,
    eq,
    forall,
    fresh_name,
    implies,
    map_children,
    mul,
    neg,
    subterms,
    var,
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


def totalize(
    script: Script, config: TotalizeConfig | None = None, fold: bool = False
) -> Script:
    """Give every division a value at zero divisors via an explicit branch.

    BRANCH_INLINE turns `(/ t u)` into `(ite (= u 0) c (/ t u))` in
    place.  FRESH_SYMBOL instead names the guarded value with a fresh
    constant and a defining assertion; divisions under a quantifier fall
    back to the inline branch, since a script-level constant cannot
    depend on bound variables.  The pass is idempotent either way.
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

    def guarded(d: Div) -> Ite:
        zero = const(0, d.den.sort)
        return Ite(eq(d.den, zero), guard_value(d.sort, d.loc), d, d.loc)

    def rewrite(term: Term, under_quantifier: bool) -> Term:
        if _is_guard(term):
            # Keep the existing guard; rewrite inside its pieces only.
            assert isinstance(term, Ite)
            d = term.orelse
            assert isinstance(d, Div)
            den = rewrite(d.den, under_quantifier)
            num = rewrite(d.num, under_quantifier)
            zero = term.cond.args[1]
            return Ite(
                Apply("=", (den, zero), Sort.BOOL, term.cond.loc),
                rewrite(term.then, under_quantifier),
                Div(num, den, d.sort, d.loc),
                term.loc,
            )
        match term:
            case Div(num, den):
                d = Div(
                    rewrite(num, under_quantifier),
                    rewrite(den, under_quantifier),
                    term.sort,
                    term.loc,
                )
                if cfg.style is TotalizeStyle.FRESH_SYMBOL:
                    if under_quantifier:
                        warnings.warn(
                            "fresh-symbol totalization cannot name a division "
                            "under a quantifier; falling back to an inline branch",
                            stacklevel=2,
                        )
                        return guarded(d)
                    name = next_fresh()
                    taken.add(name)
                    new_decls.append(FunDecl(name, (), d.sort))
                    v = var(name, d.sort)
                    defining.append(eq(v, guarded(d)))
                    return v
                return guarded(d)
            case Quantifier():
                return map_children(term, lambda c: rewrite(c, True))
            case _:
                return map_children(term, lambda c: rewrite(c, under_quantifier))

    assertions = tuple(rewrite(a, False) for a in script.assertions)
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
    """Bottom-up literal folding; division by a literal zero is kept as is."""

    t = map_children(term, fold_term)
    match t:
        case Apply(op, args, sort) if op in OPS and all(isinstance(a, Const) for a in args):
            meaning = OPS[op]
            kinds = {"bool" if isinstance(a.value, bool) else "num" for a in args}
            well_sorted = meaning.args == "any" or kinds == {meaning.args}
            if not (well_sorted and meaning.takes(len(args))):
                return t
            out = apply_op(op, [a.value for a in args])
            return Const(out, sort if meaning.result == "num" else Sort.BOOL, t.loc)
        case Div(Const(n, _), Const(d, _), sort) if not isinstance(n, bool) and d != 0:
            return Const(n / d, sort, t.loc)
        case Ite(Const(c, _), then, orelse) if isinstance(c, bool):
            return then if c else orelse
        case _:
            return t


def fold_script(script: Script) -> Script:
    return dataclasses.replace(
        script, assertions=tuple(fold_term(a) for a in script.assertions)
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
        for t in subterms(a)
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

    def rewrite(term: Term) -> Term:
        if isinstance(term, Div):
            return Apply(
                name, (rewrite(term.num), rewrite(term.den)), Sort.REAL, term.loc
            )
        return map_children(term, rewrite)

    axiom = division_axiom(name)
    out = dataclasses.replace(
        script,
        logic=_uf_logic(script.logic),
        decls=tuple(script.decls) + (FunDecl(name, (Sort.REAL, Sort.REAL), Sort.REAL),),
        assertions=tuple(rewrite(a) for a in script.assertions) + (axiom,),
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
    """

    vcs: list[Term] = []

    def walk(term: Term, guards: tuple[Term, ...], binders) -> None:
        match term:
            case Div(num, den):
                body: Term = neg(eq(den, const(0, den.sort)))
                if guards:
                    body = implies(conj(*guards), body)
                for bound in reversed(binders):
                    body = forall(bound, body)
                vcs.append(body)
                walk(num, guards, binders)
                walk(den, guards, binders)
            case Ite(cond, then, orelse):
                walk(cond, guards, binders)
                walk(then, guards + (cond,), binders)
                walk(orelse, guards + (neg(cond),), binders)
            case Quantifier(_, bound, qbody):
                walk(qbody, guards, binders + (bound,))
            case _:
                for c in children(term):
                    walk(c, guards, binders)

    for assertion in script.assertions:
        walk(assertion, (), ())
    return vcs
