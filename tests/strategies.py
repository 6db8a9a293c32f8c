"""Hypothesis strategies over terms and scripts.

Generated constants stay decimal-friendly (denominator a power of 10),
so every generated script prints to text that parses back exactly.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from nradiv import Apply, Const, Div, Ite, Script, Sort, Term, Var
from nradiv.terms import (
    OPS,
    FunDecl,
    add,
    conj,
    const,
    dag_rewrite,
    distinct_subterms,
    div,
    eq,
    forall,
    implies,
    ite,
    le,
    lt,
    mul,
    neg,
    sub,
    var,
)

VAR_POOL = ("x", "y", "z")

rationals = st.builds(
    lambda n, k: Fraction(n, 10**k), st.integers(-999, 999), st.integers(0, 2)
)

_numeric_base = st.one_of(
    st.builds(const, rationals),
    st.sampled_from([var(name, Sort.REAL) for name in VAR_POOL]),
)


def _extend_numeric(children: st.SearchStrategy) -> st.SearchStrategy:
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: add(*ab)),
        pair.map(lambda ab: sub(*ab)),
        children.map(lambda a: sub(a)),
        pair.map(lambda ab: mul(*ab)),
        pair.map(lambda ab: div(*ab)),
    )


numeric_terms = st.recursive(_numeric_base, _extend_numeric, max_leaves=12)

# Numeric literals, zero often, under + - * /: terms that fold to a value
# unless they divide by zero.  Over Ints, a quotient may be no Int literal.
literal_terms = st.recursive(
    st.one_of(st.just(const(0)), st.builds(const, rationals)), _extend_numeric, max_leaves=8
)
int_literal_terms = st.recursive(
    st.integers(-9, 9).map(lambda n: const(n, Sort.INT)), _extend_numeric, max_leaves=8
)

_bool_base = st.one_of(
    st.tuples(numeric_terms, numeric_terms).map(lambda ab: lt(*ab)),
    st.tuples(numeric_terms, numeric_terms).map(lambda ab: le(*ab)),
    st.tuples(numeric_terms, numeric_terms).map(lambda ab: eq(*ab)),
)


def _extend_bool(children: st.SearchStrategy) -> st.SearchStrategy:
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(neg),
        pair.map(lambda ab: conj(*ab)),
        pair.map(lambda ab: Apply("or", ab, Sort.BOOL)),
        pair.map(lambda ab: implies(*ab)),
        st.tuples(children, children, children).map(lambda cab: ite(*cab)),
    )


bool_terms = st.recursive(_bool_base, _extend_bool, max_leaves=8)

_DECLS = tuple(FunDecl(name, (), Sort.REAL) for name in VAR_POOL)

scripts = st.lists(bool_terms, min_size=1, max_size=4).map(
    lambda assertions: Script(
        logic="QF_NRA",
        decls=_DECLS,
        assertions=tuple(assertions),
        check_sat=True,
    )
)

# ---------------------------------------------------------------------------
# Integer bodies for brute force: Int variables, integer literals and every
# builtin, with n-ary '-', chained comparisons, 'distinct', '=>' and Bool '='.

INT_POOL = ("a", "b", "c")

_int_base = st.one_of(
    st.integers(-3, 3).map(lambda n: const(n, Sort.INT)),
    st.sampled_from([var(name, Sort.INT) for name in INT_POOL]),
)


def _extend_int(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda args: add(*args)),
        st.lists(children, min_size=1, max_size=4).map(lambda args: sub(*args)),
        st.lists(children, min_size=2, max_size=3).map(lambda args: mul(*args)),
    )


int_terms = st.recursive(_int_base, _extend_int, max_leaves=8)


def _nary(op: str, args: st.SearchStrategy, most: int) -> st.SearchStrategy:
    return st.lists(args, min_size=2, max_size=most).map(
        lambda items: Apply(op, tuple(items), Sort.BOOL)
    )


_int_atoms = st.one_of(
    st.booleans().map(const),
    *(_nary(op, int_terms, 4) for op in ("<", "<=", ">", ">=", "=", "distinct")),
)


def _extend_int_bool(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        children.map(neg),
        *(_nary(op, children, 3) for op in ("and", "or", "=>", "=", "distinct")),
    )


int_bodies = st.recursive(_int_atoms, _extend_int_bool, max_leaves=6)


@st.composite
def rough_int_bodies(draw) -> Term:
    """An `int_bodies` body with one or two nodes replaced by hand, past
    every constructor's check but that of `Const`: by a literal, `2` or
    `1/2` under Real or Int and `true` or `false` under Bool; by a
    variable that may be the unlisted `d`; by a division, an `ite`, an
    application of a builtin or of a declared `g` to any number of
    arguments, or the node itself stating another sort, a literal
    keeping its kind.  Each new piece states the replaced node's sort,
    or any other."""

    body = draw(int_bodies)
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(distinct_subterms(body))
        target, other = (nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(2))
        sort = draw(st.sampled_from([target.sort, target.sort, *Sort]))
        kind = draw(st.sampled_from(("literal", "literal", "var", "div", "ite", "apply", "resort")))
        if kind == "literal":
            values = [True, False] if sort is Sort.BOOL else [Fraction(2), Fraction(1, 2)]
            new: Term = Const(draw(st.sampled_from(values)), sort)
        elif kind == "var":
            new = Var(draw(st.sampled_from(INT_POOL + ("d",))), sort)
        elif kind == "div":
            new = Div(target, other, sort)
        elif kind == "ite":
            new = Ite(other, target, target, sort)
        elif kind == "apply":
            op = draw(st.sampled_from(sorted(OPS) + ["g"]))
            new = Apply(op, (target,) * draw(st.integers(0, 3)), sort)
        elif type(target) is Apply:
            new = Apply(target.op, target.args, sort)
        elif type(target) is Var:
            new = Var(target.name, sort)
        elif type(target) is Const:  # a literal keeps its kind: Bool, or Real or Int
            kept = (sort is Sort.BOOL) == (target.sort is Sort.BOOL)
            new = Const(target.value, sort if kept else target.sort)
        else:  # a division or an `ite` put in before
            new = target
        body = dag_rewrite(body, lambda t: new if t is target else t)
    return body

# ---------------------------------------------------------------------------
# Scripts whose terms reuse generated subterms by identity, as the parser's
# expansion of `let` does: each step combines nodes drawn from a pool that
# already holds every earlier node, so one object can have many parents.


@st.composite
def shared_scripts(draw) -> Script:
    def pick(pool: list):
        return pool[draw(st.integers(0, len(pool) - 1))]

    nums = draw(st.lists(numeric_terms, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("+", "-", "*", "/", "guard")))
        a, b = pick(nums), pick(nums)
        if kind == "guard":  # the shape totalize emits, around shared pieces
            nums.append(ite(eq(b, const(0)), const(0), div(a, b)))
        else:
            nums.append({"+": add, "-": sub, "*": mul, "/": div}[kind](a, b))
    bools = [
        draw(st.sampled_from((lt, le, eq)))(pick(nums), pick(nums))
        for _ in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("not", "and", "or", "=>", "ite", "forall")))
        if kind == "not":
            bools.append(neg(pick(bools)))
        elif kind == "ite":  # a shared numeric term on both sides of a branch
            cond, a = pick(bools), pick(nums)
            bools.append(lt(ite(cond, a, pick(nums)), a))
        elif kind == "forall":
            bools.append(forall((("z", Sort.REAL),), pick(bools)))
        else:
            op = {"and": conj, "=>": implies}.get(kind)
            a, b = pick(bools), pick(bools)
            bools.append(op(a, b) if op else Apply("or", (a, b), Sort.BOOL))
    assertions = draw(st.lists(st.sampled_from(bools), min_size=1, max_size=3))
    return Script(logic="QF_NRA", decls=_DECLS, assertions=tuple(assertions), check_sat=True)


# ---------------------------------------------------------------------------
# Scripts for fresh-symbol totalization: Real and Int divisions, nodes shared
# by identity and doubled as nested `let`s double them, guards already in
# place, and quantifiers that hold a division, reached on several paths and
# sharing divisions with the terms outside them.

_FRESH_DECLS = (
    FunDecl("x", (), Sort.REAL),
    FunDecl("y", (), Sort.REAL),
    FunDecl("a", (), Sort.INT),
    FunDecl("b", (), Sort.INT),
)


@st.composite
def fresh_scripts(draw) -> Script:
    def pick(pool: list):  # the newest node half the time, so chains grow
        return pool[-1] if draw(st.booleans()) else pool[draw(st.integers(0, len(pool) - 1))]

    x, y, a, b = (var(d.name, d.result) for d in _FRESH_DECLS)
    z = var("z")  # bound by every quantifier
    nums = {Sort.REAL: [x, y, div(x, y)], Sort.INT: [a, b, div(a, b)]}
    for _ in range(draw(st.integers(1, 8))):
        pool = nums[draw(st.sampled_from((Sort.REAL, Sort.INT)))]
        kind = draw(st.sampled_from(("double", "double", "+", "*", "/", "guard")))
        u, v = pick(pool), pick(pool)
        if kind == "double":  # `(let ((a1 (+ a0 a0))) ...)`
            pool.append(add(u, u))
        elif kind == "guard":  # `(ite (= v 0) c (/ u v))`
            pool.append(ite(eq(v, const(0, v.sort)), pick(pool), div(u, v)))
        else:
            pool.append({"+": add, "*": mul, "/": div}[kind](u, v))
    real, ints = nums[Sort.REAL], nums[Sort.INT]
    bools = [lt(pick(real), pick(real)), lt(pick(ints), pick(ints))]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("forall", "forall", "twice", "and", "not", "ite")))
        if kind == "forall":  # a division by the bound variable, or of terms from outside
            den = z if draw(st.booleans()) else pick(real)
            body = lt(div(pick(real), den), pick(real))
            bools.append(forall((("z", Sort.REAL),), conj(body, pick(bools))))
        elif kind == "twice":  # one node on two paths
            p = pick(bools)
            bools.append(conj(p, p))
        elif kind == "and":
            bools.append(conj(pick(bools), pick(bools)))
        elif kind == "not":
            bools.append(neg(pick(bools)))
        else:
            u = pick(real)
            bools.append(lt(ite(pick(bools), u, pick(real)), u))
    assertions = draw(st.lists(st.sampled_from(bools), min_size=1, max_size=4))
    return Script(logic="ALL", decls=_FRESH_DECLS, assertions=tuple(assertions), check_sat=True)
