"""The term node contract: slotted, immutable, structurally equal and
hashed without locations and without recursion (`==` is `same_term`, an
iterative, shared-node aware walk), a location on divisions only, `repr`
without recursion, and the constructors' sort rule."""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nradiv import (
    Apply,
    Const,
    Div,
    Ite,
    Loc,
    Quantifier,
    Script,
    ScriptError,
    Sort,
    SortError,
    Term,
    Var,
    parse_script,
    print_script,
    totalize,
)
from nradiv.terms import (
    add,
    conj,
    const,
    dag_fold,
    div,
    eq,
    implies,
    ite,
    le,
    lt,
    mul,
    neg,
    same_term,
    sub,
    var,
)

from strategies import bool_terms, numeric_terms, shared_scripts
from support import subterms

HERE, THERE = Loc(3, 7), Loc(9, 1)


def samples(loc: Loc) -> list[Term]:
    """One node of each class, every field set; the division is at `loc`,
    and every node but the leaves holds it."""

    x = Var("x", Sort.REAL)
    half = Const(Fraction(1, 2), Sort.REAL)
    d = Div(x, half, Sort.REAL, loc)
    cond = Apply("<", (d, half), Sort.BOOL)
    return [
        half,
        x,
        cond,
        d,
        Ite(cond, x, half, Sort.REAL),
        Quantifier("forall", (("x", Sort.REAL),), cond),
    ]


def class_name(node: Term) -> str:
    return type(node).__name__


@pytest.mark.parametrize("node", samples(HERE), ids=class_name)
def test_nodes_have_no_instance_dict(node):
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("node", samples(HERE), ids=class_name)
def test_nodes_are_frozen(node):
    for f in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, getattr(node, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del node.extra


@pytest.mark.parametrize("a, b", zip(samples(HERE), samples(THERE)), ids=map(class_name, samples(HERE)))
def test_equality_and_hash_ignore_locations(a, b):
    assert a is not b
    if type(a) not in (Const, Var):
        assert [n.loc for n in subterms(a) if type(n) is Div] == [HERE]
        assert [n.loc for n in subterms(b) if type(n) is Div] == [THERE]
    assert a == b and hash(a) == hash(b) and same_term(a, b)


def test_constructor_defaults():
    d = Div(var("x"), var("y"))
    assert d.sort is Sort.REAL and d.loc == Loc(0, 0)
    assert Div(var("x"), var("y"), loc=HERE).loc == HERE
    for node in samples(HERE):
        assert hasattr(node, "loc") == (type(node) is Div)


def test_repr_is_unchanged():
    half = "Const(value=Fraction(1, 2), sort=<Sort.REAL: 'Real'>)"
    x = "Var(name='x', sort=<Sort.REAL: 'Real'>)"
    d = f"Div(num={x}, den={half}, sort=<Sort.REAL: 'Real'>, loc=Loc(line=3, col=7))"
    cond = f"Apply(op='<', args=({d}, {half}), sort=<Sort.BOOL: 'Bool'>)"
    expected = [
        half,
        x,
        cond,
        d,
        f"Ite(cond={cond}, then={x}, orelse={half}, sort=<Sort.REAL: 'Real'>)",
        f"Quantifier(kind='forall', bound=(('x', <Sort.REAL: 'Real'>),), body={cond})",
    ]
    assert [repr(n) for n in samples(HERE)] == expected
    assert repr(Apply("f", (), Sort.REAL)) == "Apply(op='f', args=(), sort=<Sort.REAL: 'Real'>)"
    assert repr(Apply("-", (var("x"),), Sort.REAL)) == f"Apply(op='-', args=({x},), sort=<Sort.REAL: 'Real'>)"
    assert repr(const(True)) == "Const(value=True, sort=<Sort.BOOL: 'Bool'>)"


def test_repr_of_a_deep_term_does_not_recurse():
    t = var("x")
    for i in range(10_000):
        t = add(t, const(i % 3))
    text = repr(t)
    assert text.startswith("Apply(op='+', args=(" * 10_000 + "Var(name='x'")
    assert text.count("Const(") == 10_000


def test_positional_match_patterns_bind():
    """The shapes `passes.py`, `encoder.py` and `evaluator.py` match on."""

    y = var("y")
    guard = ite(eq(y, const(0)), const(0), div(var("x"), y))
    match guard:
        case Ite(Apply("=", (u, Const(z, _)), _), _, Div(_, u2)):
            assert u is y and u2 is y and z == 0
        case _:
            pytest.fail("guard shape did not match")
    match add(const(1), const(2)):
        case Apply(op, args, sort) if all(type(a) is Const for a in args):
            assert (op, sort) == ("+", Sort.REAL) and len(args) == 2
        case _:
            pytest.fail("Apply(op, args, sort) did not match")
    match div(const(1), const(2)):
        case Div(Const(n, _), Const(d, _), sort):
            assert (n, d, sort) == (1, 2, Sort.REAL)
        case _:
            pytest.fail("Div(Const, Const, sort) did not match")
    match Ite(const(True), y, const(0), Sort.REAL):
        case Ite(Const(c, _), then, orelse):
            assert c is True and then is y and orelse == const(0)
        case _:
            pytest.fail("Ite(Const, then, orelse) did not match")
    match const(3, Sort.INT):
        case Const(value, sort):
            assert (value, sort) == (3, Sort.INT)
    match var("a", Sort.INT):
        case Var(name, sort):
            assert (name, sort) == ("a", Sort.INT)
    match lt(y, y):
        case Apply(op, _, _):
            assert op == "<"


# ---------------------------------------------------------------------------
# same_term


def doublings(k: int) -> Term:
    """`x` doubled k times: 2^(k+1) - 1 tree nodes, k + 1 distinct ones."""

    t = var("x")
    for _ in range(k):
        t = add(t, t)
    return t


def copy_term(term: Term) -> Term:
    """An equal term sharing no node with `term`, every division moved."""

    def rebuild(node: Term, new: list[Term]) -> Term:
        if type(node) is Const:
            return Const(node.value, node.sort)
        if type(node) is Var:
            return Var(node.name, node.sort)
        if type(node) is Apply:
            return Apply(node.op, tuple(new), node.sort)
        if type(node) is Div:
            return Div(new[0], new[1], node.sort, THERE)
        if type(node) is Ite:
            return Ite(*new, node.sort)
        return Quantifier(node.kind, node.bound, new[0])

    return dag_fold(term, rebuild)


def test_existing_guard_over_separately_built_dags_is_kept():
    """`(ite (= A 0) 0 (/ x B))`, A and B equal but separate 2^41-node
    trees: `==` would walk them; the guard is recognised in DAG time."""

    a, b = doublings(40), doublings(40)
    assert a is not b and same_term(a, b)
    guard = ite(eq(a, const(0)), const(0), div(var("x"), b))
    script = Script(logic="QF_NRA", assertions=(lt(guard, const(1)),))
    kept = totalize(script).assertions[0].args[0] is guard  # no repr of 2^41 nodes on failure
    assert kept


def test_existing_guard_5000_deep_is_recognised_without_recursion():
    def chain() -> Term:
        t = var("y")
        for i in range(5000):
            t = add(t, const(i % 3))
        return t

    a, b = chain(), chain()
    guard = ite(eq(a, const(0)), const(0), div(var("x"), b))
    script = Script(logic="QF_NRA", assertions=(lt(guard, const(1)),))
    kept = totalize(script).assertions[0].args[0] is guard
    assert kept
    assert not same_term(a, add(b.args[0], const(2)))


def test_same_term_tells_near_misses_apart():
    x, y = var("x"), var("y")
    assert not same_term(add(x, y), add(y, x))
    assert not same_term(add(x, y), add(x, y, y))
    assert not same_term(add(x, y), Apply("+", (x, y), Sort.INT))
    assert not same_term(const(1), const(1, Sort.INT))
    assert not same_term(div(x, y), Apply("/", (x, y), Sort.REAL))
    assert not same_term(x, var("x", Sort.INT))
    q = Quantifier("forall", (("z", Sort.REAL),), lt(x, y))
    assert not same_term(q, Quantifier("exists", q.bound, q.body))
    assert not same_term(q, Quantifier("forall", (("w", Sort.REAL),), q.body))


def deep_term(depth: int, bottom: str = "x") -> Term:
    text = "(declare-fun x () Real)(assert (= x " + "(+ 1 " * depth + bottom + ")" * depth + "))"
    return parse_script(text).assertions[0]


def test_deep_terms_compare_and_hash_without_recursion():
    a, b = deep_term(10_000), deep_term(10_000)
    assert a is not b and a == b and hash(a) == hash(b)
    near_miss = deep_term(10_000, "2")
    assert a != near_miss and not same_term(a, near_miss)


def test_hash_tells_small_terms_apart():
    x, y = var("x"), var("y")
    distinct = [x, y, const(1), const(1, Sort.INT), add(x, y), add(y, x), add(x, x, y), lt(x, y)]
    distinct += [div(x, y), div(y, x), ite(lt(x, y), x, y), ite(lt(x, y), y, x)]
    assert len({hash(t) for t in distinct}) == len(distinct)


def test_separately_built_dags_compare_and_hash_in_dag_time():
    a, b = doublings(40), doublings(40)  # 2^41 - 1 tree nodes each
    start = time.perf_counter()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != doublings(39)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The constructors apply the parser's sort rule (`terms.result_sort`).

X, N, P = var("x"), var("n", Sort.INT), var("p", Sort.BOOL)


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: add(X, P), "(+ x p)"),
        (lambda: add(X), "(+ x)"),
        (lambda: sub(N, X), "(- n x)"),
        (lambda: sub(P), "(- p)"),
        (lambda: sub(const(True)), "(- true)"),
        (lambda: mul(X, N), "(* x n)"),
        (lambda: div(P, X), "(/ p x)"),
        (lambda: lt(X, P), "(< x p)"),
        (lambda: le(N, X), "(<= n x)"),
        (lambda: eq(X, P), "(= x p)"),
        (lambda: neg(X), "(not x)"),
        (lambda: conj(P, X), "(and p x)"),
        (lambda: implies(N, P), "(=> n p)"),
        (lambda: ite(X, X, X), "(ite x x x)"),
        (lambda: ite(P, X, P), "(ite p x p)"),
    ],
)
def test_constructors_raise_what_the_parser_raises(build, text):
    header = "(declare-fun x () Real)(declare-fun n () Int)(declare-fun p () Bool)"
    with pytest.raises(ScriptError) as parsed:
        parse_script(f"{header}(assert {text})")
    with pytest.raises(SortError) as built:
        build()
    assert str(parsed.value).startswith(f"{built.value} (line 1, column ")


def test_a_literal_holds_a_fraction_under_real_or_int_and_a_bool_under_bool():
    """The one literal rule, checked where a `Const` is built."""

    for value in (2, 0.5, float("nan"), float("inf"), True, "1"):
        for sort in (Sort.INT, Sort.REAL):
            want = f"^{sort} literal must be a Fraction, not {type(value).__name__}$"
            with pytest.raises(SortError, match=want):
                Const(value, sort)
    for value in (Fraction(1), 1, "1"):
        want = f"^Bool literal must be a bool, not {type(value).__name__}$"
        with pytest.raises(SortError, match=want):
            Const(value, Sort.BOOL)
    assert const(2, Sort.INT) == Const(Fraction(2), Sort.INT)
    assert type(const(2, Sort.INT).value) is Fraction
    assert const(True) == Const(True, Sort.BOOL)


def test_sort_errors_name_the_argument_to_blame():
    with pytest.raises(SortError) as excinfo:
        add(X, X, P)
    assert excinfo.value.arg == 2
    with pytest.raises(SortError) as excinfo:
        eq(X, P)
    assert excinfo.value.arg is None


terms = st.one_of(numeric_terms, bool_terms)
pairs = st.one_of(
    st.tuples(terms, terms),
    terms.map(lambda t: (t, copy_term(t))),
    shared_scripts().map(lambda s: (s.assertions[0], parse_script(print_script(s)).assertions[0])),
)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_same_term_agrees_with_equality(pair):
    a, b = pair
    assert same_term(a, b) == (a == b)
    assert same_term(b, a) == (a == b)
