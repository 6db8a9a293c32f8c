"""Seeded input generators, each with an independent reference.

Nothing here imports nradiv.  Every expected result (verdicts, division
counts by divisor class, truth values, integer witnesses and point
counts) comes from the generator's own expression trees and plain Python
arithmetic, so the benchmark never checks nradiv against itself.

Expression trees are tuples:
    ("num", Fraction)            literal
    ("var", name)                declared constant or bound variable
    ("/", num, den, divisor_class)
    ("ite", cond, then, orelse)
    ("forall"|"exists", ((name, "Real"), ...), body)
    (op, arg, ...)               any other operator
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NONZERO = "constant-nonzero"
ZERO = "constant-zero"
NONCONST = "non-constant"
CLASSES = (NONZERO, ZERO, NONCONST)

POLY = "polynomial-only"
CONSTDIV = "constant-division-only"
NONCONSTDIV = "non-constant-division"


@dataclass(frozen=True)
class RealCase:
    """A Real-arithmetic script and what the generator planted in it."""

    name: str
    text: str
    verdict: str
    classes: dict[str, int]  # division nodes by divisor class, counted as a tree
    shared: bool  # let-sharing: occurrence counts depend on tree vs DAG counting
    assignment: dict[str, Fraction]
    truths: tuple[bool | None, ...]  # per assertion under x/0 = 0; None if quantified
    vc_text: str | None = None  # shared case: the one divisor's nonzero obligation

    @property
    def divisions(self) -> int:
        return sum(self.classes.values())


@dataclass(frozen=True)
class IntCase:
    """An integer problem and its witness found by plain enumeration."""

    name: str
    text: str
    variables: tuple[str, ...]
    bound: int
    witness: tuple[int, ...] | None  # first in lexicographic order
    points: int  # assignments enumerated up to and including the witness
    holds: Callable[[tuple[int, ...]], bool]


def rng_for(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


def verdict_of(classes: dict[str, int]) -> str:
    if not any(classes.values()):
        return POLY
    if classes[ZERO] == 0 and classes[NONCONST] == 0:
        return CONSTDIV
    return NONCONSTDIV


# ---------------------------------------------------------------------------
# Rendering and the reference evaluator for generator trees.


def render_rational(q: Fraction) -> str:
    if q < 0:
        return f"(- {render_rational(-q)})"
    for s in range(40):
        scaled = q * 10**s
        if scaled.denominator == 1:
            if s == 0:
                return str(scaled.numerator)
            digits = str(scaled.numerator).rjust(s + 1, "0")
            return f"{digits[:-s]}.{digits[-s:]}"
    raise ValueError(f"{q} has no short decimal form")


def render(t: tuple) -> str:
    head = t[0]
    if head == "num":
        return render_rational(t[1])
    if head == "var":
        return t[1]
    if head == "/":
        return f"(/ {render(t[1])} {render(t[2])})"
    if head in ("forall", "exists"):
        binders = " ".join(f"({n} {s})" for n, s in t[1])
        return f"({head} ({binders}) {render(t[2])})"
    return f"({head} {' '.join(render(a) for a in t[1:])})"


def value(t: tuple, env: dict[str, Fraction]):
    """Exact value with the reading x/0 = 0; quantifiers are not evaluated."""

    head = t[0]
    if head == "num":
        return t[1]
    if head == "var":
        return env[t[1]]
    if head == "/":
        d = value(t[2], env)
        return Fraction(0) if d == 0 else value(t[1], env) / d
    if head == "ite":
        return value(t[2], env) if value(t[1], env) else value(t[3], env)
    args = [value(a, env) for a in t[1:]]
    if head == "+":
        return sum(args, Fraction(0))
    if head == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:], Fraction(0))
    if head == "*":
        return math.prod(args, start=Fraction(1))
    if head in ("<", "<=", ">", ">=", "="):
        cmp = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "=": lambda a, b: a == b,
        }[head]
        return all(cmp(a, b) for a, b in zip(args, args[1:]))
    if head == "distinct":
        return len(set(args)) == len(args)
    if head == "not":
        return not args[0]
    if head == "and":
        return all(args)
    if head == "or":
        return any(args)
    if head == "=>":
        return (not args[0]) or args[1]
    raise ValueError(f"unknown operator {head!r}")


def count_classes(t: tuple, out: dict[str, int]) -> None:
    stack = [t]
    while stack:
        node = stack.pop()
        head = node[0]
        if head in ("num", "var"):
            continue
        if head == "/":
            out[node[3]] += 1
            stack.extend(node[1:3])
        elif head in ("forall", "exists"):
            stack.append(node[2])
        else:
            stack.extend(node[1:])


def is_quantified(t: tuple) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        head = node[0]
        if head in ("forall", "exists"):
            return True
        if head == "/":
            stack.extend(node[1:3])
        elif head not in ("num", "var"):
            stack.extend(node[1:])
    return False


# ---------------------------------------------------------------------------
# wide: many assertions, no let sharing.

_LITERALS = [Fraction(n) for n in range(1, 10)] + [Fraction(5, 2), Fraction(1, 2), Fraction(3, 4)]
_DIVISOR_KINDS = ("nonzero", "product", "zero", "three-minus-three", "variable", "guarded")
_COMPARISONS = ("<", "<=", ">", ">=", "=", "distinct")


class _WideBuilder:
    """Builds assertions from two random streams: `shape` decides the tree
    structure (operators, divisor kinds, depth), `leaf` the variables and
    literal values.  Seeding only `leaf` varies the inputs from seed to seed
    while the work they cost stays the same."""

    def __init__(self, shape: random.Random, leaf: random.Random, variables: list[str], palette: tuple[str, ...]):
        self.shape = shape
        self.leaf_rng = leaf
        self.variables = variables
        self.palette = palette  # divisor kinds allowed in this file; () means none

    def literal(self) -> tuple:
        q = self.leaf_rng.choice(_LITERALS)
        return ("num", -q if self.leaf_rng.random() < 0.2 else q)

    def leaf(self, scope: list[str]) -> tuple:
        if self.shape.random() < 0.7:
            return ("var", self.leaf_rng.choice(scope))
        return self.literal()

    def division(self, depth: int, scope: list[str]) -> tuple:
        kind = self.shape.choice(self.palette)
        num = self.expr(depth - 1, scope)
        if kind == "nonzero":
            return ("/", num, self.literal(), NONZERO)
        if kind == "product":
            a, b = self.leaf_rng.randint(1, 5), self.leaf_rng.randint(1, 5)
            return ("/", num, ("*", ("num", Fraction(a)), ("num", Fraction(b))), NONZERO)
        if kind == "zero":
            return ("/", num, ("num", Fraction(0)), ZERO)
        if kind == "three-minus-three":
            three = ("num", Fraction(3))
            return ("/", num, ("-", three, three), ZERO)
        v = ("var", self.leaf_rng.choice(scope))
        if kind == "variable":
            return ("/", num, v, NONCONST)
        # guarded: (ite (= v 0) 0 (/ num v)), the shape totalize emits
        return ("ite", ("=", v, ("num", Fraction(0))), ("num", Fraction(0)), ("/", num, v, NONCONST))

    def expr(self, depth: int, scope: list[str]) -> tuple:
        if depth <= 0 or self.shape.random() < 0.2:
            return self.leaf(scope)
        r = self.shape.random()
        if self.palette and r < 0.3:
            return self.division(depth, scope)
        if r < 0.38:
            return ("ite", self.comparison(depth - 2, scope), self.expr(depth - 1, scope), self.expr(depth - 1, scope))
        op = self.shape.choice("+-*")
        arity = 2 if op == "*" else self.shape.choice((2, 2, 3))
        return (op, *(self.expr(depth - 1, scope) for _ in range(arity)))

    def comparison(self, depth: int, scope: list[str]) -> tuple:
        op = self.shape.choice(_COMPARISONS)
        return (op, self.expr(depth, scope), self.expr(depth, scope))

    def assertion(self) -> tuple:
        r = self.shape.random()
        if r < 0.12:
            bound = f"q{self.leaf_rng.randint(0, 9)}"
            scope = self.variables + [bound]
            guard = (">", ("var", bound), ("num", Fraction(1)))
            body = ("=>", guard, self.comparison(3, scope))
            return (self.shape.choice(("forall", "forall", "exists")), ((bound, "Real"),), body)
        if r < 0.35:
            op = self.shape.choice(("and", "or", "=>"))
            return (op, self.comparison(3, self.variables), self.comparison(3, self.variables))
        if r < 0.42:
            return ("not", self.comparison(4, self.variables))
        return self.comparison(4, self.variables)


_PALETTES = (
    _DIVISOR_KINDS,
    _DIVISOR_KINDS,
    ("nonzero", "product"),
    _DIVISOR_KINDS,
    ("zero", "three-minus-three", "variable"),
    (),
    _DIVISOR_KINDS,
    ("guarded", "variable", "nonzero"),
)


def _assignment(rng: random.Random, names: list[str]) -> dict[str, Fraction]:
    choices = [Fraction(n) for n in range(-3, 4)] + [Fraction(1, 2), Fraction(-3, 2)]
    return {n: rng.choice(choices) for n in names}


def wide_case(
    shape: random.Random, rng: random.Random, name: str, target_bytes: int, palette: tuple[str, ...]
) -> RealCase:
    variables = [f"x{i}" for i in range(8)]
    builder = _WideBuilder(shape, rng, variables, palette)
    trees: list[tuple] = []
    body_len = 0
    while body_len < target_bytes or not trees:
        t = builder.assertion()
        trees.append(t)
        body_len += len(render(t)) + 10
    quantified = [is_quantified(t) for t in trees]
    logic = "NRA" if any(quantified) else "QF_NRA"
    lines = [f"; {name}", f"(set-logic {logic})"]
    lines += [f"(declare-fun {v} () Real)" for v in variables]
    lines += [f"(assert {render(t)})" for t in trees]
    lines.append("(check-sat)")
    classes = dict.fromkeys(CLASSES, 0)
    for t in trees:
        count_classes(t, classes)
    env = _assignment(rng, variables)
    truths = tuple(None if q else bool(value(t, env)) for t, q in zip(trees, quantified))
    return RealCase(name, "\n".join(lines) + "\n", verdict_of(classes), classes, False, env, truths)


def wide_sizes(count: int, smallest: int, largest: int) -> list[int]:
    """Byte targets spread log-uniformly, the same for every seed."""

    ratio = (largest / smallest) ** (1 / max(count - 1, 1))
    return [round(smallest * ratio**i) for i in range(count)]


def wide_cases(seed: int, sizes: list[int], prefix: str = "wide") -> list[RealCase]:
    """Sizes, divisor palettes and tree shapes are fixed by position, so every
    seed does about the same amount of work; the seed picks the variables,
    literals and the assignment."""

    rng = rng_for(prefix, seed)
    return [
        wide_case(rng_for(f"{prefix}-shape", i), rng, f"{prefix}-{i:02d}", size, _PALETTES[i % len(_PALETTES)])
        for i, size in enumerate(sizes)
    ]


# ---------------------------------------------------------------------------
# let-shared: K nested doubling lets over one division.

_LET_DIVISORS = (
    ("y", NONCONST),
    ("4", NONZERO),
    ("(- 3 3)", ZERO),
)


def let_case(rng: random.Random, name: str, k: int, divisor: str, cls: str) -> RealCase:
    # Dyadic x over a signed power of two (or 0) keeps 2^K * (x/y) a finite decimal.
    xs = [Fraction(n) for n in (-3, -2, -1, 0, 1, 2, 5)] + [Fraction(1, 2), Fraction(-3, 2)]
    ys = [Fraction(n) for n in (-2, -1, 0, 1, 2, 4)] + [Fraction(1, 2)]
    env = {"x": rng.choice(xs), "y": rng.choice(ys)}
    den = env["y"] if divisor == "y" else Fraction(4 if divisor == "4" else 0)
    top = (2**k) * (Fraction(0) if den == 0 else env["x"] / den)  # closed form 2^K * (x/y)
    holds = rng.random() < 0.5
    rhs = top if holds else top + 1
    comparison = rng.choice(("=", "<=", ">="))
    if comparison == "<=":
        truth = top <= rhs
    elif comparison == ">=":
        truth = top >= rhs
    else:
        truth = top == rhs
    text = "(let ((a0 (/ x " + divisor + "))) "
    for i in range(1, k + 1):
        prev = f"a{i - 1}"
        step = f"(+ {prev} {prev})" if i % 2 else f"(- (* 3 {prev}) {prev})"
        text += f"(let ((a{i} {step})) "
    text += f"({comparison} a{k} {render_rational(rhs)})" + ")" * (k + 1)
    lines = [
        f"; {name}",
        "(set-logic QF_NRA)",
        "(declare-fun x () Real)",
        "(declare-fun y () Real)",
        f"(assert {text})",
        "(check-sat)",
    ]
    classes = dict.fromkeys(CLASSES, 0)
    classes[cls] = 2**k  # tree occurrences; see RealCase.shared
    return RealCase(
        name, "\n".join(lines) + "\n", verdict_of(classes), classes, True, env,
        (truth,), vc_text=f"(not (= {divisor} 0))",
    )


def let_cases(seed: int, ks: list[int], prefix: str = "let") -> list[RealCase]:
    """The shapes (K, divisor, doubling steps) are fixed by position, so every
    seed does the same amount of work; the seed picks the values."""

    rng = rng_for(prefix, seed)
    return [
        let_case(rng, f"{prefix}-{i:02d}-k{k}", k, *_LET_DIVISORS[i % len(_LET_DIVISORS)])
        for i, k in enumerate(ks)
    ]


# ---------------------------------------------------------------------------
# int-box: integer problems with a planted first witness, or none.


@dataclass(frozen=True)
class _Template:
    variables: tuple[str, ...]
    key: Callable[[tuple[int, ...], tuple[int, ...]], int | None]  # None: side condition fails
    text: Callable[[tuple[int, ...], str], str]  # coefficients, rendered k -> body
    coefficients: Callable[[random.Random], tuple[int, ...]]


def _int_lit(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


TEMPLATES = {
    "cubic": _Template(
        ("a", "b", "c"),
        lambda p, cf: p[0] ** 3 + p[1] ** 3 - p[2] ** 3,
        lambda cf, k: f"(= (+ (* a a a) (* b b b)) (+ (* c c c) {k}))",
        lambda rng: (),
    ),
    "quadratic": _Template(
        ("a", "b", "c"),
        lambda p, cf: cf[0] * p[0] * p[0] + cf[1] * p[1] * p[1] + cf[2] * p[2] * p[2] + cf[3] * p[0] * p[1],
        lambda cf, k: (
            f"(= (+ (* {cf[0]} a a) (* {cf[1]} b b) (* {cf[2]} c c) (* {_int_lit(cf[3])} a b)) {k})"
        ),
        lambda rng: (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5), rng.randint(-3, 3)),
    ),
    "bilinear": _Template(
        ("a", "b", "c", "d"),
        lambda p, cf: p[0] * p[1] - p[2] * p[3] if p[0] <= p[2] else None,
        lambda cf, k: f"(and (= (- (* a b) (* c d)) {k}) (<= a c))",
        lambda rng: (),
    ),
}


def int_case(rng: random.Random, name: str, template: str, bound: int, at: float | None) -> IntCase:
    """Plant the first witness near fraction `at` of the box, or none if `at` is None."""

    tpl = TEMPLATES[template]
    cf = tpl.coefficients(rng)
    box = list(itertools.product(range(-bound, bound + 1), repeat=len(tpl.variables)))
    keys = [tpl.key(p, cf) for p in box]
    first: dict[int, int] = {}
    for i, kv in enumerate(keys):
        if kv is not None:
            first.setdefault(kv, i)
    if at is None:
        lo, hi = min(first), max(first)
        k = rng.randint(lo, hi)
        while k in first:
            k += 1
    else:
        # The nearest first occurrence at or after the target, else before it:
        # symmetric forms repeat every value of the box's second half.
        start = int(at * len(box)) + rng.randrange(max(1, len(box) // 50))
        later = range(start, len(box))
        earlier = range(min(start, len(box)) - 1, -1, -1)
        i = next(j for j in itertools.chain(later, earlier) if first.get(keys[j]) == j)
        k = keys[i]

    def holds(p: tuple[int, ...], cf=cf, k=k, key=tpl.key) -> bool:
        return key(p, cf) == k

    witness, points = None, len(box)
    for n, p in enumerate(itertools.product(range(-bound, bound + 1), repeat=len(tpl.variables)), 1):
        if holds(p):
            witness, points = p, n
            break
    lines = [f"; {name}", "(set-logic QF_NIA)"]
    lines += [f"(declare-fun {v} () Int)" for v in tpl.variables]
    lines += [f"(assert {tpl.text(cf, _int_lit(k))})", "(check-sat)"]
    return IntCase(name, "\n".join(lines) + "\n", tpl.variables, bound, witness, points, holds)


def int_cases(seed: int, schedule: list[tuple[str, int, float | None]], prefix: str = "int") -> list[IntCase]:
    rng = rng_for(prefix, seed)
    return [
        int_case(rng, f"{prefix}-{i:02d}-{tpl}", tpl, bound, at)
        for i, (tpl, bound, at) in enumerate(schedule)
    ]
