"""Exact rational evaluation with a pluggable reading of division by zero.

Every arithmetic step is exact: `eval_term` works on
`fractions.Fraction`, and a body compiled by `compile_int_body` on
plain `int`s.  Both take each operator's meaning from `terms.OPS`.
A `DivInterpretation` is consulted only when a divisor evaluates to
exactly 0, so interpretations agree on every division with a nonzero
divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Union

from .errors import BudgetExceededError, EvalError
from .terms import (
    AGAIN,
    OPS,
    Apply,
    Const,
    Div,
    Ite,
    Quantifier,
    Term,
    Var,
    apply_op,
    arity_error,
    dag_fold,
    op_source,
)

if TYPE_CHECKING:  # import only for annotations; encoder imports us at runtime
    from .encoder import IntFormula

Value = Union[Fraction, bool]
Assignment = Mapping[str, Value]
FuncTable = Mapping[str, Callable[..., Fraction]]


@dataclass(frozen=True)
class DivInterpretation:
    """Total reading of `x / 0`: `at_zero` maps the numerator to the result."""

    name: str
    at_zero: Callable[[Fraction], Fraction] = field(compare=False)


def floor_oracle(x: Fraction) -> Fraction:
    """Reference floor, delegated to `math.floor` on the exact rational."""

    return Fraction(math.floor(x))


FLOOR = DivInterpretation("floor", floor_oracle)

IDENTITY = DivInterpretation("identity", lambda x: x)


def constant_interpretation(value: Fraction | int) -> DivInterpretation:
    c = Fraction(value)
    return DivInterpretation(f"constant({c})", lambda _x: c)


# What a value of each argument kind of `OPS` is, and what it is called.
_KINDS = {"num": (Fraction, "a rational"), "bool": (bool, "a Boolean")}


def _checked(kind: str, value: Value, context: str) -> Value:
    typ, name = _KINDS[kind]
    if not isinstance(value, typ):
        raise EvalError(f"{context}: expected {name}, got {value!r}")
    return value


_UNKNOWN = object()


def eval_term(
    term: Term,
    assignment: Assignment,
    div: DivInterpretation = FLOOR,
    funcs: FuncTable | None = None,
) -> Value:
    """Evaluate a quantifier-free term under an assignment.

    `funcs` supplies meanings for declared non-nullary function symbols;
    `div` is consulted only at zero divisors.  `ite` evaluates a single
    branch, so a division in the untaken branch is never touched; every
    other node evaluates all of its arguments, a divisor before its
    numerator.  A shared node is evaluated once per call.  This is the
    reference interpreter: `compile_int_body` must agree with it.
    """

    values: dict[int, Value] = {}

    def needs(node: Term) -> tuple[Term, ...]:
        """The children to evaluate next; checks that need no argument
        values, and divisor and condition values, are made here."""

        t = type(node)
        if t is Apply:
            if node.op in OPS:
                if arity_error(node.op, len(node.args)) is not None:
                    raise EvalError(f"'{node.op}' cannot take {len(node.args)} arguments")
            elif funcs is None or node.op not in funcs:
                raise EvalError(f"no interpretation for function symbol '{node.op}'")
            return node.args
        if t is Div:
            d = values.get(id(node.den), _UNKNOWN)
            if d is _UNKNOWN:
                return (node.den,)
            _checked("num", d, "divisor")
            return (node.den, node.num)
        if t is Ite:
            c = values.get(id(node.cond), _UNKNOWN)
            if c is _UNKNOWN:
                return (node.cond,)
            return (node.cond, node.then if _checked("bool", c, "ite condition") else node.orelse)
        if t is Var:
            if node.name not in assignment:
                raise EvalError(f"no value for '{node.name}' in assignment")
            return ()
        if t is Quantifier:
            raise EvalError("cannot evaluate a quantified term")
        if t is Const:
            return ()
        raise EvalError(f"not a term: {node!r}")

    def value(node: Term, args: list[Value]) -> Value:
        t = type(node)
        if t is Const:
            return node.value
        if t is Var:
            return assignment[node.name]
        if t is Div or t is Ite:
            if len(args) == 1:
                return AGAIN  # the numerator, or the branch, comes next
            if t is Ite:
                return args[1]
            d, n = args[0], _checked("num", args[1], "numerator")
            return div.at_zero(n) if d == 0 else n / d
        kind = OPS[node.op].args if node.op in OPS else "num"
        if kind != "any" and not all(map(isinstance, args, repeat(_KINDS[kind][0]))):
            for v in args:
                _checked(kind, v, f"'{node.op}' argument")
        return apply_op(node.op, args) if node.op in OPS else funcs[node.op](*args)

    return dag_fold(term, value, needs, values)


# ---------------------------------------------------------------------------
# Checking the two floor properties on sample points.


@dataclass(frozen=True)
class AxiomViolation:
    sample: Fraction
    axiom: str  # "shift" or "base"
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    interpretation: str
    samples: int
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


GRID_K_MAX = 70
GRID_DENOMINATORS = (1, 2, 3, 7)


def default_sample_grid() -> list[Fraction]:
    """Deduplicated, sorted grid {k/q : |k| <= GRID_K_MAX, q in GRID_DENOMINATORS}."""

    ks = range(-GRID_K_MAX, GRID_K_MAX + 1)
    return sorted({Fraction(k, q) for q in GRID_DENOMINATORS for k in ks})


def check_axiom_samples(
    div: DivInterpretation, samples: Iterable[Fraction] | None = None
) -> AxiomReport:
    """Test f := div.at_zero against the shift and base properties.

    shift: f(x) + 1 == f(x + 1) at every sample x;
    base:  f(x) == 0 at every sample x in [0, 1).
    """

    points = default_sample_grid() if samples is None else list(samples)
    violations: list[AxiomViolation] = []
    f = div.at_zero
    for x in points:
        got, want = f(x) + 1, f(x + 1)
        if got != want:
            violations.append(
                AxiomViolation(x, "shift", f"f({x}) + 1 = {got} but f({x + 1}) = {want}")
            )
        if 0 <= x < 1 and f(x) != 0:
            violations.append(AxiomViolation(x, "base", f"f({x}) = {f(x)}, expected 0"))
    return AxiomReport(div.name, len(points), tuple(violations))


# ---------------------------------------------------------------------------
# Compiling an integer body, and the search over a box, to Python functions.

# Operands per statement of a long `+ - * and or`: Python's compiler
# nests `a + b + c` one level per operand and gives up near 3000.
_FOLD_CHUNK = 64

# Loops in one compiled search.  CPython refuses more than 20 statically
# nested blocks, so `itertools.product` drives the variables before the
# last `_NEST_DEPTH` around the compiled loops.
_NEST_DEPTH = 10


def compile_int_body(formula: IntFormula, loops: int) -> Callable:
    """Compile the search over an integer body to a function over plain `int`s.

    The function loops over the last `loops` names in `formula.variables`,
    0 <= `loops` <= `_NEST_DEPTH`: it takes one `int` per other variable,
    in order, then one iterable of `int`s per looped variable, and
    returns the looped values at the first point, in lexicographic order,
    where the body holds, or None.  With `loops` 0 that is `()` or None
    at the one point given.

    The source has one statement per distinct node, so shared subterms
    are computed once, and each statement sits in the outermost loop
    where every variable it reads is bound: `(* a a a)` is computed once
    per value of `a`.  It names only the variables `v0, v1, ...`, their
    iterables `r0, r1, ...`, temporaries `t0, t1, ...` and `repr`s of
    literals, so no symbol name reaches the source and no term depth
    nests in it.  Nothing is checked here: `IntFormula` has checked every
    node, variable and sort of the body.
    """

    first = len(formula.variables) - loops  # index of the outermost looped variable
    # Each variable's name in the source, and the depth of the loop that binds it.
    params = {name: (f"v{i}", max(0, i + 1 - first)) for i, name in enumerate(formula.variables)}
    levels: list[list[str]] = [[] for _ in range(loops + 1)]  # statements per depth
    temps = count()

    def compiled(node: Term, args: list[tuple[str, int]]) -> tuple[str, int]:
        t = type(node)
        if t is Var:
            return params[node.name]
        if t is Const:
            value = node.value
            return repr(value if isinstance(value, bool) else value.numerator), 0
        op = node.op
        exprs = [expr for expr, _ in args]
        depth = max([d for _, d in args], default=0)
        lines = levels[depth]
        temp = f"t{next(temps)}"
        if OPS[op].shape == "fold" and len(exprs) > _FOLD_CHUNK:
            lines.append(f"{temp} = {op_source(op, exprs[:_FOLD_CHUNK])}")
            for i in range(_FOLD_CHUNK, len(exprs), _FOLD_CHUNK - 1):
                rest = exprs[i : i + _FOLD_CHUNK - 1]
                lines.append(f"{temp} = {op_source(op, [temp] + rest)}")
        else:
            lines.append(f"{temp} = {op_source(op, exprs)}")
        return temp, depth

    result, _ = dag_fold(formula.body, compiled)
    looped = range(first, len(formula.variables))
    inputs = [f"v{i}" for i in range(first)] + [f"r{i}" for i in looped]
    source = [f"def body({', '.join(inputs)}):\n"]
    for depth, lines in enumerate(levels):
        pad = "    " * (depth + 1)
        if depth:
            i = first + depth - 1
            source.append(f"{pad[4:]}for v{i} in r{i}:\n")
        source += [f"{pad}{line}\n" for line in lines]
    witness = " ".join(f"v{i}," for i in looped)
    source.append(f"{pad}if {result}:\n{pad}    return ({witness})\n")
    namespace: dict = {"__builtins__": {}}
    exec(compile("".join(source), "<integer body>", "exec"), namespace)
    return namespace["body"]


# ---------------------------------------------------------------------------
# Brute-force integer satisfiability inside a box.


def brute_force_int_sat(
    formula: IntFormula, bound: int, budget: int | None = 10_000_000
) -> dict[str, int] | None:
    """First integer witness of `formula` with all |values| <= bound.

    Assignments are enumerated in lexicographic order over the variable
    list, each coordinate running from -bound to bound.  Returns the
    first one that satisfies the body; raises BudgetExceededError when
    none of the first `budget` assignments does and the box holds more;
    returns None otherwise.  The search is one function compiled by
    `compile_int_body`, looping over the last `_NEST_DEPTH` variables at
    most; `itertools.product` drives the ones before them.  The budget
    costs nothing per point: the first `budget` points of the box are
    cut into sub-boxes before the search starts.
    """

    names = formula.variables
    n = len(names)
    loops = min(n, _NEST_DEPTH)
    side = range(-bound, bound + 1)
    width = max(2 * bound + 1, 0)  # `len(side)`, which overflows past `sys.maxsize`
    size = width**n
    allowed = size if budget is None else min(max(budget, 0), size)
    if allowed == size:
        boxes = [[side] * n]
    else:
        # The points before point number `allowed` (from 0) are, in order,
        # those that agree with it before coordinate i and lie below it at
        # coordinate i, for i = 0, 1, ..., n - 1.
        stop = [allowed // width ** (n - 1 - i) % width - bound for i in range(n)]
        boxes = [
            [range(c, c + 1) for c in stop[:i]] + [range(-bound, stop[i])] + [side] * (n - 1 - i)
            for i in range(n)
        ]
    search = compile_int_body(formula, loops)
    for box in filter(all, boxes):  # skip a sub-box with an empty range: `product` copies ranges
        for head in product(*box[: n - loops]):
            tail = search(*head, *box[n - loops :])
            if tail is not None:
                return dict(zip(names, head + tail))
    if allowed < size:
        raise BudgetExceededError(
            f"gave up after {budget} assignments (bound {bound}, {n} variables)"
        )
    return None
