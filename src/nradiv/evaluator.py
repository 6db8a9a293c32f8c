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
from itertools import product, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, Union

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


def default_sample_grid(
    k_max: int = 70, denominators: Sequence[int] = (1, 2, 3, 7)
) -> list[Fraction]:
    """Deduplicated, sorted grid {k/q : |k| <= k_max, q in denominators}."""

    grid = {Fraction(k, q) for q in denominators for k in range(-k_max, k_max + 1)}
    return sorted(grid)


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
# Compiling an integer body to a Python function.

# Operands per statement of a long `+ - * and or`: Python's compiler
# nests `a + b + c` one level per operand and gives up near 3000.
_FOLD_CHUNK = 64


def compile_int_body(formula: IntFormula) -> Callable[..., bool]:
    """Compile an integer body to a function over plain `int`s.

    The function takes one `int` per name in `formula.variables`, in
    order, and returns what `eval_term` returns at that point.  Its
    source has one statement per distinct node, shared subterms computed
    once, and names only the parameters `v0, v1, ...`, temporaries `t0,
    t1, ...` and `repr`s of literals, so no symbol name reaches the
    source and no term depth nests in it.  Nothing is checked here:
    `IntFormula` has checked every node, variable and sort of the body.
    """

    params = {name: f"v{i}" for i, name in enumerate(formula.variables)}
    lines: list[str] = []

    def compiled(node: Term, exprs: list[str]) -> str:
        t = type(node)
        if t is Var:
            return params[node.name]
        if t is Const:
            value = node.value
            return repr(value if isinstance(value, bool) else value.numerator)
        op = node.op
        temp = f"t{len(lines)}"
        if OPS[op].shape == "fold" and len(exprs) > _FOLD_CHUNK:
            lines.append(f"{temp} = {op_source(op, exprs[:_FOLD_CHUNK])}")
            for i in range(_FOLD_CHUNK, len(exprs), _FOLD_CHUNK - 1):
                rest = exprs[i : i + _FOLD_CHUNK - 1]
                lines.append(f"{temp} = {op_source(op, [temp] + rest)}")
        else:
            lines.append(f"{temp} = {op_source(op, exprs)}")
        return temp

    result = dag_fold(formula.body, compiled)
    source = "".join(
        [f"def body({', '.join(params.values())}):\n"]
        + [f"    {line}\n" for line in lines]
        + [f"    return {result}\n"]
    )
    namespace: dict = {"__builtins__": {}}
    exec(compile(source, "<integer body>", "exec"), namespace)
    return namespace["body"]


# ---------------------------------------------------------------------------
# Brute-force integer satisfiability inside a box.


def brute_force_int_sat(
    formula: IntFormula, bound: int, budget: int | None = 10_000_000
) -> dict[str, int] | None:
    """First integer witness of `formula` with all |values| <= bound.

    Assignments are enumerated in lexicographic order over the variable
    list, each coordinate running from -bound to bound.  Returns None
    when no assignment in the box satisfies the body; raises
    BudgetExceededError after `budget` assignments.  The body is
    compiled once by `compile_int_body` and called on plain ints.
    """

    names = formula.variables
    holds = compile_int_body(formula)
    steps = 0
    for combo in product(range(-bound, bound + 1), repeat=len(names)):
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExceededError(
                f"gave up after {budget} assignments (bound {bound}, {len(names)} variables)"
            )
        if holds(*combo) is True:
            return dict(zip(names, combo))
    return None
