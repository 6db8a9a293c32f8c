"""Reduce integer-arithmetic satisfiability to nonlinear real arithmetic.

The trick: force a unary symbol f to be the floor function using two
axioms (a shift property and a base case on [0, 1)), then pin each
variable to an integer with a fixpoint conjunct f(x) = x.  The symbol
can be a genuine uninterpreted function, or it can be spelled `x / 0`,
whose value the division axiom leaves completely unconstrained.  A
solver that decided such real scripts would decide integer arithmetic,
which is impossible, so outputs of this encoder make good stress tests
for how engines treat division by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .errors import DecodeError, EncodeError
from .evaluator import FLOOR, eval_term, floor_oracle
from .printer import format_term
from .terms import (
    OPS,
    Apply,
    Const,
    Div,
    FunDecl,
    Script,
    Sort,
    Term,
    Var,
    add,
    conj,
    const,
    dag_fold,
    dag_rewrite,
    distinct_subterms,
    eq,
    forall,
    free_vars,
    fresh_name,
    implies,
    is_quantifier_free,
    le,
    lt,
    result_sort,
    var,
)


class EncodeMode(Enum):
    UF = "uf"  # floor as an uninterpreted function symbol
    DIV0 = "div0"  # floor spelled as division by zero

    def __str__(self) -> str:
        return self.value


DIV_BY_ZERO_MARKER = "div-by-zero"

@dataclass(frozen=True)
class IntFormula:
    """Quantifier-free Boolean formula over Int variables and +, -, *.

    Comparisons, equality, and the connectives are allowed; division,
    ite, and quantifiers are not.
    """

    variables: tuple[str, ...]
    body: Term

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise EncodeError("duplicate variable names")
        if self.body.sort is not Sort.BOOL:
            raise EncodeError(f"body must be Bool, got {self.body.sort}")
        names = set(self.variables)
        loose = free_vars(self.body) - names
        if loose:
            raise EncodeError(f"free variables not listed: {sorted(loose)}")
        for t in distinct_subterms(self.body):
            match t:
                case Const(value, sort):
                    if not isinstance(value, bool) and (
                        sort is not Sort.INT or value.denominator != 1
                    ):
                        raise EncodeError(f"non-Int literal {value} in body")
                case Var(name, sort):
                    if sort is not Sort.INT:
                        raise EncodeError(f"variable '{name}' must be Int, got {sort}")
                case Apply(op, _, _):
                    if op not in OPS:
                        raise EncodeError(f"operator '{op}' not allowed in an integer body")
                case _:
                    raise EncodeError(
                        f"construct not allowed in an integer body: {format_term(t)}"
                    )

    @staticmethod
    def from_script(script: Script) -> IntFormula:
        """Read an integer problem: declared Int constants + asserted conjuncts."""

        names = []
        for d in script.decls:
            if d.params:
                raise EncodeError(f"'{d.name}' is not a constant declaration")
            if d.result is not Sort.INT:
                raise EncodeError(f"'{d.name}' must be Int, got {d.result}")
            names.append(d.name)
        if not script.assertions:
            body: Term = Const(True, Sort.BOOL)
        elif len(script.assertions) == 1:
            body = script.assertions[0]
        else:
            body = conj(*script.assertions)
        return IntFormula(tuple(names), body)


@dataclass(frozen=True)
class FloorAxioms:
    """The two formulas that force f to be floor on the whole real line."""

    shift_axiom: Term  # f(x) + 1 = f(x + 1)
    base_axiom: Term  # 0 <= x < 1  implies  f(x) = 0
    f_name: str


def floor_axioms(mode: EncodeMode, f_name: str = "f") -> FloorAxioms:
    if mode is EncodeMode.DIV0:
        mk: Callable[[Term], Term] = lambda t: Div(t, const(0), Sort.REAL)
        name = DIV_BY_ZERO_MARKER
    else:
        mk = lambda t: Apply(f_name, (t,), Sort.REAL)
        name = f_name
    x = var("x", Sort.REAL)
    one = const(1)
    shift = forall((("x", Sort.REAL),), eq(add(mk(x), one), mk(add(x, one))))
    base = forall(
        (("x", Sort.REAL),),
        implies(conj(le(const(0), x), lt(x, one)), eq(mk(x), const(0))),
    )
    return FloorAxioms(shift, base, name)


@dataclass(frozen=True)
class EncodedProblem:
    script: Script
    source: IntFormula
    mode: EncodeMode


def _resorted(term: Term, args: list[Term]) -> Term:
    if type(term) is Const:
        return term if isinstance(term.value, bool) else Const(term.value, Sort.REAL, term.loc)
    if type(term) is Var:
        return Var(term.name, Sort.REAL, term.loc)
    return Apply(term.op, tuple(args), result_sort(term.op, args), term.loc)


def _resort_real(term: Term) -> Term:
    """Rebuild an integer body with every numeric piece sorted Real."""

    return dag_fold(term, _resorted)


def _encode(formula: IntFormula, mode: EncodeMode) -> EncodedProblem:
    if mode is EncodeMode.UF:
        f_name = fresh_name("f", set(formula.variables))
        axioms = floor_axioms(mode, f_name)
        decls = (FunDecl(f_name, (Sort.REAL,), Sort.REAL),)
        apply_f: Callable[[Term], Term] = lambda t: Apply(f_name, (t,), Sort.REAL)
        logic = "UFNRA"
    else:
        axioms = floor_axioms(mode)
        decls = ()
        apply_f = lambda t: Div(t, const(0), Sort.REAL)
        logic = "NRA"
    decls += tuple(FunDecl(v, (), Sort.REAL) for v in formula.variables)
    fixpoints = tuple(
        eq(apply_f(var(v, Sort.REAL)), var(v, Sort.REAL)) for v in formula.variables
    )
    script = Script(
        logic=logic,
        decls=decls,
        assertions=(axioms.shift_axiom, axioms.base_axiom)
        + fixpoints
        + (_resort_real(formula.body),),
        check_sat=True,
    )
    return EncodedProblem(script, formula, mode)


def encode_integer_formula(formula: IntFormula) -> EncodedProblem:
    """Encode with floor as an uninterpreted function symbol (logic UFNRA)."""

    return _encode(formula, EncodeMode.UF)


def encode_via_div0(formula: IntFormula) -> EncodedProblem:
    """Encode with floor spelled `t / 0` (logic NRA, no extra symbols)."""

    return _encode(formula, EncodeMode.DIV0)


def replace_uf_with_div0(term: Term, f_name: str) -> Term:
    """Rewrite applications `(f t)` to `(/ t 0)`.

    Mapping the UF-mode assertions through this must give the div0-mode
    assertions exactly; tests use it to pin the two modes together.
    """

    def spell(t: Term) -> Term:
        if type(t) is Apply and t.op == f_name and len(t.args) == 1:
            return Div(t.args[0], const(0), Sort.REAL, t.loc)
        return t

    return dag_rewrite(term, spell)


def _uf_name(problem: EncodedProblem) -> str | None:
    for d in problem.script.decls:
        if d.params == (Sort.REAL,):
            return d.name
    return None


def decode_witness(
    problem: EncodedProblem, assignment: Mapping[str, Fraction]
) -> dict[str, int]:
    """Turn a real-valued model candidate into an integer witness.

    Under the floor reading of f, every quantifier-free conjunct of the
    encoded script (the fixpoints and the translated body) must hold;
    any failure rejects the candidate with the violated conjunct.  The
    fixpoints force each value to be an integer, so the cast is exact.
    """

    values: dict[str, Fraction] = {}
    for name in problem.source.variables:
        if name not in assignment:
            raise DecodeError(f"assignment is missing '{name}'")
        value = assignment[name]
        if isinstance(value, bool) or not isinstance(value, Fraction):
            raise DecodeError(f"value for '{name}' must be a rational, got {value!r}")
        values[name] = value

    funcs = None
    uf = _uf_name(problem)
    if problem.mode is EncodeMode.UF and uf is not None:
        funcs = {uf: floor_oracle}
    for assertion in problem.script.assertions:
        if not is_quantifier_free(assertion):
            continue  # the axioms hold for floor by construction
        if eval_term(assertion, values, FLOOR, funcs) is not True:
            raise DecodeError(
                f"assignment violates: {format_term(assertion)}", term=assertion
            )
    return {name: int(values[name]) for name in problem.source.variables}
