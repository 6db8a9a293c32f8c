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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .errors import DecodeError, EncodeError, SortError
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


@dataclass(frozen=True)
class IntFormula:
    """Quantifier-free Boolean formula over Int variables and +, -, *.

    Comparisons, equality, and the connectives are allowed; division,
    ite, and quantifiers are not.  Construction is the one check of an
    integer body: every node is an allowed piece, every variable is
    listed, and every stated sort is the one the sort rule gives.
    `compile_int_body` compiles what passes without checking it again.
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
        fault = None  # the first sort-rule fault, reported once every piece is allowed
        for t in distinct_subterms(self.body):
            match t:
                case Const(value, sort):
                    if sort is not Sort.BOOL and (sort is not Sort.INT or value.denominator != 1):
                        raise EncodeError(f"non-Int literal {value} in body")
                case Var(name, sort):
                    if sort is not Sort.INT:
                        raise EncodeError(f"variable '{name}' must be Int, got {sort}")
                case Apply(op, args, stated):
                    if op not in OPS:
                        raise EncodeError(f"operator '{op}' not allowed in an integer body")
                    if fault is None:
                        try:
                            if (sort := result_sort(op, args)) is not stated:
                                fault = f"'{op}' application has sort {stated}, not {sort}"
                        except SortError as exc:
                            fault = str(exc)
                case _:
                    raise EncodeError(
                        f"construct not allowed in an integer body: {format_term(t)}"
                    )
        if fault is not None:
            raise EncodeError(fault)

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
        body = conj(*script.assertions) if script.assertions else Const(True, Sort.BOOL)
        return IntFormula(tuple(names), body)


@dataclass(frozen=True)
class FloorAxioms:
    """The two formulas that force f to be floor on the whole real line."""

    shift_axiom: Term  # f(x) + 1 = f(x + 1)
    base_axiom: Term  # 0 <= x < 1  implies  f(x) = 0


def floor_axioms(f_name: str = "f") -> FloorAxioms:
    """The axioms over `(f_name x)`; `replace_uf_with_div0` respells them
    over `(/ x 0)`."""

    f = lambda t: Apply(f_name, (t,), Sort.REAL)
    x = var("x", Sort.REAL)
    one = const(1)
    shift = forall((("x", Sort.REAL),), eq(add(f(x), one), f(add(x, one))))
    base = forall(
        (("x", Sort.REAL),),
        implies(conj(le(const(0), x), lt(x, one)), eq(f(x), const(0))),
    )
    return FloorAxioms(shift, base)


@dataclass(frozen=True)
class EncodedProblem:
    script: Script
    source: IntFormula


def _resorted(term: Term, args: list[Term]) -> Term:
    if type(term) is Const:
        return term if isinstance(term.value, bool) else Const(term.value, Sort.REAL)
    if type(term) is Var:
        return Var(term.name, Sort.REAL)
    return Apply(term.op, tuple(args), result_sort(term.op, args))


def _resort_real(term: Term) -> Term:
    """Rebuild an integer body with every numeric piece sorted Real."""

    return dag_fold(term, _resorted)


def encode_integer_formula(formula: IntFormula) -> EncodedProblem:
    """Encode with floor as an uninterpreted function symbol (logic UFNRA).

    The symbol is declared first; then come the two axioms, one fixpoint
    `(= (f v) v)` per variable, and the body with every numeric piece
    sorted Real.
    """

    f_name = fresh_name("f", set(formula.variables))
    axioms = floor_axioms(f_name)
    variables = [var(v, Sort.REAL) for v in formula.variables]
    script = Script(
        logic="UFNRA",
        decls=(FunDecl(f_name, (Sort.REAL,), Sort.REAL),)
        + tuple(FunDecl(v, (), Sort.REAL) for v in formula.variables),
        assertions=(axioms.shift_axiom, axioms.base_axiom)
        + tuple(eq(Apply(f_name, (v,), Sort.REAL), v) for v in variables)
        + (_resort_real(formula.body),),
        check_sat=True,
    )
    return EncodedProblem(script, formula)


def encode_via_div0(formula: IntFormula) -> EncodedProblem:
    """Encode with floor spelled `t / 0` (logic NRA, no extra symbols).

    This is `encode_integer_formula`'s script with the floor symbol's
    declaration dropped and every assertion respelled by
    `replace_uf_with_div0`.
    """

    uf = encode_integer_formula(formula).script
    f_name = uf.decls[0].name
    script = replace(
        uf,
        logic="NRA",
        decls=uf.decls[1:],
        assertions=tuple(replace_uf_with_div0(a, f_name) for a in uf.assertions),
    )
    return EncodedProblem(script, formula)


def replace_uf_with_div0(term: Term, f_name: str) -> Term:
    """Rewrite applications `(f t)` to `(/ t 0)`: the `/0` spelling of the
    floor encoding."""

    def spell(t: Term) -> Term:
        if type(t) is Apply and t.op == f_name and len(t.args) == 1:
            return Div(t.args[0], const(0), Sort.REAL)
        return t

    return dag_rewrite(term, spell)


def decode_witness(
    problem: EncodedProblem, assignment: Mapping[str, Fraction]
) -> dict[str, int]:
    """Turn a real-valued model candidate into an integer witness.

    Each declared function, the floor symbol of the UF spelling, reads
    as floor.  Every quantifier-free conjunct of the encoded script (the
    fixpoints and the translated body) must hold under that reading;
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

    funcs = {d.name: floor_oracle for d in problem.script.decls if d.params}
    for assertion in problem.script.assertions:
        if not is_quantifier_free(assertion):
            continue  # the axioms hold for floor by construction
        if eval_term(assertion, values, FLOOR, funcs) is not True:
            raise DecodeError(
                f"assignment violates: {format_term(assertion)}", term=assertion
            )
    return {name: int(values[name]) for name in problem.source.variables}
