"""nradiv: division semantics toolkit for SMT-LIB nonlinear arithmetic.

Parse a workable SMT-LIB2 subset, classify how scripts use division,
repair partiality (totalization, lifting to an axiomatized function
symbol), evaluate terms exactly over the rationals under pluggable
division-by-zero readings, and build real-arithmetic stress problems
that hide integer arithmetic inside division by zero.
"""

__version__ = "0.1.0"

from .analyzer import (
    DivisorClass,
    DivisorKind,
    DivOccurrence,
    FragmentLabel,
    FragmentVerdict,
    classify_divisor,
    classify_script,
    collect_divisions,
    count_divisions,
    fold_literal,
)
from .encoder import (
    EncodedProblem,
    FloorAxioms,
    IntFormula,
    decode_witness,
    encode_integer_formula,
    encode_via_div0,
    floor_axioms,
    replace_uf_with_div0,
)
from .errors import (
    BudgetExceededError,
    DecodeError,
    EncodeError,
    EvalError,
    NradivError,
    ParseError,
    ScriptError,
    SortError,
    UndeclaredSymbolError,
)
from .evaluator import (
    FLOOR,
    IDENTITY,
    AxiomReport,
    AxiomViolation,
    DivInterpretation,
    brute_force_int_sat,
    check_axiom_samples,
    constant_interpretation,
    default_sample_grid,
    eval_term,
    floor_oracle,
)
from .parser import parse_script
from .passes import (
    TotalizeStyle,
    UfLiftResult,
    division_axiom,
    emit_nonzero_vcs,
    fold_script,
    fold_term,
    lift_to_uf,
    totalize,
)
from .printer import format_rational, format_term, print_script
from .report import SCHEMA_VERSION, render_report, scan_directory
from .terms import (
    Apply,
    Const,
    Div,
    FunDecl,
    Ite,
    Loc,
    Quantifier,
    Script,
    Sort,
    Term,
    Unsupported,
    Var,
    children,
    count_nodes,
    free_vars,
    is_quantifier_free,
)

__all__ = [name for name in dir() if not name.startswith("_")]
