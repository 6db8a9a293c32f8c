"""End-to-end acceptance checks, one test per criterion.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line even
under pytest's output capture, and also enforces its runtime budget.
Run `pytest tests/test_acceptance.py -v` for the full picture.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

import pytest

import support
from nradiv import (
    FLOOR,
    IDENTITY,
    DecodeError,
    FragmentLabel,
    IntFormula,
    TotalizeStyle,
    brute_force_int_sat,
    check_axiom_samples,
    classify_script,
    constant_interpretation,
    decode_witness,
    encode_integer_formula,
    encode_via_div0,
    eval_term,
    floor_oracle,
    fold_script,
    format_term,
    lift_to_uf,
    parse_script,
    print_script,
    render_report,
    scan_directory,
    totalize,
)


@contextmanager
def criterion(capsys, number: int, summary: str, limit: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit:.0f}s"
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number}: FAIL - {summary}")
        raise
    with capsys.disabled():
        print(
            f"[acceptance] criterion {number}: PASS - {summary} ({elapsed:.2f}s)"
        )


def intf(body: str, *names: str) -> IntFormula:
    decls = "".join(f"(declare-fun {n} () Int)" for n in names)
    text = f"(set-logic QF_NIA){decls}(assert {body})"
    return IntFormula.from_script(parse_script(text))


SAT, UNSAT = True, False

# Small integer problems with known status inside the box |value| <= 10.
# Every UNSAT entry is unsatisfiable over all integers, not just in the
# box, so arbitrary rational assignments must falsify its encodings too.
SUITE: list[tuple[str, IntFormula, bool]] = [
    ("cubic-sum", intf("(= (+ (* a a a) (* b b b)) (* c c c))", "a", "b", "c"), SAT),
    ("two-x-is-one", intf("(= (* 2 x) 1)", "x"), UNSAT),
    ("square-is-two", intf("(= (* x x) 2)", "x"), UNSAT),
    ("vieta-pair", intf("(and (= (+ x y) 3) (= (* x y) 2))", "x", "y"), SAT),
    ("x-is-two", intf("(= x 2)", "x"), SAT),
    ("x-is-zero", intf("(= x 0)", "x"), SAT),
    ("trivially-true", intf("true"), SAT),
    ("trivially-false", intf("false"), UNSAT),
    ("square-is-four", intf("(= (* x x) 4)", "x"), SAT),
    ("circle-radius-five", intf("(= (+ (* x x) (* y y)) 25)", "x", "y"), SAT),
    (
        "binomial-identity",
        intf(
            "(and (= (* (+ x y) (+ x y)) (+ (* x x) (* 2 x y) (* y y)))"
            " (= x 3) (= y 5))",
            "x",
            "y",
        ),
        SAT,
    ),
    ("bezout-line", intf("(= (+ (* 3 x) (* 5 y)) 1)", "x", "y"), SAT),
    ("square-is-three", intf("(= (* x x) 3)", "x"), UNSAT),
    ("cube-is-27", intf("(= (* x x x) 27)", "x"), SAT),
    ("two-x-is-seven", intf("(= (* 2 x) 7)", "x"), UNSAT),
    ("negative-square", intf("(< (* x x) 0)", "x"), UNSAT),
    ("strict-cycle", intf("(and (< x y) (< y x))", "x", "y"), UNSAT),
    ("cube-is-minus-one", intf("(= (+ (* x x x) 1) 0)", "x"), SAT),
    (
        "seventh-gap",
        intf("(and (<= (* 7 x) 3) (<= 5 (* 7 x)))", "x"),
        UNSAT,
    ),
    (
        "distinct-factors",
        intf("(and (distinct x y) (= (* x y) 6) (= (+ x y) 5))", "x", "y"),
        SAT,
    ),
    (
        "bounded-square",
        intf("(and (<= 0 x) (<= x 10) (= (* x x) 49))", "x"),
        SAT,
    ),
    (
        "zero-sum-product",
        intf("(and (= (+ x y z) 0) (= (* x y z) (- 6)))", "x", "y", "z"),
        SAT,
    ),
]

DIV0_SHIFT = "(forall ((x Real)) (= (+ (/ x 0) 1) (/ (+ x 1) 0)))"
DIV0_BASE = "(forall ((x Real)) (=> (and (<= 0 x) (< x 1)) (= (/ x 0) 0)))"


def test_criterion_1_golden_reproduction(capsys, cubic_sum_formula, golden_div0_path):
    summary = "cubic-sum encoding is byte-identical to the bundled golden file"
    with criterion(capsys, 1, summary, 1.0):
        problem = encode_via_div0(cubic_sum_formula)
        assert print_script(problem.script) == golden_div0_path.read_text()
        # two floor axioms, one fixpoint per variable, then the cubic
        assert [format_term(a) for a in problem.script.assertions] == [
            DIV0_SHIFT,
            DIV0_BASE,
            "(= (/ a 0) a)",
            "(= (/ b 0) b)",
            "(= (/ c 0) c)",
            "(= (+ (* a a a) (* b b b)) (* c c c))",
        ]


def test_criterion_2_floor_forcing(capsys):
    summary = "forced value matches floor at all 1,213 grid points"
    with criterion(capsys, 2, summary, 1.0):
        grid = sorted(
            {Fraction(k, q) for q in (1, 2, 3, 7) for k in range(-200, 201)}
        )
        # 4 * 401 raw samples collapse to 1,213 distinct rationals
        assert len(grid) == 1213
        mismatches = [x for x in grid if support.forced_value(x) != floor_oracle(x)]
        assert mismatches == []
        assert all(floor_oracle(x) == math.floor(x) for x in grid)


def test_criterion_3_axiom_reports(capsys):
    summary = "floor passes the sample check; constant-0 and identity fail it"
    with criterion(capsys, 3, summary, 1.0):
        good = check_axiom_samples(FLOOR)
        assert good.ok and good.violations == ()
        assert good.samples == 425
        for bad in (constant_interpretation(0), IDENTITY):
            report = check_axiom_samples(bad)
            assert not report.ok
            assert len(report.violations) >= 1


def test_criterion_4_desk_scale_equisatisfiability(capsys):
    summary = f"brute force over {len(SUITE)} integer problems agrees with both encodings"
    assert len(SUITE) >= 20
    with criterion(capsys, 4, summary, 30.0):
        for name, formula, expect_sat in SUITE:
            witness = brute_force_int_sat(formula, 10)
            problems = (encode_integer_formula(formula), encode_via_div0(formula))
            if expect_sat:
                assert witness is not None, f"{name}: expected a witness"
                as_fractions = {k: Fraction(v) for k, v in witness.items()}
                for problem in problems:
                    assert decode_witness(problem, as_fractions) == witness, name
            else:
                assert witness is None, f"{name}: expected no witness"
                rng = random.Random(f"acceptance-4-{name}")
                for _ in range(100):
                    assignment = {
                        v: support.random_rational(rng) for v in formula.variables
                    }
                    for problem in problems:
                        with pytest.raises(DecodeError):
                            decode_witness(problem, assignment)


def test_criterion_5_pass_correctness(capsys, parsed_corpus):
    summary = "lift removes division, totalize is reading-independent and idempotent"
    with criterion(capsys, 5, summary, 10.0):
        seventeen = constant_interpretation(17)
        for name, script in parsed_corpus.items():
            lifted = lift_to_uf(script).script
            assert classify_script(lifted).label is FragmentLabel.POLYNOMIAL_ONLY

            total = totalize(script)
            rng = random.Random(f"acceptance-5-{name}")
            quantifier_free = support.qf_assertions(total)
            for _ in range(100):
                assignment = support.random_assignment(total, rng)
                for term in quantifier_free:
                    assert eval_term(term, assignment, FLOOR) == eval_term(
                        term, assignment, seventeen
                    ), name

            assert totalize(total) == total, name


def test_criterion_6_corpus_census(capsys, corpus_dir):
    summary = "census finds 4 + 4 + 3 verdicts and 1 parse failure, deterministically"
    with criterion(capsys, 6, summary, 5.0):
        report = scan_directory(corpus_dir)
        totals = report["totals"]
        assert totals["files"] == 12
        assert totals["verdicts"] == {
            "polynomial-only": 4,
            "constant-division-only": 4,
            "non-constant-division": 3,
        }
        assert totals["failures"] == 1

        again = scan_directory(corpus_dir)
        report.pop("generated_at")
        again.pop("generated_at")
        assert render_report(report).encode() == render_report(again).encode()


def test_criterion_7_round_trips(capsys, parsed_corpus):
    summary = "parse then print then parse is identity on corpus and outputs"
    with criterion(capsys, 7, summary, 5.0):
        scripts = []
        for script in parsed_corpus.values():
            scripts.append(script)
            scripts.append(totalize(script))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                scripts.append(totalize(script, style=TotalizeStyle.FRESH_SYMBOL))
            scripts.append(fold_script(script))
            scripts.append(lift_to_uf(script).script)
        for _, formula, _ in SUITE:
            scripts.append(encode_integer_formula(formula).script)
            scripts.append(encode_via_div0(formula).script)

        assert len(scripts) == 5 * len(parsed_corpus) + 2 * len(SUITE)
        for script in scripts:
            text = print_script(script)
            again = parse_script(text)
            assert again == script
            assert print_script(again) == text
