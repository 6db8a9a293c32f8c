import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import MALFORMED, REPO
from nradiv import cli, classify_script, count_nodes, emit_nonzero_vcs, parse_script, print_script, totalize
from nradiv.cli import main
from strategies import scripts, shared_scripts
from support import classify_json_oracle


# ---------------------------------------------------------------------------
# classify


def test_classify_polynomial(corpus_dir, capsys):
    path = str(corpus_dir / "poly_simple.smt2")
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"{path}: polynomial-only"


def test_classify_constant_division(corpus_dir, capsys):
    path = str(corpus_dir / "constdiv_half.smt2")
    assert main(["classify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("constant-division-only")
    assert re.fullmatch(r"  line \d+ col \d+: constant-nonzero \(value 2\)", lines[1])


def test_classify_non_constant(corpus_dir, capsys):
    assert main(["classify", str(corpus_dir / "nonconst_var.smt2")]) == 2
    assert "non-constant" in capsys.readouterr().out


def test_classify_quantifier_note(corpus_dir, capsys):
    assert main(["classify", str(corpus_dir / "nonconst_zero.smt2")]) == 2
    out = capsys.readouterr().out
    assert out.count("under a quantifier") == 2


def test_classify_parse_error(corpus_dir, capsys):
    assert main(["classify", str(corpus_dir / "malformed_unbalanced.smt2")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line" in err


def test_classify_json(corpus_dir, capsys):
    path = str(corpus_dir / "constdiv_half.smt2")
    assert main(["classify", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "constant-division-only"
    (occ,) = payload["occurrences"]
    assert occ["class"] == "constant-nonzero"
    assert occ["value"] == "2"
    assert occ["under_quantifier"] is False


# `classify --json` writes, byte for byte, what `json.dumps(payload,
# indent=2, sort_keys=True)` of its whole payload writes.
ORACLE_FILES = [
    *(p for p in sorted((REPO / "corpus").glob("*.smt2")) if p.name != MALFORMED),
    *sorted((REPO / "golden").glob("*.smt2")),
]


@pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_classify_json_of_each_shipped_script_is_what_json_dumps_writes(path, capsys):
    main(["classify", "--json", str(path)])
    assert capsys.readouterr().out == classify_json_oracle(str(path))


@pytest.mark.parametrize(
    "name,body,code",
    [
        ("none.smt2", "(> x 0)", 0),
        ("negated.smt2", "(> (/ x (- 0 2)) 0)", 1),
        ("third.smt2", "(> (/ x (/ 1 3)) 0)", 1),
        ("zero.smt2", "(> (/ x 0) 0)", 2),
        ("quantified.smt2", "(forall ((q Real)) (> (/ q x) 0))", 2),
        ('caf\u00e9 "q" \\.smt2', "(> (/ x 2) 0)", 1),
    ],
)
def test_classify_json_of_each_edge_case_is_what_json_dumps_writes(tmp_path, capsys, name, body, code):
    path = tmp_path / name
    path.write_text(f"(declare-fun x () Real)\n(assert {body})\n", encoding="utf-8")
    assert main(["classify", "--json", str(path)]) == code
    out = capsys.readouterr().out
    assert out == classify_json_oracle(str(path))
    assert ('"occurrences": [],' in out) is (code == 0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(scripts, shared_scripts()))
def test_classify_json_of_generated_scripts_is_what_json_dumps_writes(script):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "script.smt2")
        Path(path).write_text(print_script(script))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["classify", "--json", path]) in (0, 1, 2)
        assert out.getvalue() == classify_json_oracle(path)


def test_classify_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.smt2")]) == 70
    assert capsys.readouterr().err.startswith("error:")


def write_latin1(path):
    path.write_bytes(b"(declare-fun x () Real)\n; caf\xe9\n(assert (> x 0))\n")
    return str(path)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    return err


def test_non_utf8_input_exits_70(tmp_path, capsys):
    path = write_latin1(tmp_path / "latin1.smt2")
    assert main(["classify", path]) == 70
    assert "not UTF-8" in one_line_error(capsys)
    assert main(["transform", "totalize", path]) == 70
    assert "not UTF-8" in one_line_error(capsys)


def test_depth_10000_goes_through_classify_transform_and_scan(tmp_path, capsys):
    path = tmp_path / "deep.smt2"
    depth = 10_000
    path.write_text(
        "(declare-fun x () Real)\n(assert (= x " + "(+ 1 " * depth + "(/ x 2)" + ")" * depth + "))\n"
    )
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{path}: constant-division-only"
    assert main(["transform", "totalize", str(path)]) == 0
    assert main(["transform", "uf-lift", str(path)]) == 0
    capsys.readouterr()
    assert main(["scan", str(tmp_path)]) == 0
    (record,) = json.loads(capsys.readouterr().out)["files"]
    assert record["status"] == "ok"


HEAD = "(declare-fun x () Real)\n(declare-fun y () Real)\n(declare-fun c () Bool)\n"


def scanned_ok(directory, capsys) -> bool:
    capsys.readouterr()
    assert main(["scan", str(directory)]) == 0
    return all(r["status"] == "ok" for r in json.loads(capsys.readouterr().out)["files"])


def test_10000_deep_then_chain_goes_through_every_command(tmp_path, capsys):
    """`(ite c (ite c ... (/ x y) x) x)`: each `ite` stores its sort, so no
    command reads a sort down the chain."""

    depth = 10_000
    path = tmp_path / "then.smt2"
    path.write_text(HEAD + "(assert (= x " + "(ite c " * depth + "(/ x y)" + " x)" * depth + "))\n")
    assert main(["classify", str(path)]) == 2
    for variant in ([], ["--fold"], ["--style", "fresh"], ["--div0-value", "1/2"]):
        assert main(["transform", "totalize", str(path), *variant]) == 0
    assert main(["transform", "uf-lift", str(path)]) == 0
    assert len(emit_nonzero_vcs(parse_script(path.read_text()))) == 1
    assert scanned_ok(tmp_path, capsys)


def test_2000_lets_of_an_ite_go_through_classify_vcs_and_scan(tmp_path, capsys):
    """Each `let` binds `(ite c a a)` over the one before: a DAG of 2,000
    `ite`s whose tree is 2^2000 nodes, so it is not printed."""

    depth = 2_000
    path = tmp_path / "lets.smt2"
    path.write_text(
        HEAD
        + "(assert (= (/ x y) (let ((a0 (ite c x x))) "
        + "".join(f"(let ((a{i} (ite c a{i - 1} a{i - 1}))) " for i in range(1, depth))
        + f"a{depth - 1}"
        + ")" * depth
        + "))\n"
    )
    assert main(["classify", str(path)]) == 2
    assert len(emit_nonzero_vcs(parse_script(path.read_text()))) == 1
    assert scanned_ok(tmp_path, capsys)


def test_a_parameter_named_as_a_global_does_not_capture_it(tmp_path, capsys):
    """The divisor of `(r 2)` is the global `y` that `d` stands for, not
    the parameter `y` of `r`."""

    path = tmp_path / "capture.smt2"
    path.write_text(
        "(declare-fun y () Real)(define-fun d () Real y)"
        "(define-fun r ((y Real)) Real (/ 1 d))(assert (> (r 2) 0))\n"
    )
    assert main(["classify", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{path}: non-constant-division"
    assert re.fullmatch(r"  line 1 col \d+: non-constant", lines[1])
    path.write_text(
        "(declare-fun y () Real)(define-fun d () Real y)"
        "(define-fun r ((y Bool)) Real (/ d 3))(assert (> (r true) 0))\n"
    )
    assert main(["transform", "totalize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(/ y 3)" in out
    assert print_script(parse_script(out)) == out


DEFINE_CONST = "(declare-fun x () Real)(define-const k Real 2.0)(assert (> (/ x k) 0))"


def test_define_const_names_its_value(tmp_path, capsys):
    """`define-const` is a `define-fun` with no parameters: its name stands
    for its value, and the definition does not print."""

    path = tmp_path / "const.smt2"
    path.write_text(DEFINE_CONST)
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "  line 1 col 61: constant-nonzero (value 2)"
    for argv in (["totalize"], ["totalize", "--style", "fresh"], ["uf-lift"]):
        assert main(["transform", *argv, str(path)]) == 0
        out = capsys.readouterr().out
        assert "define-const" not in out and " x 2)" in out
        assert print_script(parse_script(out)) == out


@pytest.mark.parametrize(
    "text, message",
    [
        (
            DEFINE_CONST.replace("2.0", "true"),
            "error: define-const body has sort Bool, declared Real (line 1, column 45)\n",
        ),
        (
            DEFINE_CONST.replace("(assert", "(define-const k Real 3.0)(assert"),
            "error: symbol 'k' is already declared (line 1, column 63)\n",
        ),
        ("(define-const k Real)", "error: malformed define-const (line 1, column 1)\n"),
    ],
    ids=["sort", "twice", "malformed"],
)
def test_a_bad_define_const_exits_65(tmp_path, capsys, text, message):
    path = tmp_path / "const.smt2"
    path.write_text(text)
    assert main(["classify", str(path)]) == 65
    assert one_line_error(capsys) == message


def test_non_ascii_digit_exits_65(tmp_path, capsys):
    path = tmp_path / "digit.smt2"
    path.write_text("(declare-fun x () Real)(assert (= x \u00b2))", encoding="utf-8")
    assert main(["classify", str(path)]) == 65
    assert "unexpected character" in one_line_error(capsys)
    assert main(["transform", "totalize", str(path)]) == 65
    assert "unexpected character" in one_line_error(capsys)


def test_a_literal_of_more_digits_than_python_converts_exits_65(tmp_path, capsys):
    """CPython converts at most 4,300 digits between `int` and text by
    default; a numeral, or a decimal's digits together, past that is the
    input's fault, located at the literal, and `scan` records it."""

    for i, literal in enumerate(("1" * 5000, "1" * 3000 + "." + "1" * 3000)):
        path = tmp_path / f"long{i}.smt2"
        path.write_text(f"(declare-fun x () Real)\n(assert (= x {literal}))\n")
        for argv in (["classify"], ["transform", "totalize"]):
            assert main([*argv, str(path)]) == 65
            assert one_line_error(capsys) == (
                "error: literal has more than 4300 digits (line 2, column 14)\n"
            )
    capsys.readouterr()
    assert main(["scan", str(tmp_path)]) == 0
    records = json.loads(capsys.readouterr().out)["files"]
    assert [r["status"] for r in records] == ["parse-error", "parse-error"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["transform", "totalize", "--fold"], "(assert (= x (* d d)))"),
        (["classify"], "(assert (= 1 (/ x (* d d))))"),
        (["classify", "--json"], "(assert (= 1 (/ x (* d d))))"),
    ],
)
def test_a_computed_value_too_long_to_print_exits_70(tmp_path, capsys, argv, text):
    """`d` has 3,000 digits, so it prints, and `(* d d)` 6,000."""

    path = tmp_path / "square.smt2"
    path.write_text("(declare-fun x () Real)\n" + text.replace("d", "7" * 3000) + "\n")
    assert main([*argv, str(path)]) == 70
    assert capsys.readouterr() == ("", "error: value too long to print: more than 4300 digits\n")


def squaring_lets(k: int) -> str:
    """`(/ x a{k-1})` where `a0` is 100 and each `let` squares the one
    before: the divisor has 2^k + 1 digits."""

    body = f"a{k - 1}"
    for i in range(k - 1, 0, -1):
        body = f"(let ((a{i} (* a{i - 1} a{i - 1}))) {body})"
    return f"(declare-fun x () Real)\n(assert (= x (/ x (let ((a0 (* 10 10))) {body}))))\n"


@pytest.mark.parametrize("argv", [["classify"], ["classify", "--json"], ["transform", "totalize", "--fold"]])
def test_folding_stops_at_the_digits_python_prints(tmp_path, capsys, argv):
    path = tmp_path / "square.smt2"
    path.write_text(squaring_lets(24))
    start = time.perf_counter()
    assert main([*argv, str(path)]) == 70
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: value too long to print: more than 4300 digits\n")


def test_scan_records_a_value_too_long_to_print_as_an_error(tmp_path, capsys):
    (tmp_path / "square.smt2").write_text(squaring_lets(24))
    start = time.perf_counter()
    assert main(["scan", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["files"] == [
        {
            "path": "square.smt2",
            "status": "error",
            "error": "value too long to print: more than 4300 digits",
        }
    ]
    assert report["totals"]["failures"] == 1 and report["totals"]["parsed"] == 0


# ---------------------------------------------------------------------------
# scan


def test_scan_to_file(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["scan", str(corpus_dir), "-o", str(out_file)]) == 0
    report = json.loads(out_file.read_text())
    assert report["totals"]["files"] == 12
    assert report["totals"]["failures"] == 1
    assert capsys.readouterr().out == ""


def test_scan_stdout(corpus_dir, capsys):
    assert main(["scan", str(corpus_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"]["occurrences"] == 14


def test_scan_rejects_non_directory(corpus_dir, capsys):
    target = str(corpus_dir / "poly_simple.smt2")
    assert main(["scan", target]) == 70
    assert "not a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transform


def test_transform_totalize(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text("(declare-fun a () Real)(assert (= (/ a 0) a))\n")
    assert main(["transform", "totalize", str(src)]) == 0
    captured = capsys.readouterr()
    assert "(assert (= (ite (= 0 0) 0 (/ a 0)) a))" in captured.out
    assert captured.err.startswith("[totalize] nodes ")
    assert "divisions 1 -> 1" in captured.err


def test_transform_totalize_fold(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text("(declare-fun a () Real)(assert (= (/ a 0) a))\n")
    assert main(["transform", "totalize", "--fold", str(src)]) == 0
    captured = capsys.readouterr()
    assert "(assert (= 0 a))" in captured.out
    assert "divisions 1 -> 0" in captured.err


@pytest.mark.parametrize(
    "text,folded",
    [
        ("(set-logic QF_NIA)(declare-fun x () Int)(assert (> x (/ 2 5)))", "(/ 2 5)"),
        ("(set-logic QF_NIA)(declare-fun x () Int)(assert (> x (/ 4 2)))", "2"),
        ("(declare-fun x () Real)(assert (> x (/ 2 3)))", "(/ 2 3)"),
        ("(declare-fun x () Real)(assert (> x (/ 2 5)))", "0.4"),
        ("(declare-fun x () Real)(assert (> x (+ (/ 1 3) (/ 1 3))))", "(+ (/ 1 3) (/ 1 3))"),
    ],
)
def test_transform_fold_prints_what_its_summary_counts(tmp_path, capsys, text, folded):
    """A quotient is folded only where one literal of its sort spells it, so
    the output parses back to itself and holds the divisions it reports."""

    src = tmp_path / "in.smt2"
    src.write_text(text)
    assert main(["transform", "totalize", "--fold", str(src)]) == 0
    out, err = capsys.readouterr()
    assert f"(assert (> x {folded}))" in out
    again = parse_script(out)
    assert print_script(again) == out
    reported = int(re.search(r"divisions \d+ -> (\d+)$", err).group(1))
    assert reported == sum(classify_script(again).counts.values())


def test_totalize_summary_counts_a_one_third_guard_value_as_one_literal(tmp_path, capsys):
    """The guard value 1/3 prints as `(/ 1 3)` but is one `Const`: one
    node and no division in the summary, as in the library's output."""

    text = "(declare-fun x () Real)(declare-fun y () Real)(assert (= (/ x y) 1))"
    src = tmp_path / "in.smt2"
    src.write_text(text)
    assert main(["transform", "totalize", "--div0-value", "1/3", str(src)]) == 0
    out, err = capsys.readouterr()
    assert "(assert (= (ite (= y 0) (/ 1 3) (/ x y)) 1))" in out
    assert err == "[totalize] nodes 5 -> 10; divisions 1 -> 1\n"
    result = totalize(parse_script(text), Fraction(1, 3))
    assert sum(map(count_nodes, result.assertions)) == 10
    assert sum(classify_script(result).counts.values()) == 1


def test_transform_totalize_value_and_style(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text(
        "(declare-fun x () Real)(declare-fun y () Real)(assert (= (/ x y) 1))\n"
    )
    assert (
        main(["transform", "totalize", "--div0-value", "1/2", str(src)]) == 0
    )
    assert "(ite (= y 0) 0.5 (/ x y))" in capsys.readouterr().out
    assert (
        main(["transform", "totalize", "--style", "fresh", str(src)]) == 0
    )
    out = capsys.readouterr().out
    assert "(declare-fun div0.0 () Real)" in out
    assert "(assert (= div0.0 (ite (= y 0) 0 (/ x y))))" in out


def test_transform_fresh_warning_is_one_line_before_the_summary(golden_div0_path, capsys):
    assert main(["transform", "totalize", "--style", "fresh", str(golden_div0_path)]) == 0
    assert capsys.readouterr().err == (
        "warning: fresh-symbol totalization cannot name a division under a quantifier; "
        "falling back to an inline branch\n"
        "[totalize] nodes 55 -> 94; divisions 6 -> 6\n"
    )


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_transform_fresh_warning_whatever_the_warning_filters(golden_div0_path, capsys, action):
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(["transform", "totalize", "--style", "fresh", str(golden_div0_path)]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: fresh-symbol totalization cannot name a division under a quantifier; "
        "falling back to an inline branch"
    ]


def test_transform_bad_div0_value(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text("(assert true)\n")
    assert main(["transform", "totalize", "--div0-value", "pi", str(src)]) == 70
    assert "bad --div0-value" in capsys.readouterr().err


def test_transform_uf_lift(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text(
        "(set-logic QF_NRA)(declare-fun x () Real)(assert (= (/ x x) 1))\n"
    )
    assert main(["transform", "uf-lift", str(src)]) == 0
    captured = capsys.readouterr()
    assert "(declare-fun udiv (Real Real) Real)" in captured.out
    assert "(set-logic QF_UFNRA)" in captured.out
    assert "division symbol udiv" in captured.err
    assert "logic QF_NRA -> QF_UFNRA" in captured.err


def test_transform_encode_div0_matches_golden(
    golden_int_path, golden_div0_path, tmp_path, capsys
):
    out_file = tmp_path / "enc.smt2"
    assert (
        main(
            ["transform", "encode-div0", str(golden_int_path), "-o", str(out_file)]
        )
        == 0
    )
    assert out_file.read_text() == golden_div0_path.read_text()


def test_transform_encode_with_witness_note(golden_int_path, capsys):
    assert (
        main(["transform", "encode-uf", str(golden_int_path), "--bound", "2"]) == 0
    )
    captured = capsys.readouterr()
    assert "(set-logic UFNRA)" in captured.out
    assert "integer witness within 2: a = -2, b = 0, c = -2" in captured.err


def test_transform_encode_bound_must_not_be_negative(golden_int_path, capsys):
    with pytest.raises(SystemExit) as excinfo:  # argparse refuses it: no box
        main(["transform", "encode-div0", str(golden_int_path), "--bound", "-1"])
    assert excinfo.value.code == 2
    assert "--bound" in capsys.readouterr().err
    assert main(["transform", "encode-div0", str(golden_int_path), "--bound", "0"]) == 0
    assert capsys.readouterr().err.rstrip("\n").endswith(
        "; integer witness within 0: a = 0, b = 0, c = 0"
    )


def test_transform_encode_no_witness_note(tmp_path, capsys):
    src = tmp_path / "twox.smt2"
    src.write_text(
        "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* 2 x) 1))\n"
    )
    assert main(["transform", "encode-div0", str(src), "--bound", "5"]) == 0
    assert "no integer witness with |values| <= 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, note",
    [
        ("", "integer witness within 2: (no variables)"),
        ("(assert (= 1 2))", "no integer witness with |values| <= 2"),
    ],
    ids=["true", "false"],
)
def test_transform_encode_witness_note_without_variables(tmp_path, capsys, body, note):
    src = tmp_path / "closed.smt2"
    src.write_text(f"(set-logic QF_NIA){body}(check-sat)\n")
    assert main(["transform", "encode-div0", str(src), "--bound", "2"]) == 0
    assert capsys.readouterr().err.rstrip("\n").endswith(f"; {note}")


def test_transform_encode_rejects_real_script(corpus_dir, capsys):
    path = str(corpus_dir / "poly_simple.smt2")
    assert main(["transform", "encode-uf", path]) == 70
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["totalize", "--div0-value", "1/2"], "error: total-division value 1/2 is not an integer\n"),
        (["uf-lift"], "error: cannot lift Int-sorted division to a Real function symbol\n"),
    ],
)
def test_a_pass_error_on_parsed_input_exits_70(tmp_path, capsys, argv, message):
    src = tmp_path / "intdiv.smt2"
    src.write_text("(set-logic QF_NIA)(declare-fun x () Int)(assert (= (/ x 2) 1))\n")
    assert main(["transform", argv[0], str(src), *argv[1:]]) == 70
    assert capsys.readouterr() == ("", message)


def run_in_ascii_locale(argv: list[str], **overrides: str) -> subprocess.CompletedProcess:
    """`nradiv argv` in a child whose stdout encodes ASCII only, with
    `overrides` added to its environment."""

    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONPATH=str(REPO / "src"), **overrides)
    command = [sys.executable, "-X", "utf8=0", "-m", "nradiv.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("to_file", [False, True])
def test_transform_of_non_ascii_text_in_an_ascii_locale(tmp_path, to_file):
    """`-o` writes UTF-8, as the input is read; a stdout that cannot encode
    the output gets none of it, and the error is one line."""

    src = tmp_path / "u.smt2"
    src.write_bytes(b"(declare-fun |\xc3\xa9| () Real)\n(assert (> (/ 1 |\xc3\xa9|) 0))\n")
    out = tmp_path / "out.smt2"
    argv = ["transform", "totalize", str(src)]
    if to_file:
        argv += ["-o", str(out)]
    run = run_in_ascii_locale(argv)
    if to_file:
        assert (run.returncode, run.stdout) == (0, b"")
        assert run.stderr == b"[totalize] nodes 5 -> 10; divisions 1 -> 1\n"
        assert out.read_bytes() == (
            b"(declare-fun |\xc3\xa9| () Real)\n"
            b"(assert (> (ite (= |\xc3\xa9| 0) 0 (/ 1 |\xc3\xa9|)) 0))\n"
        )
    else:
        assert (run.returncode, run.stdout) == (70, b"")
        assert run.stderr.startswith(b"error: stdout cannot encode the output")
        assert run.stderr.count(b"\n") == 1


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_classify_of_a_non_ascii_path_in_an_ascii_locale(tmp_path, flags):
    """The plain report names the path as it is, so a strict ASCII stdout
    gets nothing and one error line with no `--output` hint, which
    `classify` lacks; `--json` escapes the path."""

    src = tmp_path / "\u00e9.smt2"
    src.write_text("(declare-fun x () Real)\n(assert (> (/ 1 x) 0))\n")
    # In the C locale stdout escapes the undecodable bytes of a path back
    # as they came; a stdout encoding named in the environment is strict.
    run = run_in_ascii_locale(["classify", *flags, str(src)], PYTHONIOENCODING="ascii")
    if flags:
        assert (run.returncode, run.stderr) == (2, b"")
        assert json.loads(run.stdout)["verdict"] == "non-constant-division"
    else:
        assert (run.returncode, run.stdout) == (70, b"")
        assert run.stderr.startswith(b"error: stdout cannot encode the output: ")
        assert run.stderr.count(b"\n") == 1


def test_transform_rejects_unknown_pass(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "mystery", str(tmp_path / "x.smt2")])
    assert info.value.code == 2


def test_deeply_nested_metadata_and_unsupported_commands_pass_through(tmp_path, capsys):
    value = "(a " * 3000 + "b" + ")" * 3000
    text = f"(set-info :note {value})\n(push {value})\n(check-sat)\n"
    path = tmp_path / "deep-info.smt2"
    path.write_text(text)
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: polynomial-only\n"
    assert main(["transform", "totalize", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == text
    assert captured.err == "[totalize] nodes 0 -> 0; divisions 0 -> 0\n"


def test_command_names_are_matched_exactly(tmp_path, capsys):
    """`set_logic`, `declare_fun` and `check_sat` are no SMT-LIB commands:
    each is kept verbatim as unsupported, so it sets no logic and declares
    nothing."""

    text = "(set_logic QF_NRA)\n(declare_fun x () Real)\n(check_sat)\n"
    script = parse_script(text)
    assert (script.logic, script.decls, script.check_sat) == (None, (), False)
    path = tmp_path / "underscores.smt2"
    path.write_text(text)
    assert main(["transform", "totalize", str(path)]) == 0
    assert capsys.readouterr().out == text
    path.write_text("(declare_fun x () Real)\n(assert (> x 0))\n")
    assert main(["transform", "totalize", str(path)]) == 65
    assert capsys.readouterr().err == "error: undeclared symbol 'x' (line 2, column 12)\n"


# ---------------------------------------------------------------------------
# One argument parser per process


def test_main_reuses_one_parser_and_no_flag_carries_over(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text("(declare-fun a () Real)(assert (= (/ a 0) a))\n")
    calls = [
        ["classify", "--json", str(src)],
        ["classify", str(src)],
        ["classify", "--no-such-flag", str(src)],
        ["transform", "totalize", "--fold", str(src)],
        ["transform", "totalize", str(src)],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    first = []  # each call as the first of its process
    for argv in calls:
        cli._arg_parser.cache_clear()
        first.append(run(argv))
    cli._arg_parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    assert cli._arg_parser() is cli._arg_parser()
    assert first[2][:2] == (2, "")
    assert first[2][2].endswith("error: unrecognized arguments: --no-such-flag\n")
    assert first[0][1] != first[1][1] and first[3][1] != first[4][1]
    assert cli.build_arg_parser() is not cli.build_arg_parser()
