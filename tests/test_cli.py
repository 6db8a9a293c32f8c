import json
import re
import sys

import pytest

from nradiv.cli import main


def fake_solver(tmp_path, answer: str) -> str:
    path = tmp_path / "solver.py"
    path.write_text(f'import sys\nsys.stdin.read()\nprint("{answer}")\n')
    return f"{sys.executable} {path}"


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


def test_non_ascii_digit_exits_65(tmp_path, capsys):
    path = tmp_path / "digit.smt2"
    path.write_text("(declare-fun x () Real)(assert (= x \u00b2))", encoding="utf-8")
    assert main(["classify", str(path)]) == 65
    assert "unexpected character" in one_line_error(capsys)
    assert main(["transform", "totalize", str(path)]) == 65
    assert "unexpected character" in one_line_error(capsys)


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


def test_transform_encode_no_witness_note(tmp_path, capsys):
    src = tmp_path / "twox.smt2"
    src.write_text(
        "(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* 2 x) 1))\n"
    )
    assert main(["transform", "encode-div0", str(src), "--bound", "5"]) == 0
    assert "no integer witness with |values| <= 5" in capsys.readouterr().err


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


def test_transform_rejects_unknown_pass(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "mystery", str(tmp_path / "x.smt2")])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_success(corpus_dir, tmp_path, capsys):
    cmd = fake_solver(tmp_path, "sat")
    path = str(corpus_dir / "poly_simple.smt2")
    assert main(["solve", path, "--solver", cmd]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"sat \(\d+\.\d{3}s\)\n", out)


def test_solve_streams_any_file(corpus_dir, tmp_path, capsys):
    # solve never parses; even a malformed script is piped through
    cmd = fake_solver(tmp_path, "unknown")
    path = str(corpus_dir / "malformed_unbalanced.smt2")
    assert main(["solve", path, "--solver", cmd]) == 0
    assert capsys.readouterr().out.startswith("unknown")


def test_solve_error_output(tmp_path, capsys):
    cmd = fake_solver(tmp_path, "boom: unsupported logic")
    src = tmp_path / "in.smt2"
    src.write_text("(assert true)\n")
    assert main(["solve", str(src), "--solver", cmd]) == 70
    captured = capsys.readouterr()
    assert captured.out.startswith("error (")
    assert "boom: unsupported logic" in captured.err


def test_solve_missing_solver(tmp_path, capsys):
    src = tmp_path / "in.smt2"
    src.write_text("(assert true)\n")
    missing = str(tmp_path / "no-such-binary")
    assert main(["solve", str(src), "--solver", missing]) == 70
    assert "cannot run solver" in capsys.readouterr().err


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
