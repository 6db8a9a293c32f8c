import json
import tempfile
import time
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from nradiv import (
    SCHEMA_VERSION,
    DivisorKind,
    FunDecl,
    Script,
    Sort,
    __version__,
    print_script,
    render_report,
    scan_directory,
)
from nradiv.cli import main
from nradiv.terms import const, div, lt, var

from strategies import literal_terms, scripts, shared_scripts
from support import doubling_let_script, per_path_counts

EXPECTED_TOTALS = {
    "files": 12,
    "parsed": 11,
    "failures": 1,
    "occurrences": 14,
    "verdicts": {
        "polynomial-only": 4,
        "constant-division-only": 4,
        "non-constant-division": 3,
    },
    "classes": {
        "constant-nonzero": 9,
        "constant-zero": 3,
        "non-constant": 2,
    },
}


def test_corpus_census(corpus_dir):
    report = scan_directory(corpus_dir)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["toolkit_version"] == __version__
    assert report["totals"] == EXPECTED_TOTALS


def test_file_records_are_sorted_and_complete(corpus_dir):
    report = scan_directory(corpus_dir)
    paths = [r["path"] for r in report["files"]]
    assert paths == sorted(paths)
    ok = [r for r in report["files"] if r["status"] == "ok"]
    for record in ok:
        assert record["occurrences"] == sum(record["classes"].values())
    bad = [r for r in report["files"] if r["status"] != "ok"]
    assert [r["path"] for r in bad] == ["malformed_unbalanced.smt2"]
    assert bad[0]["status"] == "parse-error"
    assert "error" in bad[0]


def test_report_is_deterministic_modulo_timestamp(corpus_dir):
    a = scan_directory(corpus_dir)
    b = scan_directory(corpus_dir)
    a.pop("generated_at")
    b.pop("generated_at")
    assert render_report(a) == render_report(b)


def test_render_report_is_valid_sorted_json(corpus_dir):
    text = render_report(scan_directory(corpus_dir))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["totals"]["files"] == 12
    lines = text.splitlines()
    assert lines[0] == "{"


def test_ignores_other_extensions(tmp_path):
    (tmp_path / "a.smt2").write_text("(assert true)")
    (tmp_path / "b.txt").write_text("(assert true)")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.smt2").write_text("(assert false)")
    report = scan_directory(tmp_path)
    assert [r["path"] for r in report["files"]] == ["a.smt2", "sub/c.smt2"]
    assert report["totals"] == {
        "files": 2,
        "parsed": 2,
        "failures": 0,
        "occurrences": 0,
        "verdicts": {
            "polynomial-only": 2,
            "constant-division-only": 0,
            "non-constant-division": 0,
        },
        "classes": {
            "constant-nonzero": 0,
            "constant-zero": 0,
            "non-constant": 0,
        },
    }


def test_unreadable_file_is_recorded(tmp_path):
    # a directory with the target suffix makes read_text raise OSError
    (tmp_path / "oops.smt2").mkdir()
    (tmp_path / "fine.smt2").write_text("(assert true)")
    report = scan_directory(tmp_path)
    by_path = {r["path"]: r for r in report["files"]}
    assert by_path["oops.smt2"]["status"] == "unreadable"
    assert report["totals"]["failures"] == 1
    assert report["totals"]["parsed"] == 1


def test_non_utf8_file_is_recorded(tmp_path):
    (tmp_path / "latin1.smt2").write_bytes(b"; caf\xe9\n(assert true)\n")
    (tmp_path / "fine.smt2").write_text("(assert true)")
    report = scan_directory(tmp_path)
    by_path = {r["path"]: r for r in report["files"]}
    assert by_path["latin1.smt2"]["status"] == "unreadable"
    assert "utf-8" in by_path["latin1.smt2"]["error"]
    assert by_path["fine.smt2"]["status"] == "ok"
    assert report["totals"]["failures"] == 1


def test_non_ascii_digit_is_a_parse_error_and_scan_continues(tmp_path):
    (tmp_path / "a.smt2").write_text("(declare-fun x () Real)(assert (= x \u00b2))", encoding="utf-8")
    (tmp_path / "b.smt2").write_text("(declare-fun x () Real)(assert (= x \u0663))", encoding="utf-8")
    (tmp_path / "c.smt2").write_text("(assert true)")
    report = scan_directory(tmp_path)
    by_path = {r["path"]: r for r in report["files"]}
    for name in ("a.smt2", "b.smt2"):
        assert by_path[name]["status"] == "parse-error"
        assert "unexpected character" in by_path[name]["error"]
    assert by_path["c.smt2"]["status"] == "ok"
    assert report["totals"]["failures"] == 2


def test_empty_directory(tmp_path):
    report = scan_directory(tmp_path)
    assert report["files"] == []
    assert report["totals"]["files"] == 0


def test_totals_are_sums_over_the_file_records(tmp_path):
    (tmp_path / "a.smt2").write_text("(declare-fun x () Real)(assert (= (/ x 2) (/ x x)))")
    (tmp_path / "b.smt2").write_text("(declare-fun x () Real)(assert (= (/ x 2) x))")
    (tmp_path / "bad.smt2").write_text("(assert")
    (tmp_path / "oops.smt2").mkdir()
    report = scan_directory(tmp_path)
    records = report["files"]
    assert [r["status"] for r in records] == ["ok", "ok", "parse-error", "unreadable"]
    ok = records[:2]
    totals = report["totals"]
    assert (totals["files"], totals["parsed"], totals["failures"]) == (4, 2, 2)
    assert totals["occurrences"] == sum(r["occurrences"] for r in ok) == 3
    assert totals["verdicts"] == {
        label: sum(r["verdict"] == label for r in ok) for label in totals["verdicts"]
    } == {"polynomial-only": 0, "constant-division-only": 1, "non-constant-division": 1}
    assert totals["classes"] == {
        key: sum(r["classes"][key] for r in ok) for key in totals["classes"]
    } == {"constant-nonzero": 2, "constant-zero": 0, "non-constant": 1}


# ---------------------------------------------------------------------------
# The census: each file's record counts a division once per tree path.


def per_path_record(script: Script) -> dict:
    """The verdict, classes and occurrences of a scan record, from a walk
    over every tree path classified per class."""

    counts = per_path_counts(script)
    total = sum(counts.values())
    if total == 0:
        verdict = "polynomial-only"
    elif counts[DivisorKind.CONSTANT_NONZERO] == total:
        verdict = "constant-division-only"
    else:
        verdict = "non-constant-division"
    classes = {kind.value: n for kind, n in counts.items()}
    return {"verdict": verdict, "classes": classes, "occurrences": total}


# Divisors of literals, zero often: the constant classes that `scripts`
# seldom draws.
literal_divisor_scripts = st.lists(
    literal_terms.map(lambda d: lt(div(var("x"), d), const(0))), min_size=1, max_size=3
).map(lambda assertions: Script(decls=(FunDecl("x", (), Sort.REAL),), assertions=tuple(assertions)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(scripts, shared_scripts(), literal_divisor_scripts))
def test_scan_record_is_the_per_path_census(script):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "s.smt2").write_text(print_script(script))
        (record,) = scan_directory(tmp)["files"]
    assert record == {"path": "s.smt2", "status": "ok", **per_path_record(script)}


def test_scan_counts_2_to_39_occurrences_in_under_a_second(tmp_path, capsys):
    (tmp_path / "doubling.smt2").write_text(doubling_let_script(40))
    start = time.perf_counter()
    assert main(["scan", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 1.0
    (record,) = json.loads(capsys.readouterr().out)["files"]
    assert record["occurrences"] == 2**39
    assert record["classes"] == {"constant-nonzero": 0, "constant-zero": 0, "non-constant": 2**39}
