import json

from nradiv import SCHEMA_VERSION, __version__, render_report, scan_directory

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


def test_empty_directory(tmp_path):
    report = scan_directory(tmp_path)
    assert report["files"] == []
    assert report["totals"]["files"] == 0
