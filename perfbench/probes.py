"""Probes for the known defects listed in ROADMAP.md.

Each probe runs one CLI command in-process on a small hand-made input
and states the documented contract: a failure exits 65 or 70 with a
one-line message and no traceback, `scan` records a bad file and goes
on, and printed output parses back.  A probe fails while its defect is
present.  The probes are not part of a timed workload, whose operations
must all succeed.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

HEADER = "(set-logic QF_NRA)\n(declare-fun x () Real)\n"


def nested(depth: int) -> str:
    return HEADER + "(assert (= x " + "(+ 1 " * depth + "x" + ")" * depth + "))\n"


def run_cli(argv: list[str]):
    from nradiv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            return None, "", f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def clean_failure(result) -> str | None:
    rc, _out, err = result
    if rc is None:
        return f"raised {err}"
    if rc not in (65, 70):
        return f"exit {rc}, want 65 or 70"
    if len(err.strip().splitlines()) != 1:
        return f"message is {len(err.strip().splitlines())} lines"
    return None


def classify_or_clean_failure(result) -> str | None:
    """A deep script may be classified (exit 0-2) or refused cleanly."""

    if result[0] in (0, 1, 2):
        return None
    return clean_failure(result)


def scan_records_bad_file(result) -> str | None:
    rc, out, err = result
    if rc is None:
        return f"raised {err}"
    if rc != 0:
        return f"exit {rc}: {err.strip().splitlines()[-1:] if err else ''}"
    statuses = {r["path"]: r["status"] for r in json.loads(out)["files"]}
    if statuses.get("good.smt2") != "ok" or statuses.get("latin1.smt2") == "ok":
        return f"statuses {statuses}"
    return None


def prints_parseable(result) -> str | None:
    from nradiv.errors import NradivError
    from nradiv.parser import parse_script

    rc, out, err = result
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    try:
        parse_script(out)
    except NradivError as exc:
        return f"output does not parse back: {exc}"
    return None


def main(root: Path) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-probes-", dir=root) as tmp:
        d = Path(tmp)
        (d / "deep240.smt2").write_text(nested(240))
        (d / "deep300.smt2").write_text(nested(300))
        bad = d / "latin1"
        bad.mkdir()
        (bad / "latin1.smt2").write_bytes(HEADER.encode() + b"; caf\xe9\n(assert (> x 0))\n")
        (bad / "good.smt2").write_text(HEADER + "(assert (> x 0))\n")
        (d / "backslash.smt2").write_text("(set-logic QF_NRA)\n(declare-fun |a\\b| () Real)\n(assert (= (/ |a\\b| 2) 1))\n")
        (d / "bound-udiv.smt2").write_text(HEADER + "(assert (forall ((udiv Real)) (= (/ udiv x) 1)))\n")
        probes = [
            ("depth-240 classify (control)", ["classify", str(d / "deep240.smt2")], classify_or_clean_failure),
            ("depth-300 classify", ["classify", str(d / "deep300.smt2")], classify_or_clean_failure),
            ("non-UTF-8 classify", ["classify", str(bad / "latin1.smt2")], clean_failure),
            ("non-UTF-8 scan", ["scan", str(bad)], scan_records_bad_file),
            ("|a\\b| totalize", ["transform", "totalize", str(d / "backslash.smt2")], clean_failure),
            ("bound udiv uf-lift", ["transform", "uf-lift", str(d / "bound-udiv.smt2")], prints_parseable),
        ]
        failed = 0
        for name, argv, judge in probes:
            problem = judge(run_cli(argv))
            failed += problem is not None
            print(f"{'FAIL' if problem else 'ok  '} {name}" + (f": {problem}" if problem else ""))
    print(json.dumps({"probes": len(probes), "failed": failed}))
    return 0
