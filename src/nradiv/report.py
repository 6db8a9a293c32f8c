"""Corpus census: classify every .smt2 file under a directory.

The report is plain JSON with a schema version.  File records are
sorted by path and all keys are emitted sorted, so two scans of the
same tree differ only in the `generated_at` timestamp.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analyzer import DivisorKind, FragmentLabel, classify_script
from .errors import NradivError, ScriptError
from .parser import parse_script

SCHEMA_VERSION = 1


def _record(root: Path, path: Path) -> dict:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return {"path": rel, "status": "unreadable", "error": str(exc)}
    try:
        script = parse_script(text)
    except ScriptError as exc:
        return {"path": rel, "status": "parse-error", "error": str(exc)}
    try:
        verdict = classify_script(script)
    except NradivError as exc:  # a folded divisor past the digits CPython prints
        return {"path": rel, "status": "error", "error": str(exc)}
    counts = verdict.counts
    return {
        "path": rel,
        "status": "ok",
        "verdict": verdict.label.value,
        "occurrences": sum(counts.values()),
        "classes": {kind.value: n for kind, n in counts.items()},
    }


def scan_directory(root: Path | str) -> dict:
    """One record per .smt2 file under `root`; the totals are sums over
    the records of the files that parsed."""

    root = Path(root)
    paths = sorted(root.rglob("*.smt2"), key=lambda p: p.relative_to(root).as_posix())
    records = [_record(root, path) for path in paths]
    ok = [r for r in records if r["status"] == "ok"]
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "root": str(root),
        "files": records,
        "totals": {
            "files": len(records),
            "parsed": len(ok),
            "failures": len(records) - len(ok),
            "verdicts": {
                label.value: sum(r["verdict"] == label.value for r in ok)
                for label in FragmentLabel
            },
            "occurrences": sum(r["occurrences"] for r in ok),
            "classes": {
                kind.value: sum(r["classes"][kind.value] for r in ok) for kind in DivisorKind
            },
        },
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
