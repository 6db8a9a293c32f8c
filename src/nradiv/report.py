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
# `classify_script` is not called here, but perfbench's tracer patches it
# on this module by name, so it stays importable from it.
from .analyzer import (
    DivisorKind,
    FragmentLabel,
    classify_script,  # noqa: F401
    count_divisions,
    fragment_label,
)
from .errors import ScriptError
from .parser import parse_script

SCHEMA_VERSION = 1

_CLASS_KEYS = [kind.value for kind in DivisorKind]


def _empty_class_counts() -> dict[str, int]:
    return {key: 0 for key in _CLASS_KEYS}


def scan_directory(root: Path | str) -> dict:
    root = Path(root)
    records = []
    verdict_totals = {label.value: 0 for label in FragmentLabel}
    class_totals = _empty_class_counts()
    parsed = 0
    occurrences_total = 0

    paths = sorted(root.rglob("*.smt2"), key=lambda p: p.relative_to(root).as_posix())
    for path in paths:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            records.append({"path": rel, "status": "unreadable", "error": str(exc)})
            continue
        try:
            script = parse_script(text)
        except ScriptError as exc:
            records.append({"path": rel, "status": "parse-error", "error": str(exc)})
            continue
        counts = count_divisions(script)
        label = fragment_label(counts)
        classes = {kind.value: n for kind, n in counts.items()}
        occurrences = sum(counts.values())
        parsed += 1
        occurrences_total += occurrences
        verdict_totals[label.value] += 1
        for key in _CLASS_KEYS:
            class_totals[key] += classes[key]
        records.append(
            {
                "path": rel,
                "status": "ok",
                "verdict": label.value,
                "occurrences": occurrences,
                "classes": classes,
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "root": str(root),
        "files": records,
        "totals": {
            "files": len(records),
            "parsed": parsed,
            "failures": len(records) - parsed,
            "verdicts": verdict_totals,
            "occurrences": occurrences_total,
            "classes": class_totals,
        },
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
