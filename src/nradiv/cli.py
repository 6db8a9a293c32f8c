"""Command-line driver: classify | scan | transform.

Exit codes: classify maps its verdict to 0 (polynomial-only),
1 (constant-division-only), or 2 (non-constant-division); other
commands use 0 for success.  Unparseable input exits 65 and any
other failure exits 70, on every command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

# `collect_divisions` and `count_nodes` are not called here, but perfbench's
# tracer patches them on this module by name, so they stay importable from it.
from .analyzer import (
    DivisorKind,
    FragmentLabel,
    classify_script,
    collect_divisions,  # noqa: F401
)
from .encoder import IntFormula, encode_integer_formula, encode_via_div0
from .errors import NradivError, ScriptError
from .evaluator import brute_force_int_sat
from .parser import parse_script
from .passes import TotalizeStyle, lift_to_uf, totalize
from .printer import format_value, print_script
from .report import render_report, scan_directory
from .terms import (
    Div,
    Script,
    count_nodes,  # noqa: F401
    dag_fold,
)

EXIT_PARSE_ERROR = 65
EXIT_INTERNAL_ERROR = 70

_VERDICT_EXIT = {
    FragmentLabel.POLYNOMIAL_ONLY: 0,
    FragmentLabel.CONSTANT_DIVISION_ONLY: 1,
    FragmentLabel.NON_CONSTANT_DIVISION: 2,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NradivError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_output(text: str, args: argparse.Namespace) -> None:
    """Write `text` to `args.output` if the command has that option and it
    is set, else to stdout."""

    output = getattr(args, "output", None)
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
        return
    try:  # a text stream encodes all of `text` before it writes any of it
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:
        hint = " (use --output)" if hasattr(args, "output") else ""
        raise NradivError(f"stdout cannot encode the output{hint}: {exc}") from exc


def _occurrence_line(occ) -> str:
    kind = occ.divisor_class.kind
    detail = str(kind)
    if kind is DivisorKind.CONSTANT_NONZERO:
        detail += f" (value {format_value(occ.divisor_class.value)})"
    if occ.under_quantifier:
        detail += ", under a quantifier"
    if occ.paths > 1:
        detail += f", on {occ.paths} paths"
    return f"  line {occ.loc.line} col {occ.loc.col}: {detail}"


CLASSIFY_SCHEMA_VERSION = 2  # 2: one occurrence per division and context, with its paths


def _occurrence_record(occ) -> dict:
    value = occ.divisor_class.value
    return {
        "line": occ.loc.line,
        "col": occ.loc.col,
        "class": occ.divisor_class.kind.value,
        "value": None if value is None else format_value(value),
        "under_quantifier": occ.under_quantifier,
        "paths": occ.paths,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify_script(args.script)
    if args.json:
        payload = {
            "path": args.path,
            "schema_version": CLASSIFY_SCHEMA_VERSION,
            "verdict": verdict.label.value,
            "occurrences": list(map(_occurrence_record, verdict.occurrences)),
        }
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = map(_occurrence_line, verdict.occurrences)
        out = "\n".join([f"{args.path}: {verdict.label}", *lines])
    _write_output(out + "\n", args)
    return _VERDICT_EXIT[verdict.label]


def cmd_scan(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise NradivError(f"not a directory: {root}")
    _write_output(render_report(scan_directory(root)), args)
    return 0


def _size_and_divisions(node, below: list[tuple[int, int]]) -> tuple[int, int]:
    nodes, divisions = 1, int(type(node) is Div)
    for n, d in below:
        nodes += n
        divisions += d
    return nodes, divisions


def _summary_counts(script: Script) -> tuple[int, int]:
    """Tree nodes and division occurrences over the script's assertions, a
    shared node counting once per path."""

    memo: dict = {}
    nodes = divisions = 0
    for assertion in script.assertions:
        n, d = dag_fold(assertion, _size_and_divisions, memo=memo)
        nodes += n
        divisions += d
    return nodes, divisions


def cmd_transform(args: argparse.Namespace) -> int:
    script = args.script
    notes: list[str] = []

    if args.transform_pass == "totalize":
        try:
            value = Fraction(args.div0_value)
        except (ValueError, ZeroDivisionError) as exc:
            raise NradivError(f"bad --div0-value {args.div0_value!r}: {exc}") from exc
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # whatever the caller's filters say
            out_script = totalize(script, value, TotalizeStyle(args.style), args.fold)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    elif args.transform_pass == "uf-lift":
        result = lift_to_uf(script)
        out_script = result.script
        if result.div_symbol is None:
            notes.append("no division to lift")
        else:
            notes.append(f"division symbol {result.div_symbol}")
            notes.append(f"logic {script.logic} -> {out_script.logic}")
    else:  # encode-uf | encode-div0
        formula = IntFormula.from_script(script)
        encode = (
            encode_integer_formula
            if args.transform_pass == "encode-uf"
            else encode_via_div0
        )
        out_script = encode(formula).script
        if args.bound is not None:
            witness = brute_force_int_sat(formula, args.bound)
            if witness is None:
                notes.append(f"no integer witness with |values| <= {args.bound}")
            else:
                rendered = ", ".join(f"{k} = {v}" for k, v in witness.items()) or "(no variables)"
                notes.append(f"integer witness within {args.bound}: {rendered}")

    counts: list[int] = []  # the printer counts what it prints
    _write_output(print_script(out_script, counts), args)
    nodes_in, divisions_in = _summary_counts(script)
    nodes_out, divisions_out = counts
    summary = (
        f"[{args.transform_pass}] nodes {nodes_in} -> {nodes_out}; "
        f"divisions {divisions_in} -> {divisions_out}"
    )
    for note in notes:
        summary += f"; {note}"
    print(summary, file=sys.stderr)
    return 0


# Commands that take `args.script`, parsed by `main` from `args.path`.
_TAKES_SCRIPT = (cmd_classify, cmd_transform)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nradiv",
        description="Analyze and repair division in SMT-LIB nonlinear arithmetic scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="report the division fragment of one script"
    )
    p_classify.add_argument("path")
    p_classify.add_argument("--json", action="store_true", help="structured output")
    p_classify.set_defaults(func=cmd_classify)

    p_scan = sub.add_parser("scan", help="classify every .smt2 file under a directory")
    p_scan.add_argument("directory")
    p_scan.add_argument("--output", "-o", help="write the JSON report here")
    p_scan.set_defaults(func=cmd_scan)

    p_transform = sub.add_parser("transform", help="rewrite a script and print it")
    p_transform.add_argument(
        "transform_pass",
        metavar="pass",
        choices=("totalize", "uf-lift", "encode-uf", "encode-div0"),
    )
    p_transform.add_argument("path")
    p_transform.add_argument(
        "--div0-value",
        default="0",
        help="totalize: value of x/0, as an exact rational (default 0)",
    )
    p_transform.add_argument(
        "--style",
        choices=tuple(s.value for s in TotalizeStyle),
        default=TotalizeStyle.BRANCH_INLINE.value,
        help="totalize: inline branch or fresh defined symbol",
    )
    p_transform.add_argument(
        "--fold", action="store_true", help="constant-fold the result"
    )
    p_transform.add_argument(
        "--bound",
        type=int,
        help="encode-*: also report a brute-force integer witness within this bound",
    )
    p_transform.add_argument("--output", "-o", help="write the script here, not stdout")
    p_transform.set_defaults(func=cmd_transform)

    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use rather than at import."""

    return build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        if args.func in _TAKES_SCRIPT:
            try:
                args.script = parse_script(_read(args.path))
            except ScriptError as exc:  # the one failure that is the input's
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_PARSE_ERROR
        return args.func(args)
    except (NradivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
