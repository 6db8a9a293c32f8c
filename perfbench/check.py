"""Output checks, run after the timed region.

Each operation's result is compared with the generator's reference.  A
printed script must parse back with nradiv and print again to the same
text, and its assertions are evaluated by the small s-expression
evaluator below, which shares no code with nradiv, under the reading the
reference used.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Callable

import gen

TRACEBACK = "traceback"
EXIT_CODE = "exit-code"
MISMATCH = "output-mismatch"
NO_ROUND_TRIP = "no-round-trip"
FAILURE_KINDS = (TRACEBACK, EXIT_CODE, MISMATCH, NO_ROUND_TRIP)

VERDICT_EXIT = {gen.POLY: 0, gen.CONSTDIV: 1, gen.NONCONSTDIV: 2}

_TOKEN = re.compile(r'\s+|;[^\n]*|(\()|(\))|(\|[^|]*\|)|("(?:[^"]|"")*")|([^\s()|";]+)')
_SUMMARY = re.compile(r"^\[([\w-]+)\] nodes (\d+) -> (\d+); divisions (\d+) -> (\d+)(.*)$")


class CheckFailed(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def expect(ok: bool, kind: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(kind, detail)


# ---------------------------------------------------------------------------
# An independent reader and evaluator for printed scripts.


def read_sexprs(text: str) -> list:
    stack: list[list] = [[]]
    for m in _TOKEN.finditer(text):
        if m.group(1):
            stack.append([])
        elif m.group(2):
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        elif m.lastindex:
            stack[-1].append(m.group(m.lastindex))
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    return stack[0]


class Quantified(Exception):
    pass


_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


def sx_value(sx, env: dict, at_zero: Callable[[Fraction], Fraction], funcs: dict):
    if isinstance(sx, str):
        if sx == "true":
            return True
        if sx == "false":
            return False
        if sx[0].isdigit():
            return Fraction(sx)
        return env[sx]
    head, args = sx[0], sx[1:]
    if head in ("forall", "exists"):
        raise Quantified(head)
    if head == "ite":
        cond = sx_value(args[0], env, at_zero, funcs)
        return sx_value(args[1] if cond else args[2], env, at_zero, funcs)
    vals = [sx_value(a, env, at_zero, funcs) for a in args]
    if head == "/":
        out = vals[0]
        for d in vals[1:]:
            out = at_zero(out) if d == 0 else out / d
        return out
    if head == "+":
        return sum(vals, Fraction(0))
    if head == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:], Fraction(0))
    if head == "*":
        return math.prod(vals, start=Fraction(1))
    if head in _COMPARE:
        return all(_COMPARE[head](a, b) for a, b in zip(vals, vals[1:]))
    if head == "distinct":
        return len(set(vals)) == len(vals)
    if head == "not":
        return not vals[0]
    if head == "and":
        return all(vals)
    if head == "or":
        return any(vals)
    if head == "=>":
        out = vals[-1]
        for v in reversed(vals[:-1]):
            out = (not v) or out
        return out
    return funcs[head](*vals)


def script_view(text: str) -> tuple[list[str], list]:
    """Declared constant names and asserted terms of a printed script."""

    consts, assertions = [], []
    for cmd in read_sexprs(text):
        if cmd[0] == "declare-fun" and cmd[2] == []:
            consts.append(cmd[1])
        elif cmd[0] == "assert":
            assertions.append(cmd[1])
    return consts, assertions


def truth_values(text: str, env: dict, at_zero, funcs: dict, originals: int | None = None) -> list[bool | None]:
    """Truth of every assertion; None for quantified ones.

    Assertions after the first `originals` were added by the pass.  Those
    of the form `(= c term)`, for a constant `c` without a value (totalize's
    `div0.N`), define it, in order.
    """

    consts, assertions = script_view(text)
    env = dict(env)
    for sx in assertions[len(assertions) if originals is None else originals :]:
        if isinstance(sx, list) and sx[0] == "=" and isinstance(sx[1], str) and sx[1] in consts and sx[1] not in env:
            env[sx[1]] = sx_value(sx[2], env, at_zero, funcs)
    out: list[bool | None] = []
    for sx in assertions:
        try:
            out.append(bool(sx_value(sx, env, at_zero, funcs)))
        except Quantified:
            out.append(None)
    return out


def zero_reading(_n: Fraction) -> Fraction:
    return Fraction(0)


def floor_reading(n: Fraction) -> Fraction:
    return Fraction(math.floor(n))


def zero_udiv(n: Fraction, d: Fraction) -> Fraction:
    return Fraction(0) if d == 0 else n / d


# ---------------------------------------------------------------------------
# Checks per operation kind.  Each raises CheckFailed on a wrong result;
# the checks of printed scripts return their size in bytes.


def round_trip(text: str) -> None:
    from nradiv.errors import NradivError
    from nradiv.parser import parse_script
    from nradiv.printer import print_script

    try:
        again = print_script(parse_script(text))
    except (NradivError, ValueError, RecursionError) as exc:
        raise CheckFailed(NO_ROUND_TRIP, f"{type(exc).__name__}: {exc}") from None
    expect(again == text, NO_ROUND_TRIP, "printing the parsed output changes it")


def check_classify(case: gen.RealCase, result) -> None:
    rc, out, _err = result
    expect(rc == VERDICT_EXIT[case.verdict], EXIT_CODE, f"exit {rc}, want {VERDICT_EXIT[case.verdict]}")
    payload = json.loads(out)
    expect(payload["verdict"] == case.verdict, MISMATCH, f"verdict {payload['verdict']}")
    classes = dict.fromkeys(gen.CLASSES, 0)
    for occ in payload["occurrences"]:
        classes[occ["class"]] += 1
    check_classes(case, classes)


def check_classes(case: gen.RealCase, classes: dict[str, int]) -> None:
    if case.shared:
        planted = {c for c, n in case.classes.items() if n}
        seen = {c for c, n in classes.items() if n}
        expect(seen == planted, MISMATCH, f"classes {seen}, want {planted}")
    else:
        expect(classes == case.classes, MISMATCH, f"classes {classes}, want {case.classes}")


def check_transform(case: gen.RealCase, variant: str, result) -> int:
    """Returns the printed size in bytes."""

    rc, out, err = result
    expect(rc == 0, EXIT_CODE, f"exit {rc}: {err.strip()[-200:]}")
    round_trip(out)
    m = _SUMMARY.match(err.strip().splitlines()[-1])
    expect(m is not None, MISMATCH, f"summary line {err!r}")
    div_in, div_out = int(m.group(4)), int(m.group(5))
    if case.shared:
        expect(div_in >= 1, MISMATCH, "no division counted")
    else:
        expect(div_in == case.divisions, MISMATCH, f"divisions {div_in}, want {case.divisions}")
    if variant == "uf-lift":
        expect(div_out == 0, MISMATCH, f"{div_out} divisions left after uf-lift")
    elif variant == "totalize-fold":
        expect(div_out <= div_in, MISMATCH, f"folding added divisions: {div_out}")
    else:
        expect(div_out == div_in, MISMATCH, f"divisions {div_in} -> {div_out}")
    got = truth_values(out, case.assignment, zero_reading, {"udiv": zero_udiv}, len(case.truths))
    for i, want in enumerate(case.truths):
        if want is not None:
            expect(got[i] == want, MISMATCH, f"assertion {i} evaluates to {got[i]}")
    return len(out.encode())


def check_encode(case: gen.IntCase, mode: str, result) -> int:
    rc, out, err = result
    expect(rc == 0, EXIT_CODE, f"exit {rc}: {err.strip()[-200:]}")
    round_trip(out)
    summary = err.strip().splitlines()[-1]
    expect(_SUMMARY.match(summary) is not None, MISMATCH, f"summary line {summary!r}")
    if mode == "encode-div0":
        if case.witness is None:
            note = f"no integer witness with |values| <= {case.bound}"
        else:
            rendered = ", ".join(f"{v} = {x}" for v, x in zip(case.variables, case.witness))
            note = f"integer witness within {case.bound}: {rendered}"
        expect(summary.endswith(note), MISMATCH, f"summary {summary!r}, want {note!r}")
    point = case.witness or (0,) * len(case.variables)
    env = {v: Fraction(x) for v, x in zip(case.variables, point)}
    got = [t for t in truth_values(out, env, floor_reading, {"f": floor_reading}) if t is not None]
    expect(all(got) == case.holds(point), MISMATCH, f"encoding at {point} evaluates to {got}")
    return len(out.encode())


def check_eval(case: gen.RealCase, result) -> None:
    want = [t for t in case.truths if t is not None]
    expect(result == want, MISMATCH, f"eval gives {result}, want {want}")


def check_vcs(case: gen.RealCase, result) -> None:
    from nradiv.printer import format_term

    result = [format_term(vc) for vc in result]
    if case.shared:
        expect(len(result) >= 1, MISMATCH, "no obligations")
        expect(set(result) == {case.vc_text}, MISMATCH, f"obligations {sorted(set(result))[:3]}")
    else:
        expect(len(result) == case.divisions, MISMATCH, f"{len(result)} obligations, want {case.divisions}")


def check_scan(cases: dict, result) -> None:
    rc, out, _err = result
    expect(rc == 0, EXIT_CODE, f"exit {rc}")
    report = json.loads(out)
    expect(report["totals"]["files"] == len(cases), MISMATCH, f"{report['totals']['files']} files")
    for rec in report["files"]:
        case = cases[rec["path"]]
        expect(rec["status"] == "ok", MISMATCH, f"{rec['path']}: {rec['status']}")
        if isinstance(case, gen.IntCase):
            expect(rec["verdict"] == gen.POLY, MISMATCH, f"{rec['path']}: {rec['verdict']}")
        else:
            expect(rec["verdict"] == case.verdict, MISMATCH, f"{rec['path']}: {rec['verdict']}")
            check_classes(case, rec["classes"])


def check_brute_force(case: gen.IntCase, result) -> None:
    want = None if case.witness is None else dict(zip(case.variables, case.witness))
    expect(result == want, MISMATCH, f"witness {result}, want {want}")


def check_decode(case: gen.IntCase, result) -> None:
    if case.witness is None:
        expect(result[:2] == ("raised", "DecodeError"), MISMATCH, f"decoded a non-witness: {result}")
    else:
        expect(result == dict(zip(case.variables, case.witness)), MISMATCH, f"decoded {result}")


def check_axioms(samples: list[Fraction], result) -> None:
    expect(result == (len(samples), 0), MISMATCH, f"(samples, violations) = {result}")
