"""nradiv benchmark runner.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --describe
    python3 perfbench/run.py --probes

Run from the repository root.  One closed-loop client in this process
repeats the workload's fixed operation list until the time is up, each
operation starting when the previous one has returned.  CLI commands run
in-process through `nradiv.cli.main`; `eval_term`, `emit_nonzero_vcs`,
`brute_force_int_sat`, `decode_witness` and `check_axiom_samples`, which
have no command, are called directly.  Latencies are scaled by a
machine-speed gauge (see gauge.py).  Every result is checked against the
generator's reference after the timed region.  The last line of standard
output is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics from a separate traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import catalog  # noqa: E402
import check  # noqa: E402
import gauge  # noqa: E402
import gen  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 5  # repeats of each operation behind its median latency
MAX_LOOP_SECONDS = 120  # stop starting passes after this, whatever --seconds says
SETUP_REPEATS = 9

INT_BOX_SCHEDULE = [
    ("cubic", 9, 0.5),
    ("cubic", 7, None),
    ("quadratic", 9, 0.45),
    ("quadratic", 6, None),
    ("bilinear", 4, 0.45),
    ("bilinear", 3, None),
]


def workload_cases(name: str, seed: int) -> tuple[list[gen.RealCase], list[gen.IntCase]]:
    """Main inputs plus tiny inputs of the other kinds, so every layer runs."""

    if name == "wide":
        real = gen.wide_cases(seed, gen.wide_sizes(8, 1500, 24000)) + gen.let_cases(seed, [3], "let-side")
        ints = gen.int_cases(seed, [("cubic", 2, 0.5)], "int-side")
    elif name == "let-shared":
        # Pairs of equal K put the p90 rank inside a cluster of like
        # operations, so it does not jump between operations of different K.
        real = gen.let_cases(seed, [8, 9, 10, 10, 11, 11])
        ints = gen.int_cases(seed, [("quadratic", 2, 0.3)], "int-side")
    elif name == "int-box":
        real = gen.let_cases(seed, [3], "let-side")
        ints = gen.int_cases(seed, INT_BOX_SCHEDULE)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return real, ints


def axiom_samples(seed: int) -> list[Fraction]:
    rng = gen.rng_for("axioms", seed)
    return [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 7, 11))) for _ in range(300)]


# ---------------------------------------------------------------------------
# Operations.


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[dict], object]  # library table -> result
    verify: Callable[[object], int | None]  # raises check.CheckFailed; returns printed bytes
    input_bytes: int = 0
    points: int = 0  # reference point count, for the traced brute-force counter
    first: object = None
    count: int = 0
    others: list = field(default_factory=list)  # results that differ from the first
    samples: list[float] = field(default_factory=list)  # untraced latencies, normalized ns


def library_table() -> dict[str, Callable]:
    import nradiv.cli
    from nradiv import (
        FLOOR,
        check_axiom_samples,
        constant_interpretation,
        decode_witness,
        emit_nonzero_vcs,
        eval_term,
    )
    from nradiv.evaluator import brute_force_int_sat

    zero = constant_interpretation(0)

    def eval_all(terms, env):
        return [eval_term(t, env, zero) for t in terms]

    def axioms(samples):
        report = check_axiom_samples(FLOOR, samples)
        return report.samples, len(report.violations)

    return {
        "cli.main": nradiv.cli.main,
        "evaluator.eval_term": eval_all,
        "passes.emit_nonzero_vcs": emit_nonzero_vcs,
        "evaluator.brute_force_int_sat": brute_force_int_sat,
        "encoder.decode_witness": decode_witness,
        "evaluator.check_axiom_samples": axioms,
    }


def run_cli(lib: dict, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib["cli.main"](argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            return ("traceback", traceback.format_exc(limit=-2))
    return (rc, out.getvalue(), err.getvalue())


def run_library(fn: Callable[[dict], object]):
    def run(lib):
        try:
            return fn(lib)
        except Exception as exc:
            return ("raised", type(exc).__name__, str(exc))

    return run


def cli_verify(fn):
    def verify(result):
        if result[0] == "traceback":
            raise check.CheckFailed(check.TRACEBACK, result[1].strip().splitlines()[-1])
        return fn(result)

    return verify


def lib_verify(fn, expected_raise: bool = False):
    def verify(result):
        if isinstance(result, tuple) and result[:1] == ("raised",) and not expected_raise:
            raise check.CheckFailed(check.TRACEBACK, f"{result[1]}: {result[2]}")
        return fn(result)

    return verify


TRANSFORMS = {
    "totalize": ["transform", "totalize"],
    "totalize-fresh": ["transform", "totalize", "--style", "fresh"],
    "totalize-fold": ["transform", "totalize", "--fold"],
    "uf-lift": ["transform", "uf-lift"],
}


def build_ops(workdir: Path, real: list[gen.RealCase], ints: list[gen.IntCase], seed: int) -> list[Op]:
    from nradiv import IntFormula, encode_via_div0, parse_script

    ops: list[Op] = []
    by_path: dict[str, object] = {}
    for case in real:
        path = workdir / f"{case.name}.smt2"
        path.write_text(case.text)
        by_path[path.name] = case
        size = len(case.text.encode())
        p = str(path)
        ops.append(Op("classify", case.name, lambda lib, p=p: run_cli(lib, ["classify", "--json", p]),
                      cli_verify(lambda r, c=case: check.check_classify(c, r)), size))
        for variant, argv in TRANSFORMS.items():
            ops.append(Op(variant, case.name, lambda lib, a=argv + [p]: run_cli(lib, a),
                          cli_verify(lambda r, c=case, v=variant: check.check_transform(c, v, r)), size))
        script = parse_script(case.text)
        terms = [a for a, t in zip(script.assertions, case.truths) if t is not None]
        env = dict(case.assignment)
        ops.append(Op("eval", case.name, run_library(lambda lib, t=terms, e=env: lib["evaluator.eval_term"](t, e)),
                      lib_verify(lambda r, c=case: check.check_eval(c, r))))
        ops.append(Op("vcs", case.name,
                      run_library(lambda lib, s=script: lib["passes.emit_nonzero_vcs"](s)),
                      lib_verify(lambda r, c=case: check.check_vcs(c, r))))
    for case in ints:
        path = workdir / f"{case.name}.smt2"
        path.write_text(case.text)
        by_path[path.name] = case
        size = len(case.text.encode())
        p = str(path)
        ops.append(Op("encode-div0", case.name,
                      lambda lib, p=p, b=case.bound: run_cli(lib, ["transform", "encode-div0", p, "--bound", str(b)]),
                      cli_verify(lambda r, c=case: check.check_encode(c, "encode-div0", r)), size, case.points))
        ops.append(Op("encode-uf", case.name, lambda lib, p=p: run_cli(lib, ["transform", "encode-uf", p]),
                      cli_verify(lambda r, c=case: check.check_encode(c, "encode-uf", r)), size))
        formula = IntFormula.from_script(parse_script(case.text))
        ops.append(Op("brute-force", case.name,
                      run_library(lambda lib, f=formula, b=case.bound: lib["evaluator.brute_force_int_sat"](f, b)),
                      lib_verify(lambda r, c=case: check.check_brute_force(c, r)), 0, case.points))
        problem = encode_via_div0(formula)
        point = case.witness or (0,) * len(case.variables)
        assignment = {v: Fraction(x) for v, x in zip(case.variables, point)}
        ops.append(Op("decode", case.name,
                      run_library(lambda lib, pr=problem, a=assignment: lib["encoder.decode_witness"](pr, a)),
                      lib_verify(lambda r, c=case: check.check_decode(c, r), expected_raise=case.witness is None)))
    total = sum(len(c.text.encode()) for c in by_path.values())
    ops.append(Op("scan", workdir.name, lambda lib: run_cli(lib, ["scan", str(workdir)]),
                  cli_verify(lambda r: check.check_scan(by_path, r)), total))
    samples = axiom_samples(seed)
    ops.append(Op("axioms", "floor", run_library(lambda lib: lib["evaluator.check_axiom_samples"](samples)),
                  lib_verify(lambda r: check.check_axioms(samples, r))))
    return ops


# ---------------------------------------------------------------------------
# Timing.


def run_pass(ops: list[Op], lib: dict, speed: gauge.Gauge, tracer: spans.Tracer | None = None) -> float:
    """Run every operation once; returns the pass's normalized operation time.

    The gauge runs before the first operation and after each one, and each
    latency is scaled by the gauge samples on either side of it.
    """

    total = 0.0
    before = speed.sample()
    for op in ops:
        if tracer is None:
            start = time.perf_counter_ns()
            result = op.run(lib)
            elapsed = time.perf_counter_ns() - start
        else:
            tracer.points_hint = op.points
            first_span = len(tracer.spans)
            result = tracer.call("bench.op", op.run, lib)
            _, begin, end, _ = tracer.spans[first_span]
            elapsed = end - begin
        after = speed.sample()
        scale = gauge.factor(before, after)
        before = after
        if tracer is None:
            op.samples.append(elapsed * scale)
        else:
            tracer.scale_from(first_span, scale)
        total += elapsed * scale / 1e9
        if op.count == 0:
            op.first = result
        elif result != op.first:
            op.others.append(result)
        op.count += 1
    return total


def verify_ops(ops: list[Op]) -> tuple[int, int, dict[str, int], int, list[str]]:
    """(attempted, failed, failures by kind, printed bytes per pass, messages)."""

    attempted = failed = printed = 0
    kinds = dict.fromkeys(check.FAILURE_KINDS, 0)
    messages: list[str] = []

    def judge(op: Op, result) -> tuple[str | None, int]:
        try:
            return None, op.verify(result) or 0
        except check.CheckFailed as exc:
            messages.append(f"{op.kind} {op.label}: {exc}")
            return exc.kind, 0
        except Exception as exc:  # a malformed result is a failed operation
            messages.append(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
            return check.MISMATCH, 0

    for op in ops:
        attempted += op.count
        kind, size = judge(op, op.first)
        printed += size
        fails = op.count - len(op.others) if kind else 0
        if kind:
            kinds[kind] += fails
        for other in op.others:
            other_kind, _ = judge(op, other)
            if op.kind != "scan" and other_kind is None:
                other_kind = check.MISMATCH  # a repeat printed something else
                messages.append(f"{op.kind} {op.label}: output differs between passes")
            if other_kind:
                kinds[other_kind] += 1
                fails += 1
        failed += fails
    return attempted, failed, kinds, printed, messages


def measure_setup(speed: gauge.Gauge) -> float:
    """Median of cold `import nradiv.cli` + `build_arg_parser()` in fresh
    interpreters, each scaled by the gauge around its launch."""

    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        "import nradiv.cli\n"
        "nradiv.cli.build_arg_parser()\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = min(speed.sample() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT
        )
        after = min(speed.sample() for _ in range(3))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:  # the first launch writes the bytecode cache
            times.append(float(proc.stdout.strip()) * gauge.factor(before, after))
    return statistics.median(times)


def timed_run(ops: list[Op], seconds: float, trace: bool, speed: gauge.Gauge):
    """Repeat passes until `seconds` have gone by and every operation has run
    MIN_PASSES times.  A traced run alternates untraced and traced passes and
    ends on a traced one.  Returns the normalized operation time of each
    untraced and traced pass, and the tracer."""

    lib = library_table()
    # The inputs built above stay alive for the whole run; keep them out of
    # the collector's way so they do not slow nradiv's own collections.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracer = spans.Tracer() if trace else None
    passes = 0
    while True:
        traced_pass = trace and passes % 2 == 1
        if traced_pass:
            tracer.counting = not walls[True]  # counts repeat exactly; take them once
            with tracer.patched():
                traced_lib = {k: tracer.wrap(k, v) for k, v in lib.items()}
                walls[True].append(run_pass(ops, traced_lib, speed, tracer))
        else:
            walls[False].append(run_pass(ops, lib, speed))
        passes += 1
        if trace and passes % 2:
            continue  # finish on a traced pass
        elapsed = time.perf_counter() - started
        enough = passes >= (2 if trace else MIN_PASSES)
        if (elapsed >= seconds and enough) or elapsed >= MAX_LOOP_SECONDS:
            break
    return walls, tracer


def end_to_end(ops: list[Op], printed: int, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Each operation's latency is the median of its normalized repeats.
    Rates follow from the sum of these latencies over the operation list;
    p50 and p90 are taken across the list."""

    ms = [statistics.median(op.samples) / 1e6 for op in ops]
    pass_s = sum(ms) / 1e3
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "ops_per_s": len(ops) / pass_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": deciles[8],
        "input_MBps": sum(op.input_bytes for op in ops) / 1e6 / pass_s,
        "output_MB": printed / 1e6,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer: spans.Tracer, walls, ops: list[Op], failed_kinds: dict[str, int]) -> dict[str, float]:
    """Self times are normalized seconds per traced pass; counts are per
    pass; failed operations are for the whole run."""

    n = len(walls[True])
    selfs = tracer.self_times()
    counts = tracer.counts  # from the first traced pass
    values: dict[str, float] = {}
    for name in catalog.SPANS:
        values[f"{name}.self_s"] = selfs.get(name, 0.0) / n
    values["parser.parse_script.calls"] = counts["parser.parse_script.calls"]
    values["parser.MBps"] = counts["parser.bytes"] / 1e6 / max(values["parser.parse_script.self_s"], 1e-12)
    values["analyzer.occurrences"] = counts["analyzer.occurrences"]
    for p in catalog.PASSES:
        values[f"passes.{p}.nodes_in"] = counts[f"passes.{p}.nodes_in"]
        values[f"passes.{p}.nodes_out"] = counts[f"passes.{p}.nodes_out"]
    values["printer.bytes_out"] = counts["printer.bytes_out"]
    values["terms.tree_nodes"] = counts["terms.tree_nodes"]
    values["terms.dag_nodes"] = counts["terms.dag_nodes"]
    values["terms.sharing_ratio"] = counts["terms.tree_nodes"] / max(counts["terms.dag_nodes"], 1)
    values["evaluator.points"] = counts["evaluator.points"]
    values["evaluator.points_per_s"] = counts["evaluator.points"] / max(
        values["evaluator.brute_force_int_sat.self_s"], 1e-12
    )
    values["report.files"] = counts["report.files"]
    values["cli.failed_ops"] = float(sum(failed_kinds.values()))
    for kind in check.FAILURE_KINDS:
        values[f"cli.failed_ops.{kind}"] = float(failed_kinds[kind])
    values["bench.harness.self_s"] = selfs.get("bench.op", 0.0) / n
    values["trace.bookkeeping_s"] = selfs.get(spans.BOOKKEEPING, 0.0) / n
    values["trace.wall_s"] = statistics.mean(walls[True])
    values["trace.untraced_wall_s"] = sum(statistics.median(op.samples) for op in ops) / 1e9
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def run_workload(args) -> dict:
    real, ints = workload_cases(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp) / args.workload
        workdir.mkdir()
        ops = build_ops(workdir, real, ints, args.seed)
        speed = gauge.Gauge()
        setup_s = 0.0 if args.trace else measure_setup(speed)
        walls, tracer = timed_run(ops, args.seconds, bool(args.trace), speed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, kinds, printed, messages = verify_ops(ops)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, walls, ops, kinds)
        tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.jsonl")
        names = [m["name"] for m in catalog.benchmark()["per_layer"]]
    else:
        metrics = end_to_end(ops, printed, setup_s, rss_mb)
        names = [m["name"] for m in catalog.benchmark()["end_to_end"]]
    units = catalog.units()
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"{attempted} run ({len(walls[False])} untraced passes, {len(walls[True])} traced), {failed} failed")
    for name in names:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print every metric and what it should move")
    parser.add_argument("--probes", action="store_true", help="run the known-defect probes")
    args = parser.parse_args(argv)

    if args.describe:
        catalog.describe()
        return 0
    if not (SRC / "nradiv" / "cli.py").is_file():
        print(f"error: no nradiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("always")  # the same warnings on every pass
    if args.probes:
        return probes.main(ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
