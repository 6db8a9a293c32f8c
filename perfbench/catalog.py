"""What each metric means and which end-to-end number it should move.

BENCHMARK.json holds every metric's name, unit and direction (and the
end-to-end bounds); this module adds the reading of each one.
`python3 perfbench/run.py --describe` prints both together.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = ("wide", "let-shared", "int-box")

# Layer functions timed as spans, named <module>.<function>.
SPANS = (
    "parser.parse_script",
    "analyzer.classify_script",
    "analyzer.collect_divisions",
    "passes.totalize",
    "passes.lift_to_uf",
    "passes.emit_nonzero_vcs",
    "passes.fold_script",
    "printer.print_script",
    "terms.count_nodes",
    "encoder.encode_via_div0",
    "encoder.encode_integer_formula",
    "encoder.decode_witness",
    "evaluator.eval_term",
    "evaluator.brute_force_int_sat",
    "evaluator.check_axiom_samples",
    "report.scan_directory",
    "report.render_report",
    "cli.main",
)
PASSES = ("totalize", "lift_to_uf", "emit_nonzero_vcs", "fold_script")

END_TO_END = {
    "ops_per_s": "operations per second over the workload's fixed operation list, at each operation's median latency",
    "op_p50_ms": "median across the operation list of each operation's median latency over its repeats",
    "op_p90_ms": "90th percentile across the operation list of each operation's median latency (at least 5 repeats each)",
    "input_MBps": "SMT-LIB bytes read by the CLI operations of one pass, per second of the pass",
    "output_MB": "bytes printed by the transform operations of one pass (size of generated scripts)",
    "peak_rss_mb": "maximum resident set size of the benchmark process after the timed loop",
    "setup_s": "cold `import nradiv.cli` plus `build_arg_parser()` in a fresh interpreter, median of 9",
}

# Per-layer metric -> (end-to-end metric and workload it should move).
# Times and counts are per pass of the workload's operation list.
_LAYER_MOVES = {
    "parser": "ops_per_s, input_MBps and op_p50_ms on wide; nothing on int-box",
    "analyzer": "ops_per_s and op_p90_ms on let-shared",
    "passes": "ops_per_s, op_p90_ms and peak_rss_mb on let-shared; secondary on wide",
    "printer": "output_MB and op_p90_ms on let-shared; ops_per_s on wide",
    "terms": "ops_per_s and peak_rss_mb on let-shared",
    "encoder": "guards op_p50_ms on int-box",
    "evaluator": "ops_per_s and op_p90_ms on int-box",
    "evaluator.eval_term": "guards op_p50_ms on wide (one-shot evaluation)",
    "report": "ops_per_s on wide",
    "cli": "op_p50_ms on every workload; failed operations on every workload",
    "trace": "nothing: cost of tracing itself, excluded from the end-to-end run",
    "bench": "nothing: the runner's own cost inside each operation",
}


def moves(metric: str) -> str:
    for key in sorted(_LAYER_MOVES, key=len, reverse=True):
        if metric == key or metric.startswith(key + "."):
            return _LAYER_MOVES[key]
    raise KeyError(metric)


def benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def units() -> dict[str, str]:
    spec = benchmark()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def describe() -> None:
    spec = benchmark()
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:12s} {w['why']}")
    print("end-to-end metrics (--trace 0), bound = allowed worsening of the median:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:14s} {m['unit']:6s} {m['better']:6s} bound {m['bound']:<5} {END_TO_END[m['name']]}")
    print("per-layer metrics (--trace 1), per pass of the operation list; each should move:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:40s} {m['unit']:6s} {m['better']:6s} {moves(m['name'])}")
