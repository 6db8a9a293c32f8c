"""Spans around the calls into each nradiv layer, kept in memory.

`Tracer.patched()` swaps the module attributes that `nradiv.cli`,
`nradiv.report`, `nradiv.analyzer` and `nradiv.passes` look up for
wrappers that record a span (name, start, end, parent) per call, and
restores them on exit.  Counts that need a walk over terms are taken in
a `trace.bookkeeping` span, so their cost is never charged to a layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  A function imported into several
# modules is patched in each, under one span name.
PATCHES = (
    ("nradiv.cli", "parse_script", "parser.parse_script"),
    ("nradiv.report", "parse_script", "parser.parse_script"),
    ("nradiv.cli", "classify_script", "analyzer.classify_script"),
    ("nradiv.report", "classify_script", "analyzer.classify_script"),
    ("nradiv.cli", "collect_divisions", "analyzer.collect_divisions"),
    ("nradiv.analyzer", "collect_divisions", "analyzer.collect_divisions"),
    ("nradiv.cli", "totalize", "passes.totalize"),
    ("nradiv.cli", "lift_to_uf", "passes.lift_to_uf"),
    ("nradiv.passes", "fold_script", "passes.fold_script"),
    ("nradiv.cli", "print_script", "printer.print_script"),
    ("nradiv.cli", "count_nodes", "terms.count_nodes"),
    ("nradiv.cli", "encode_via_div0", "encoder.encode_via_div0"),
    ("nradiv.cli", "encode_integer_formula", "encoder.encode_integer_formula"),
    ("nradiv.cli", "brute_force_int_sat", "evaluator.brute_force_int_sat"),
    ("nradiv.cli", "scan_directory", "report.scan_directory"),
    ("nradiv.cli", "render_report", "report.render_report"),
)

BOOKKEEPING = "trace.bookkeeping"


def tree_and_dag(roots) -> tuple[int, int]:
    """Node count of the terms as trees, and as DAGs by object identity."""

    from nradiv.terms import children

    size: dict[int, int] = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in size:
                continue
            kids = children(node)
            if expanded:
                size[id(node)] = 1 + sum(size[id(c)] for c in kids)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in kids if id(c) not in size)
    return sum(size[id(r)] for r in roots), len(size)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []  # name, start ns, end ns, parent index
        self.scales: list[float] = []  # machine-speed factor per span, from the gauge
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.points_hint = 0  # reference point count of the current operation's problem
        self.counting = True  # take counts (outside any layer's span) while set

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0, 0, parent))
        self.scales.append(1.0)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if self.counting:
                self.call(BOOKKEEPING, self._count, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        if name == "parser.parse_script":
            c["parser.bytes"] += len(args[0].encode())
            tree, dag = tree_and_dag(result.assertions)
            c["terms.tree_nodes"] += tree
            c["terms.dag_nodes"] += dag
        elif name == "analyzer.collect_divisions":
            c["analyzer.occurrences"] += len(result)
        elif name in ("passes.totalize", "passes.fold_script", "passes.lift_to_uf", "passes.emit_nonzero_vcs"):
            c[name + ".nodes_in"] += tree_and_dag(args[0].assertions)[0]
            if name == "passes.lift_to_uf":
                out = result.script.assertions
            elif name == "passes.emit_nonzero_vcs":
                out = result
            else:
                out = result.assertions
            c[name + ".nodes_out"] += tree_and_dag(out)[0]
        elif name == "printer.print_script":
            c["printer.bytes_out"] += len(result.encode())
        elif name == "evaluator.brute_force_int_sat":
            c["evaluator.points"] += self.points_hint
        elif name == "report.scan_directory":
            c["report.files"] += len(result["files"])

    @contextmanager
    def patched(self):
        import importlib

        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def scale_from(self, first: int, factor: float) -> None:
        for i in range(first, len(self.scales)):
            self.scales[i] = factor

    def self_times(self) -> dict[str, float]:
        """Normalized seconds per span name: duration minus the time its
        children cover, scaled by the gauge."""

        child_time = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), inner, scale in zip(self.spans, child_time, self.scales):
            out[name] += (end - start - inner) * scale / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
