"""Calls into pathlab, plain or recorded as spans, and what spans add up to.

``make_lib`` gives the workloads one namespace of pathlab's public functions.
Untraced, the entries are pathlab's own functions, so the untraced run pays
nothing for tracing. Traced, each entry is wrapped: the wrapper records a
span (name, start, end, parent span, operation id) and, right after the
call, adds the counts that call's result yields. Count work runs in a
``harness.count`` span so it is never billed to the layer it counts.
``bench.compare`` calls the labeling and oracle functions itself, so the
traced run also points ``pathlab.bench``'s references at the wrappers.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

# lib entry -> span name. run_modified is named by its strategy.
SPAN_NAMES = {
    "parse_edge_list": "graph.parse",
    "parse_matrix_text": "graph.parse",
    "run_classic": "labeling.classic",
    "run_modified": None,
    "init_labels": "labeling.init",
    "relax_step": "labeling.relax",
    "select_permanent": "labeling.select",
    "copy_labels": "labeling.record",
    "bellman_ford": "oracle.bellman_ford",
    "enumerate_min_path": "oracle.enumeration",
    "build_tree_matrix": "tree.build",
    "extract_path": "tree.extract",
    "render_trace_text": "render.text",
    "trace_to_json": "render.json",
    "trace_from_json": "render.from_json",
    "generate_graph": "bench.generate",
    "compare": "bench.compare",
    "compute_aggregates": "bench.report",
    "report_to_json": "bench.report",
    "report_to_csv": "bench.report",
}

# The names pathlab.bench.compare looks up at call time.
BENCH_INTERNALS = ("run_classic", "run_modified", "bellman_ford")

LABELING_RUNS = ("run_classic", "run_modified")


def make_lib(pathlab, wrap=None) -> SimpleNamespace:
    """pathlab's functions by entry name, each passed through ``wrap`` if given."""
    render = pathlab.render
    fns = {
        "parse_edge_list": pathlab.parse_edge_list,
        "parse_matrix_text": pathlab.parse_matrix_text,
        "run_classic": pathlab.run_classic,
        "run_modified": pathlab.run_modified,
        "init_labels": pathlab.init_labels,
        "relax_step": pathlab.relax_step,
        "select_permanent": pathlab.select_permanent,
        "copy_labels": pathlab.LabelState.copy,
        "bellman_ford": pathlab.bellman_ford,
        "enumerate_min_path": pathlab.enumerate_min_path,
        "build_tree_matrix": pathlab.build_tree_matrix,
        "extract_path": pathlab.extract_path,
        "render_trace_text": render.render_trace_text,
        "trace_to_json": render.trace_to_json,
        "trace_from_json": render.trace_from_json,
        "generate_graph": pathlab.generate_graph,
        "compare": pathlab.compare,
        "compute_aggregates": pathlab.compute_aggregates,
        "report_to_json": pathlab.report_to_json,
        "report_to_csv": pathlab.report_to_csv,
    }
    if wrap is not None:
        fns = {key: wrap(key, fn) for key, fn in fns.items()}
    return SimpleNamespace(**fns)


@contextmanager
def bench_calls_through(pathlab, lib):
    """Point pathlab.bench's labeling and oracle references at ``lib``."""
    saved = {key: getattr(pathlab.bench, key) for key in BENCH_INTERNALS}
    try:
        for key in BENCH_INTERNALS:
            setattr(pathlab.bench, key, getattr(lib, key))
        yield
    finally:
        for key, fn in saved.items():
            setattr(pathlab.bench, key, fn)


def strategy_name(pathlab, args, kwargs) -> str:
    """classic / tiebatch / stablebatch for a run_classic or run_modified call."""
    strategy = kwargs.get("strategy", args[4] if len(args) > 4 else pathlab.Strategy.TIE_BATCH)
    return "tiebatch" if strategy is pathlab.Strategy.TIE_BATCH else "stablebatch"


class Tracer:
    """Spans and counts kept in memory for the whole traced run.

    A span is (op_id, parent, name, start, end, root): ``parent`` and
    ``root`` are indices into ``spans`` (``parent`` is None for a root).
    """

    def __init__(self, pathlab):
        self.pl = pathlab
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._degree_graph = None
        self._degrees: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        root = self.stack[0] if self.stack else sid
        self.spans.append([self.op_id, parent, name, time.perf_counter(), None, root])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        if op_id is not None:
            self.op_id = op_id
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, key: str, fn):
        name = SPAN_NAMES[key]
        pathlab = self.pl

        def traced(*args, **kwargs):
            span_name = name or "labeling." + strategy_name(pathlab, args, kwargs)
            sid = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if self.stack and self.spans[self.stack[0]][2] == "op":
                with self.span("harness.count"):
                    self._count(key, span_name, args, result)
            return result

        return traced

    def _count(self, key, span_name, args, result) -> None:
        c = self.counts[self.op_id]
        if key in ("parse_edge_list", "parse_matrix_text"):
            c["graph.parse_bytes"] += len(args[0].encode())
        elif key in LABELING_RUNS:
            g = args[0]
            degrees = self._out_degrees(g)
            c["labeling.rounds." + span_name.split(".")[1]] += result.rounds_count
            c["labeling.frontier_edges"] += sum(
                degrees[v - 1] for record in result.rounds for v in record.frontier
            )
            c["labeling.snapshot_cells"] += (
                sum(record.label_snapshot.n for record in result.rounds) + result.final_labels.n
            )
        elif key == "enumerate_min_path":
            c["oracle.enumeration_calls"] += 1
        elif key in ("render_trace_text", "trace_to_json"):
            c["render.bytes_out"] += len(result.encode())

    def _out_degrees(self, g) -> list[int]:
        if g is not self._degree_graph:
            self._degree_graph = g
            self._degrees = [sum(1 for w in row if w.is_finite) - 1 for row in g.weights]
        return self._degrees

    FIELDS = ["op", "id", "parent", "name", "start_ns", "end_ns"]

    def write_jsonl(self, f) -> None:
        """One JSON array of FIELDS per line; times in ns since the first span."""
        epoch = self.spans[0][3] if self.spans else 0.0
        for sid, (op, parent, name, start, end, _root) in enumerate(self.spans):
            parent_s = "null" if parent is None else parent
            end_s = "null" if end is None else round((end - epoch) * 1e9)
            f.write(f'[{op},{sid},{parent_s},"{name}",{round((start - epoch) * 1e9)},{end_s}]\n')

    def summarize(self, window: int) -> dict:
        """Busy time by span name and self time by layer, over ``op`` trees.

        ``busy``/``busy_window``: seconds inside each named call, over every
        operation / over operations 0..window-1, less any ``harness.count``
        spans nested in it. ``self_by_layer``: span duration minus the time
        its children cover, summed by layer (the name's first part; the
        ``op`` root itself is the harness), so it adds up to ``op_wall``.
        ``split``: busy seconds per span name under ``split`` roots.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        harness_inside = [0.0] * len(spans)
        for op, parent, name, start, end, root in spans:
            if parent is None or end is None:
                continue
            child[parent] += end - start
            if name == "harness.count":
                ancestor = parent
                while ancestor is not None:
                    harness_inside[ancestor] += end - start
                    ancestor = spans[ancestor][1]
        busy: dict[str, float] = defaultdict(float)
        busy_window: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        split: dict[str, float] = defaultdict(float)
        op_wall, op_wall_window, ops, splits = 0.0, 0.0, 0, 0
        for sid, (op, parent, name, start, end, root) in enumerate(spans):
            if end is None:
                continue
            duration = end - start
            if spans[root][2] == "split":
                split[name] += duration
                splits += parent is None
                continue
            busy[name] += duration - harness_inside[sid]
            if op < window:
                busy_window[name] += duration - harness_inside[sid]
            layer = "harness" if name == "op" else name.split(".")[0]
            self_by_layer[layer] += duration - child[sid]
            if parent is None:
                ops += 1
                op_wall += duration
                if op < window:
                    op_wall_window += duration
        return {
            "busy": busy,
            "busy_window": busy_window,
            "self_by_layer": self_by_layer,
            "split": split,
            "ops": ops,
            "splits": splits,
            "op_wall": op_wall,
            "op_wall_window": op_wall_window,
        }


class AllocPeaks:
    """Wraps labeling runs to record each call's tracemalloc peak."""

    def __init__(self):
        self.peaks: list[int] = []

    def wrap(self, key: str, fn):
        if key not in LABELING_RUNS:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured
