"""No public operation leaves a reference cycle.

Garbage in a cycle waits for CPython's cyclic collector, which walks every
tracked object, and on a sweep of many small graphs its passes cost more than
the work. So each operation, called once after a warm-up call (which fills
any cache it keeps), must free everything it made by reference counting:
with the collector off, ``gc.collect()`` afterwards finds nothing.
"""

from __future__ import annotations

import gc
import json

import pytest

from pathlab import (
    GraphSpec,
    Strategy,
    bellman_ford,
    build_tree_matrix,
    compare,
    enumerate_min_path,
    extract_path,
    parse_edge_list,
    parse_matrix_text,
    report_to_csv,
    report_to_json,
    run_classic,
    run_modified,
    run_suite,
    to_matrix_text,
)
from pathlab.render import (
    render_comparison_text,
    render_oracle_text,
    render_trace_text,
    render_tree_matrix,
    trace_from_json,
    trace_to_json,
)

from .conftest import fixture_path, load_graph
from .test_bench import single_record_report

FIXTURES = ["paper8.mat", "paper8_tora.mat", "tie4.edges", "counterexample4.edges"]


def _parse(name: str):
    text = fixture_path(name).read_text(encoding="utf-8")
    parse = parse_edge_list if name.endswith(".edges") else parse_matrix_text
    return lambda: parse(text)


def _operations(name: str) -> dict:
    """Each public operation on the fixture ``name``, as a call of no
    arguments whose inputs are already built."""
    g = load_graph(name)
    target = g.n
    trace = run_modified(g, 1, strategy=Strategy.TIE_BATCH)
    tree = build_tree_matrix(g, trace)
    record = compare(g, 1, target)
    report = single_record_report(record)
    document = trace_to_json(trace)
    compact = json.dumps(json.loads(document))
    return {
        "parse": _parse(name),
        "run_classic": lambda: run_classic(g, 1, target, True),
        "run_modified_tiebatch": lambda: run_modified(g, 1, strategy=Strategy.TIE_BATCH),
        "run_modified_stablebatch": lambda: run_modified(g, 1, strategy=Strategy.STABLE_BATCH),
        "bellman_ford": lambda: bellman_ford(g, 1),
        "enumerate_min_path": lambda: enumerate_min_path(g, 1, target),
        "build_tree_matrix": lambda: build_tree_matrix(g, trace),
        "extract_path": lambda: extract_path(tree, target),
        "compare": lambda: compare(g, 1, target),
        "report_to_json": lambda: report_to_json(report),
        "report_to_csv": lambda: report_to_csv(report),
        "to_matrix_text": lambda: to_matrix_text(g),
        "render_trace_text": lambda: render_trace_text(trace),
        "render_tree_matrix": lambda: render_tree_matrix(tree),
        "render_oracle_text": lambda: render_oracle_text(bellman_ford(g, 1)),
        "render_comparison_text": lambda: render_comparison_text(record),
        "trace_to_json": lambda: trace_to_json(trace),
        "trace_from_json": lambda: trace_from_json(document),
        "trace_from_json_compact": lambda: trace_from_json(compact),
    }


OPERATIONS = list(_operations(FIXTURES[0]))


def cyclic_garbage(call) -> int:
    """Objects that only the cyclic collector frees after one ``call()``."""
    call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("operation", OPERATIONS)
def test_operation_leaves_no_cycle(operation, name):
    assert cyclic_garbage(_operations(name)[operation]) == 0


def test_suite_and_its_reports_leave_no_cycle():
    specs = [GraphSpec(6, 0.5, 1, 9, 0.5, 1), GraphSpec(4, 1.0, 1, 3, 1.0, 2)]
    assert cyclic_garbage(lambda: run_suite(specs, 3)) == 0
    report = run_suite(specs, 3)
    assert cyclic_garbage(lambda: report_to_json(report)) == 0
    assert cyclic_garbage(lambda: report_to_csv(report)) == 0
