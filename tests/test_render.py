from __future__ import annotations

import ast
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlab
from pathlab import (
    Graph,
    LabelState,
    MalformedInput,
    RunTrace,
    Strategy,
    Weight,
    compare,
    run_classic,
    run_modified,
)
from pathlab.bench import GraphSpec, generate_graph, run_strategy
from pathlab.render import (
    fixed_decimal,
    render_comparison_text,
    render_trace_text,
    render_tree_matrix,
    trace_from_json,
    trace_to_json,
)
from pathlab.tree import build_tree_matrix, extract_path

from .strategies import exact_weights, graphs

GOLDEN_FINAL_TABLE = [
    "   1 | [0.00, -] | permanent",
    "   2 | [1.00, 1] | permanent",
    "   3 | [2.00, 2] | permanent",
    "   4 | [4.00, 3] | permanent",
    "   5 | [3.00, 2] | permanent",
    "   6 | [6.00, 3] | permanent",
    "   7 | [10.00, 5] | permanent",
    "   8 | [8.00, 6] | permanent",
]


def test_two_decimal_labels():
    assert fixed_decimal(Weight.finite(4).fraction, 2) == "4.00"
    assert fixed_decimal(Weight.finite("2.5").fraction, 2) == "2.50"
    assert fixed_decimal(Weight.finite(10).fraction, 2) == "10.00"
    # half to even, and the sign kept
    assert fixed_decimal(Fraction(1, 8), 2) == "0.12"
    assert fixed_decimal(Fraction(3, 8), 2) == "0.38"
    assert fixed_decimal(Fraction(-3, 8), 2) == "-0.38"


def test_trace_text_final_block_matches_golden_rows(paper8_tora):
    text = render_trace_text(run_classic(paper8_tora, 1))
    blocks = text.strip().split("\n\n")
    final_rows = blocks[-2].splitlines()[2:]
    assert final_rows == GOLDEN_FINAL_TABLE
    assert blocks[-1] == "rounds: 7 (including source initialization: 8)"


def test_trace_text_first_round_shows_unlabeled_vertices_blank(paper8_tora):
    text = render_trace_text(run_classic(paper8_tora, 1))
    first_block = text.split("\n\n")[0].splitlines()
    assert first_block[0] == "Round 1  frontier={1}  newly permanent={2}"
    assert "   3 | [3.00, 1] | temporary" in first_block
    assert "   4 |" in first_block
    assert not any(row.startswith("   4 | [") for row in first_block)


def test_trace_text_has_one_block_per_round(paper8):
    trace = run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)
    text = render_trace_text(trace)
    assert text.count("Round ") == 5


def test_structured_trace_round_trips_every_field(paper8):
    trace = run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)
    recovered = trace_from_json(trace_to_json(trace))
    assert recovered.algorithm == trace.algorithm
    assert recovered.strategy == trace.strategy
    assert recovered.source == trace.source
    assert recovered.target == trace.target
    assert recovered.final_distances == trace.final_distances
    assert recovered.rounds_count == trace.rounds_count
    assert recovered.rounds_count_incl_source == trace.rounds_count_incl_source
    assert recovered.terminated_early == trace.terminated_early
    assert recovered.final_labels == trace.final_labels
    assert len(recovered.rounds) == len(trace.rounds)
    for got, expected in zip(recovered.rounds, trace.rounds):
        assert got.round_index == expected.round_index
        assert got.frontier == expected.frontier
        assert got.newly_permanent == expected.newly_permanent
        assert got.label_snapshot == expected.label_snapshot


def test_tree_matrix_rendering(paper8_tora):
    tree = build_tree_matrix(paper8_tora, run_classic(paper8_tora, 1))
    lines = render_tree_matrix(tree).splitlines()
    assert lines[0] == "8"
    assert lines[1] == "0 1 0 0 0 0 0 0"
    assert lines[2] == "0 0 1 0 2 0 0 0"
    assert lines[3] == "0 0 0 2 0 4 0 0"
    assert lines[6] == "0 0 0 0 0 0 0 2"


def test_route_rendering(paper8_tora):
    tree = build_tree_matrix(paper8_tora, run_classic(paper8_tora, 1))
    assert str(extract_path(tree, 8)) == "1-2-3-6-8 (8)"


def test_comparison_rendering(counterexample4):
    text = render_comparison_text(compare(counterexample4, 1))
    assert "stable_batch_unsound: true" in text
    assert "oracle (bellman-ford): 0 1 3 2" in text
    assert "singlemin" in text and "tiebatch" in text and "stablebatch" in text


def test_no_module_imports_a_private_name_of_another():
    # a helper two modules share is public, or lives in the one module that
    # uses it, as the JSON encoders live with every writer in render
    package = Path(pathlab.__file__).parent
    private = [
        (path.name, node.module, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pathlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_six_decimal_summaries_are_fixed_width():
    assert fixed_decimal(Fraction(13, 4), 6) == "3.250000"
    assert fixed_decimal(Fraction(1), 6) == "1.000000"
    assert fixed_decimal(Fraction(997, 10), 6) == "99.700000"


# Reference serializers: the straightforward per-cell definitions the memoized
# ones in pathlab.render must match byte for byte.


def _reference_labels_to_list(labels: LabelState) -> list[dict]:
    return [
        {
            "vertex": v,
            "value": str(labels.value(v)),
            "predecessors": sorted(labels.predecessors(v)),
            "status": _reference_status(labels, v),
            "settled_round": labels.settled_round(v),
        }
        for v in labels.vertices()
    ]


def _reference_status(labels: LabelState, v: int) -> str:
    return "permanent" if labels.is_permanent(v) else "temporary"


def reference_trace_to_dict(trace: RunTrace) -> dict:
    return {
        "algorithm": trace.algorithm,
        "strategy": trace.strategy.value,
        "source": trace.source,
        "target": trace.target,
        "rounds": [
            {
                "round_index": record.round_index,
                "frontier": sorted(record.frontier),
                "newly_permanent": sorted(record.newly_permanent),
                "labels": _reference_labels_to_list(record.label_snapshot),
            }
            for record in trace.rounds
        ],
        "final_labels": _reference_labels_to_list(trace.final_labels),
        "final_distances": [str(w) for w in trace.final_distances],
        "rounds_count": trace.rounds_count,
        "rounds_count_incl_source": trace.rounds_count_incl_source,
        "terminated_early": trace.terminated_early,
    }


def reference_trace_json(trace: RunTrace) -> str:
    return json.dumps(reference_trace_to_dict(trace), indent=2) + "\n"


def _reference_display_predecessor(labels: LabelState, source: int, v: int) -> str:
    if v == source:
        return "-"
    preds = labels.predecessors(v)
    return str(min(preds)) if preds else "-"


def _reference_vertex_set(vertices: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _reference_label_rows(labels: LabelState, source: int) -> list[str]:
    rows = ["node | label | status"]
    for v in labels.vertices():
        value = labels.value(v)
        if value.is_infinite:
            rows.append(f"{v:4d} |")
        else:
            label = f"[{fixed_decimal(value.fraction, 2)}, {_reference_display_predecessor(labels, source, v)}]"
            rows.append(f"{v:4d} | {label} | {_reference_status(labels, v)}")
    return rows


def reference_render_trace_text(trace: RunTrace) -> str:
    blocks = []
    for record in trace.rounds:
        lines = [
            f"Round {record.round_index}"
            f"  frontier={_reference_vertex_set(record.frontier)}"
            f"  newly permanent={_reference_vertex_set(record.newly_permanent)}"
        ]
        lines.extend(_reference_label_rows(record.label_snapshot, trace.source))
        blocks.append("\n".join(lines))
    summary = (
        f"rounds: {trace.rounds_count}"
        f" (including source initialization: {trace.rounds_count_incl_source})"
    )
    return "\n\n".join(blocks + [summary]) + "\n"


def assert_matches_reference_and_round_trips(trace: RunTrace) -> None:
    structured = trace_to_json(trace)
    assert structured == reference_trace_json(trace)
    assert render_trace_text(trace) == reference_render_trace_text(trace)
    recovered = trace_from_json(structured)
    assert recovered == trace
    # the same document in another layout loads through the general path
    assert trace_from_json(json.dumps(json.loads(structured))) == trace
    assert trace_to_json(recovered) == structured
    assert render_trace_text(recovered) == render_trace_text(trace)


@settings(max_examples=150, deadline=None)
@given(
    graphs(max_n=7, weights=exact_weights),
    st.sampled_from(list(Strategy)),
    st.booleans(),
    st.data(),
)
def test_serializers_match_reference(g, strategy, stop_at_target, data):
    source = data.draw(st.integers(min_value=1, max_value=g.n))
    target = data.draw(st.integers(min_value=1, max_value=g.n))
    assert_matches_reference_and_round_trips(
        run_strategy(g, source, strategy, target, stop_at_target)
    )


THIRD = Weight(Fraction(1, 3))

EDGE_CASES = {
    # no round at all: "rounds": [] and a text trace of the summary alone
    "single_vertex": Graph.from_edges(1, []),
    # vertices 3 and 4 stay at INFINITY in every snapshot
    "unreachable": Graph.from_edges(4, [(1, 2, 2), (3, 4, 1)]),
    # an a/b weight string, and a two-decimal rendering that rounds
    "third": Graph.from_edges(3, [(1, 2, THIRD), (2, 3, THIRD), (1, 3, Weight.finite(1))]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_edge_cases_match_reference(name, strategy):
    assert_matches_reference_and_round_trips(run_strategy(EDGE_CASES[name], 1, strategy))


def test_single_vertex_trace_has_no_rounds():
    trace = run_classic(EDGE_CASES["single_vertex"], 1)
    assert json.loads(trace_to_json(trace))["rounds"] == []
    assert '  "rounds": [],\n' in trace_to_json(trace)
    assert render_trace_text(trace) == "rounds: 0 (including source initialization: 1)\n"


def test_unreachable_rows_stay_blank_and_infinite():
    trace = run_classic(EDGE_CASES["unreachable"], 1)
    assert render_trace_text(trace).splitlines()[-4:-2] == ["   3 |", "   4 |"]
    final = json.loads(trace_to_json(trace))["final_labels"]
    assert [row["value"] for row in final] == ["0", "2", "INF", "INF"]


def test_third_weight_is_exact_in_json_and_rounded_in_text():
    trace = run_classic(EDGE_CASES["third"], 1)
    assert json.loads(trace_to_json(trace))["final_distances"] == ["0", "1/3", "2/3"]
    assert "   3 | [0.67, 2] | permanent" in render_trace_text(trace)
    assert trace_from_json(trace_to_json(trace)).final_distances[2] == Weight(Fraction(2, 3))


def test_loaded_predecessor_sets_are_frozensets(paper8):
    recovered = trace_from_json(trace_to_json(run_classic(paper8, 1)))
    for labels in [recovered.final_labels] + [r.label_snapshot for r in recovered.rounds]:
        assert all(type(labels.predecessors(v)) is frozenset for v in labels.vertices())
        assert all(type(p) is frozenset for _, p, _ in labels.rows())


def _paper8_document(paper8) -> dict:
    return json.loads(trace_to_json(run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)))


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _with_rows(doc: dict, change) -> dict:
    return {**doc, "final_labels": [change(row) for row in doc["final_labels"]]}


MALFORMED_DOCUMENTS = {
    "missing_top_key": lambda doc: _without(doc, "rounds"),
    "missing_row_key": lambda doc: _with_rows(doc, lambda row: _without(row, "status")),
    "unknown_algorithm": lambda doc: {**doc, "algorithm": "astar"},
    "unknown_strategy": lambda doc: {**doc, "strategy": "greedy"},
    "unknown_status": lambda doc: _with_rows(doc, lambda row: {**row, "status": "done"}),
    "bool_source": lambda doc: {**doc, "source": True},
    "source_out_of_range": lambda doc: {**doc, "source": 9},
    "string_rounds": lambda doc: {**doc, "rounds": "none"},
    "string_predecessors": lambda doc: _with_rows(doc, lambda row: {**row, "predecessors": "12"}),
    "predecessor_out_of_range": lambda doc: _with_rows(doc, lambda row: {**row, "predecessors": [0]}),
    "numeric_value": lambda doc: _with_rows(doc, lambda row: {**row, "value": 3}),
    "exponent_value": lambda doc: _with_rows(doc, lambda row: {**row, "value": "1e5"}),
    "zero_denominator": lambda doc: _with_rows(doc, lambda row: {**row, "value": "1/0"}),
    # one digit past CPython's default int-string limit, in either part
    "long_whole_part": lambda doc: _with_rows(doc, lambda row: {**row, "value": "1" * 4301}),
    "long_denominator": lambda doc: _with_rows(
        doc, lambda row: {**row, "value": "1/" + "3" * 4301}
    ),
    "string_settled_round": lambda doc: _with_rows(doc, lambda row: {**row, "settled_round": "1"}),
    "vertices_out_of_order": lambda doc: {**doc, "final_labels": doc["final_labels"][::-1]},
    "short_round_labels": lambda doc: {
        **doc,
        "rounds": [{**doc["rounds"][0], "labels": doc["rounds"][0]["labels"][:-1]}],
    },
    "short_final_distances": lambda doc: {**doc, "final_distances": doc["final_distances"][:-1]},
    "empty_final_labels": lambda doc: {**doc, "final_labels": [], "rounds": []},
    "float_rounds_count": lambda doc: {**doc, "rounds_count": 5.0},
    "int_terminated_early": lambda doc: {**doc, "terminated_early": 0},
    "list_document": lambda doc: [doc],
    # documents that contradict themselves: a field that restates another
    "wrong_rounds_count": lambda doc: {**doc, "rounds_count": 999},
    "wrong_rounds_count_incl_source": lambda doc: {**doc, "rounds_count_incl_source": 5},
    "algorithm_of_another_strategy": lambda doc: {**doc, "algorithm": "classic"},
    "final_distances_disagree": lambda doc: {
        **doc,
        "final_distances": doc["final_distances"][:-1] + ["9"],
    },
    "permanent_without_settled_round": lambda doc: _with_rows(
        doc, lambda row: {**row, "settled_round": None}
    ),
    # round records that contradict their position or the final labels
    "round_index_not_position": lambda doc: _with_round(doc, 0, round_index=42),
    "newly_permanent_not_final_round": lambda doc: _with_round(doc, 1, newly_permanent=[7]),
    "frontier_not_previous_batch": lambda doc: _with_round(doc, 2, frontier=[8]),
    "first_frontier_not_source": lambda doc: _with_round(doc, 0, frontier=[2]),
    "settled_round_not_listed": lambda doc: _with_rows(
        doc, lambda row: {**row, "settled_round": 99} if row["settled_round"] else row
    ),
    # snapshots that contradict the final labels
    "snapshot_settles_early": lambda doc: _with_round_row(
        doc, 0, 8, status="permanent", settled_round=1
    ),
    "final_labels_not_last_snapshot": lambda doc: {
        **_with_rows(
            doc, lambda row: {**row, "value": "9", "predecessors": [5]} if row["vertex"] == 8 else row
        ),
        "final_distances": doc["final_distances"][:-1] + ["9"],
    },
    # rounds that change a settled label, or raise a value, in round 3 alone:
    # the source's value to 5, vertex 2's predecessors (settled in round 1)
    # to {3}, and vertex 4's value from 6 to 999 while temporary
    "permanent_label_changes": lambda doc: _with_round_row(doc, 2, 1, value="5"),
    "permanent_predecessors_change": lambda doc: _with_round_row(doc, 2, 2, predecessors=[3]),
    "value_rises": lambda doc: _with_round_row(doc, 2, 4, value="999"),
    # vertex lists whose items equal an int but are not one: true and 1.0
    # equal 1, and a list equal to one loaded earlier must not pass unchecked
    "true_predecessor": lambda doc: _with_vertex_rows(doc, 2, predecessors=[True]),
    "float_predecessor": lambda doc: _with_vertex_rows(doc, 2, predecessors=[1.0]),
    "float_frontier": lambda doc: _with_round(doc, 1, frontier=[2.0]),
    "no_rounds_but_final_labels_reached": lambda doc: {
        **_with_rows(
            doc,
            lambda row: row if row["settled_round"] == 0
            else {**row, "status": "temporary", "settled_round": None},
        ),
        "rounds": [],
        "rounds_count": 0,
        "rounds_count_incl_source": 1,
    },
    # documents that break an invariant of every run: each round settles a
    # vertex, exactly one under singlemin, and terminated_early says whether
    # the run stopped as its target settled with labels left temporary
    "round_settles_nothing": lambda doc: _with_empty_round(doc, 3),
    "singlemin_round_settles_two": lambda doc: {
        **doc, "strategy": "singlemin", "algorithm": "classic"
    },
    "terminated_early_with_every_label_permanent": lambda doc: {**doc, "terminated_early": True},
    "terminated_early_without_target": lambda doc: {
        **_cut_after(doc, 2), "target": None, "terminated_early": True
    },
    "terminated_early_before_target_settles": lambda doc: {
        **_cut_after(doc, 2), "terminated_early": True
    },
    "finite_temporary_label_without_early_stop": lambda doc: _cut_after(doc, 2),
    # label rows no relaxation writes: a vertex field equal to an int but
    # not one, a finite value without predecessors, a vertex that is its own
    # predecessor, vertex 5 dropping predecessor 2 when round 3 extends it
    # via 3 at the value it kept, a value below its predecessor's, and an
    # unreachable vertex settled at INF
    "true_vertex": lambda doc: _with_vertex_rows(doc, 1, vertex=True),
    "float_vertex": lambda doc: _with_vertex_rows(doc, 2, vertex=2.0),
    "finite_value_without_predecessors": lambda doc: _with_vertex_rows(doc, 2, predecessors=[]),
    "own_predecessor": lambda doc: _with_vertex_rows(doc, 2, predecessors=[2]),
    "kept_value_drops_a_predecessor": lambda doc: _with_vertex_rows(
        doc, 5, from_round=3, predecessors=[3]
    ),
    "value_below_its_predecessor": lambda doc: _with_negative_value(doc, 2),
    "unreachable_vertex_settles": lambda doc: _unreachable_vertex_settles(),
    # a round's row that settles its vertex in a later round
    "row_settles_in_a_later_round": lambda doc: _with_round_row(
        doc, 0, 3, status="permanent", settled_round=2
    ),
    # vertex lists a run writes only strictly ascending: a repeated or
    # unsorted predecessor set, batch or frontier
    "repeated_predecessor": lambda doc: _with_vertex_rows(doc, 2, predecessors=[1, 1]),
    "unsorted_predecessors": lambda doc: _with_vertex_rows(
        doc, 3, from_round=2, predecessors=[2, 1]
    ),
    "unsorted_newly_permanent": lambda doc: _with_round(doc, 3, newly_permanent=[6, 4]),
    "unsorted_frontier": lambda doc: _with_round(doc, 4, frontier=[6, 4]),
    "repeated_frontier": lambda doc: _with_round(doc, 4, frontier=[4, 6, 6]),
}

ROUND_CONTRADICTIONS = [
    "round_index_not_position",
    "newly_permanent_not_final_round",
    "frontier_not_previous_batch",
    "snapshot_settles_early",
    "final_labels_not_last_snapshot",
]


def _with_round(doc: dict, index: int, **fields) -> dict:
    rounds = list(doc["rounds"])
    rounds[index] = {**rounds[index], **fields}
    return {**doc, "rounds": rounds}


def _with_round_row(doc: dict, index: int, vertex: int, **fields) -> dict:
    labels = [{**row, **fields} if row["vertex"] == vertex else row
              for row in doc["rounds"][index]["labels"]]
    return _with_round(doc, index, labels=labels)


def _with_empty_round(doc: dict, k: int) -> dict:
    """``doc`` with an extra round k that settles nothing: it repeats round
    k - 1's labels, the later rounds are renumbered, the first of them
    relaxing from the empty batch, and every settled round from k on moves
    up one."""
    def shifted(row):
        r = row["settled_round"]
        return {**row, "settled_round": r + 1} if r is not None and r >= k else row

    rounds = doc["rounds"]
    empty = {"round_index": k, "frontier": rounds[k - 2]["newly_permanent"],
             "newly_permanent": [], "labels": rounds[k - 2]["labels"]}
    later = [{**r, "round_index": r["round_index"] + 1, "labels": list(map(shifted, r["labels"]))}
             for r in rounds[k - 1:]]
    later[0] = {**later[0], "frontier": []}
    rounds = rounds[:k - 1] + [empty] + later
    return {**doc, "rounds": rounds, "final_labels": list(map(shifted, doc["final_labels"])),
            "rounds_count": len(rounds), "rounds_count_incl_source": len(rounds) + 1}


def _cut_after(doc: dict, k: int) -> dict:
    """``doc`` cut after round k: its labels become the final ones."""
    labels = doc["rounds"][k - 1]["labels"]
    return {**doc, "rounds": doc["rounds"][:k], "final_labels": labels,
            "final_distances": [row["value"] for row in labels],
            "rounds_count": k, "rounds_count_incl_source": k + 1}


def _with_vertex_rows(doc: dict, v: int, from_round: int = 1, **fields) -> dict:
    """``doc`` with ``fields`` set in vertex v's row of the final labels and
    of every round's labels from round ``from_round`` on."""
    def change(row):
        return {**row, **fields} if row["vertex"] == v else row

    rounds = [{**r, "labels": list(map(change, r["labels"]))} if r["round_index"] >= from_round else r
              for r in doc["rounds"]]
    return {**_with_rows(doc, change), "rounds": rounds}


def _with_negative_value(doc: dict, v: int) -> dict:
    """``doc`` with vertex v at value -1 in every label list and in the final
    distances."""
    distances = list(doc["final_distances"])
    distances[v - 1] = "-1"
    return {**_with_vertex_rows(doc, v, value="-1"), "final_distances": distances}


def _unreachable_vertex_settles() -> dict:
    """The tiebatch document of a 3-vertex graph whose vertex 3 is
    unreachable, with vertex 3 settled at INF in round 1."""
    doc = _document(run_modified(Graph.from_edges(3, [(1, 2, 1)]), 1))
    doc = _with_vertex_rows(doc, 3, status="permanent", settled_round=1)
    return _with_round(doc, 0, newly_permanent=[2, 3])


# The exact message of each malformed document, after "malformed trace: ".
MALFORMED_MESSAGES = {
    "algorithm_of_another_strategy": "algorithm 'classic' is not that of stablebatch",
    "bool_source": "expected int, got True",
    "empty_final_labels": "final_labels is empty",
    "exponent_value": "not a weight string: '1e5'",
    "final_distances_disagree": "final_distances disagree with the final_labels values",
    "final_labels_not_last_snapshot": "final_labels are not the labels of the last round",
    "finite_temporary_label_without_early_stop":
        "not terminated_early, but a temporary label is finite",
    "finite_value_without_predecessors":
        "round 1 gives vertex 2 no finite value or no predecessor",
    "first_frontier_not_source":
        "a round record disagrees with its position or the final settled rounds",
    "float_frontier": "vertices must be integers",
    "float_predecessor": "predecessors must be integers",
    "float_rounds_count": "expected int, got 5.0",
    "float_vertex": "label rows must list vertices 1..n in order",
    "frontier_not_previous_batch":
        "a round record disagrees with its position or the final settled rounds",
    "int_terminated_early": "expected bool, got 0",
    "kept_value_drops_a_predecessor":
        "round 3 changes vertex 5's predecessors outside its frontier",
    "list_document": "list indices must be integers or slices, not str",
    "long_denominator": "a weight string has more than 4300 digits in a row",
    "long_whole_part": "a weight string has more than 4300 digits in a row",
    "missing_row_key": "missing key 'status'",
    "missing_top_key": "missing key 'rounds'",
    "newly_permanent_not_final_round": "round 2's settled rounds disagree with the final ones",
    "no_rounds_but_final_labels_reached": "final_labels are not the labels of the last round",
    "numeric_value": "expected str, got 3",
    "own_predecessor": "round 1 changes vertex 2's predecessors outside its frontier",
    "permanent_label_changes": "round 3 changes vertex 1's permanent label",
    "permanent_predecessors_change": "round 3 changes vertex 2's permanent label",
    "permanent_without_settled_round": "a status is unknown or disagrees with its settled_round",
    "predecessor_out_of_range": "vertex 0 outside 1..8",
    "repeated_frontier": "vertex list [4, 6, 6] is not strictly ascending",
    "repeated_predecessor": "vertex list [1, 1] is not strictly ascending",
    "round_index_not_position":
        "a round record disagrees with its position or the final settled rounds",
    "round_settles_nothing": "round 3 settles nothing",
    "row_settles_in_a_later_round": "round 1's settled rounds disagree with the final ones",
    "settled_round_not_listed": "final_labels are not the labels of the last round",
    "short_final_distances": "final_distances has 7 entries, expected 8",
    "short_round_labels": "a label list has 7 rows, expected 8",
    "singlemin_round_settles_two": "a singlemin round settles more than one vertex",
    "snapshot_settles_early": "round 1 gives vertex 8 no finite value or no predecessor",
    "source_out_of_range": "vertex 9 outside 1..8",
    "string_predecessors": "predecessors must be lists",
    "string_rounds": "expected list, got 'none'",
    "string_settled_round": "settled_round must be an integer or null",
    "terminated_early_before_target_settles":
        "terminated_early, but the run does not stop when its target settles",
    "terminated_early_with_every_label_permanent":
        "terminated_early, but the run does not stop when its target settles",
    "terminated_early_without_target":
        "terminated_early, but the run does not stop when its target settles",
    "true_predecessor": "predecessors must be integers",
    "true_vertex": "label rows must list vertices 1..n in order",
    "unknown_algorithm": "algorithm 'astar' is not that of stablebatch",
    "unknown_status": "a status is unknown or disagrees with its settled_round",
    "unknown_strategy": "'greedy' is not a valid Strategy",
    "unreachable_vertex_settles": "round 1 gives vertex 3 no finite value or no predecessor",
    "unsorted_frontier": "vertex list [6, 4] is not strictly ascending",
    "unsorted_newly_permanent": "vertex list [6, 4] is not strictly ascending",
    "unsorted_predecessors": "vertex list [2, 1] is not strictly ascending",
    "value_below_its_predecessor": "round 1 gives vertex 2 a predecessor not below its value",
    "value_rises": "round 3 raises vertex 4's value",
    "vertices_out_of_order": "label rows must list vertices 1..n in order",
    "wrong_rounds_count": "rounds_count is not the 5 rounds listed",
    "wrong_rounds_count_incl_source": "rounds_count_incl_source is not rounds_count + 1",
    "zero_denominator": "not a weight string: '1/0'",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_trace_document_is_malformed_input(paper8, name):
    text = json.dumps(MALFORMED_DOCUMENTS[name](_paper8_document(paper8)))
    message = re.escape(f"malformed trace: {MALFORMED_MESSAGES[name]}")
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        trace_from_json(text)


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_trace_document_in_the_written_layout_gives_the_same_message(paper8, name):
    # json.dumps(doc, indent=2) + "\n" is trace_to_json's layout, so the
    # loader first tries to decode only the rows that change, then falls back
    text = json.dumps(MALFORMED_DOCUMENTS[name](_paper8_document(paper8)), indent=2) + "\n"
    message = re.escape(f"malformed trace: {MALFORMED_MESSAGES[name]}")
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        trace_from_json(text)


@pytest.mark.parametrize("name", ROUND_CONTRADICTIONS)
def test_contradictory_round_of_a_classic_trace_is_malformed_input(paper8, name):
    doc = json.loads(trace_to_json(run_classic(paper8, 1)))
    with pytest.raises(MalformedInput, match="round"):
        trace_from_json(json.dumps(MALFORMED_DOCUMENTS[name](doc)))


@pytest.mark.parametrize("name, message", [
    ("permanent_label_changes", "round 3 changes vertex 1's permanent label"),
    ("permanent_predecessors_change", "round 3 changes vertex 2's permanent label"),
    ("value_rises", "round 3 raises vertex 4's value"),
])
def test_a_round_that_changes_a_settled_label_or_raises_a_value_is_malformed_input(
    paper8, name, message
):
    doc = json.loads(trace_to_json(run_classic(paper8, 1)))
    with pytest.raises(MalformedInput, match=message):
        trace_from_json(json.dumps(MALFORMED_DOCUMENTS[name](doc)))


def _document(trace: RunTrace) -> dict:
    return json.loads(trace_to_json(trace))


def test_a_kept_value_written_another_way_loads(paper8):
    # "4" and "4.0" load as two equal Weights, not one shared object, so the
    # round that settles vertex 4 at the value it kept compares them by ==
    trace = run_classic(paper8, 1)
    assert trace.final_labels.value(4) == Weight.finite(4)
    doc = _with_vertex_rows(
        _document(trace), 4, from_round=trace.final_labels.settled_round(4), value="4.0"
    )
    assert trace_from_json(json.dumps(doc)) == trace


def test_a_written_layout_that_writes_back_otherwise_is_decoded_whole(paper8, monkeypatch):
    # in trace_to_json's layout, "4.0" passes every check of the rows that
    # change, but writes back as "4": the whole text is decoded again
    trace = run_classic(paper8, 1)
    doc = _with_vertex_rows(
        _document(trace), 4, from_round=trace.final_labels.settled_round(4), value="4.0"
    )
    text = json.dumps(doc, indent=2) + "\n"
    loads, decoded = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s: decoded.append(s) or loads(s))
    assert trace_from_json(text) == trace
    assert len(decoded) == 2 and decoded[1] is text


@pytest.mark.parametrize("change, message", [
    # round 2's label list a row shorter than round 1's
    (lambda doc: _with_round(doc, 1, labels=doc["rounds"][1]["labels"][:-1]),
     "a label list has 7 rows, expected 8"),
    # the last round's label list followed by no "final_labels" key
    (lambda doc: _without(doc, "final_labels"), "missing key 'final_labels'"),
], ids=["round_of_another_row_count", "no_key_after_the_labels"])
def test_a_written_layout_the_row_walk_cannot_cut_is_decoded_whole_once(
    paper8, monkeypatch, change, message
):
    text = json.dumps(change(_paper8_document(paper8)), indent=2) + "\n"
    loads, decoded = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s: decoded.append(s) or loads(s))
    with pytest.raises(MalformedInput, match=f"^malformed trace: {message}$"):
        trace_from_json(text)
    assert len(decoded) == 1 and decoded[0] is text


def test_the_first_faulty_round_is_reported(paper8):
    # round 3 raises vertex 4's value and round 5's labels are a row short:
    # rounds are checked as they are read, so round 3's fault is the one
    doc = MALFORMED_DOCUMENTS["value_rises"](_document(run_classic(paper8, 1)))
    doc = _with_round(doc, 4, labels=doc["rounds"][4]["labels"][:-1])
    with pytest.raises(MalformedInput, match="^malformed trace: round 3 raises vertex 4's value$"):
        trace_from_json(json.dumps(doc))


def _swapped_settles(doc: dict, u: int, v: int) -> dict:
    """``doc`` with vertices u and v trading settles: in every label list
    each takes the other's status and settled round, and every frontier and
    batch names the other."""
    other = {u: v, v: u}

    def swapped(labels):
        by_vertex = {row["vertex"]: row for row in labels}
        return [{**row, **{key: by_vertex[other.get(row["vertex"], row["vertex"])][key]
                           for key in ("status", "settled_round")}} for row in labels]

    def renamed(vertices):
        return sorted(other.get(x, x) for x in vertices)

    rounds = [{**r, "frontier": renamed(r["frontier"]), "labels": swapped(r["labels"]),
               "newly_permanent": renamed(r["newly_permanent"])} for r in doc["rounds"]]
    return {**doc, "rounds": rounds, "final_labels": swapped(doc["final_labels"])}


@pytest.mark.parametrize("make, message", [
    pytest.param(
        lambda paper8, tie4: _with_empty_round(_document(run_classic(paper8, 1)), 3),
        "round 3 settles nothing",
        id="classic_round_settles_nothing",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_document(run_modified(tie4, 1)), "strategy": "singlemin", "algorithm": "classic"
        },
        "a singlemin round settles more than one vertex",
        id="tiebatch_relabelled_singlemin",
    ),
    pytest.param(
        lambda paper8, tie4: {**_document(run_classic(paper8, 1)), "terminated_early": True},
        "terminated_early, but the run does not stop when its target settles",
        id="terminated_early_without_target",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_document(run_classic(paper8, 1, 8)), "terminated_early": True
        },
        "terminated_early, but the run does not stop when its target settles",
        id="terminated_early_after_a_full_run",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_document(run_classic(paper8, 1, 3, stop_at_target=True)), "terminated_early": False
        },
        "not terminated_early, but a temporary label is finite",
        id="stopped_run_not_terminated_early",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_cut_after(_swapped_settles(_document(run_classic(paper8, 1)), 2, 3), 1),
            "target": 3, "terminated_early": True,
        },
        "round 1 stops with vertex 2 temporary at or below its batch",
        id="classic_stops_above_a_temporary_label",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_document(run_classic(tie4, 1)), "strategy": "tiebatch", "algorithm": "modified"
        },
        "round 2 settles vertex 3 at or below an earlier batch",
        id="classic_relabelled_tiebatch",
    ),
    pytest.param(
        lambda paper8, tie4: {
            **_document(run_modified(paper8, 1, strategy=Strategy.STABLE_BATCH)), "strategy": "tiebatch"
        },
        "round 4 settles vertex 6 at a second value",
        id="stablebatch_relabelled_tiebatch",
    ),
    pytest.param(
        lambda paper8, tie4: {**_document(run_modified(paper8, 1)), "strategy": "stablebatch"},
        "round 4's batch is not stablebatch's at vertex 6",
        id="tiebatch_relabelled_stablebatch",
    ),
    pytest.param(
        lambda paper8, tie4: _swapped_settles(
            _document(run_classic(Graph.from_edges(3, [(1, 2, 1), (1, 3, 1)]), 1)), 2, 3
        ),
        "round 2 settles vertex 2 at or below an earlier batch",
        id="classic_settles_a_tie_out_of_vertex_order",
    ),
    pytest.param(
        # round 1 improves both vertices it relaxes, so stablebatch settles
        # only the minimum, vertex 2
        lambda paper8, tie4: _with_round(
            _with_vertex_rows(_paper8_document(paper8), 3, status="permanent", settled_round=1),
            0, newly_permanent=[2, 3],
        ),
        "round 1's batch is not stablebatch's at vertex 3",
        id="stablebatch_settles_an_improved_label",
    ),
])
def test_a_document_no_run_writes_is_malformed_input(paper8, tie4, make, message):
    with pytest.raises(MalformedInput, match=f"^malformed trace: {message}$"):
        trace_from_json(json.dumps(make(paper8, tie4)))


@pytest.mark.parametrize("name, message", [
    ("true_vertex", "label rows must list vertices 1..n in order"),
    ("float_vertex", "label rows must list vertices 1..n in order"),
    ("finite_value_without_predecessors", "round 1 gives vertex 2 no finite value or no predecessor"),
    ("own_predecessor", "round 1 changes vertex 2's predecessors outside its frontier"),
    ("kept_value_drops_a_predecessor", "round 3 changes vertex 5's predecessors outside its frontier"),
    ("value_below_its_predecessor", "round 1 gives vertex 2 a predecessor not below its value"),
    ("unreachable_vertex_settles", "round 1 gives vertex 3 no finite value or no predecessor"),
    ("row_settles_in_a_later_round", "round 1's settled rounds disagree with the final ones"),
])
def test_a_label_no_relaxation_writes_is_malformed_input(paper8, name, message):
    doc = _document(run_classic(paper8, 1))
    with pytest.raises(MalformedInput, match=f"^malformed trace: {message}$"):
        trace_from_json(json.dumps(MALFORMED_DOCUMENTS[name](doc)))


@pytest.mark.parametrize("name, vertices", [
    ("repeated_predecessor", [1, 1]),
    ("unsorted_predecessors", [2, 1]),
    ("unsorted_newly_permanent", [6, 4]),
    ("unsorted_frontier", [6, 4]),
    ("repeated_frontier", [4, 6, 6]),
])
def test_a_vertex_list_no_run_writes_is_malformed_input(paper8, name, vertices):
    text = json.dumps(MALFORMED_DOCUMENTS[name](_paper8_document(paper8)))
    message = re.escape(f"malformed trace: vertex list {vertices} is not strictly ascending")
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        trace_from_json(text)


def test_source_not_settled_in_round_zero_is_malformed_input():
    # with no rounds, only the round-0 batch ties the labels to the source
    doc = json.loads(trace_to_json(run_classic(Graph.from_edges(2, []), 1)))
    assert doc["rounds"] == []
    doc["final_labels"][0].update(status="temporary", settled_round=None)
    with pytest.raises(MalformedInput, match="round 0"):
        trace_from_json(json.dumps(doc))


def test_label_list_length_mismatch_is_reported(paper8):
    text = json.dumps(MALFORMED_DOCUMENTS["short_round_labels"](_paper8_document(paper8)))
    with pytest.raises(MalformedInput, match="has 7 rows, expected 8"):
        trace_from_json(text)


@pytest.mark.parametrize(
    "text",
    ["", "{}", "[]", "null", "5", '"trace"', "{", pytest.param("[" * 100_000, id="deep")],
)
def test_non_trace_text_is_malformed_input(text):
    with pytest.raises(MalformedInput):
        trace_from_json(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (path, key) at which a value sits in a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_edit_of_a_trace_loads_or_is_malformed_input(tie4, data):
    doc = json.loads(trace_to_json(run_modified(tie4, 1, strategy=Strategy.TIE_BATCH)))
    path, key = data.draw(st.sampled_from(list(_slots(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if data.draw(st.booleans()) and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    try:
        trace = trace_from_json(json.dumps(doc))
    except MalformedInput:
        return
    assert isinstance(trace, RunTrace)


def _long_classic_trace() -> RunTrace:
    """A classic run on a sparse 150-vertex graph: 149 rounds, a 4.4 MB
    document in which a round changes a few of its 150 rows."""
    return run_classic(generate_graph(GraphSpec(150, 0.05, 1, 9, 0.9, 1), 0), 1)


def test_a_written_document_decodes_only_the_rows_that_change(monkeypatch):
    trace = _long_classic_trace()
    text = trace_to_json(trace)
    loads, decoded = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s: decoded.append(s) or loads(s))
    assert trace_from_json(text) == trace
    # round 1's rows, the rows later rounds change and the final labels
    changes = sum(len(record.changes) for record in trace.rounds[1:])
    assert len(decoded) == 1
    assert decoded[0].count('"vertex"') == changes + 2 * trace.final_labels.n


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_and_loading_a_long_trace_stay_under_one_and_a_half_documents():
    trace = _long_classic_trace()
    text = trace_to_json(trace)
    assert _peak_bytes(lambda: trace_to_json(trace)) < 1.5 * len(text)
    assert _peak_bytes(lambda: trace_from_json(text)) < 1.5 * len(text)
